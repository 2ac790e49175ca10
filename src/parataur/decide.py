"""Decision procedures and budgeted semi-procedures.

Exact routes (extreme-valuation instantiation for L/U models, integer
enumeration for integer-point-sufficient bounded models) are preferred;
everything else falls back to budgeted symbolic exploration, which can
answer NonEmpty soundly and Empty only on complete exploration.  Every
NonEmpty verdict carries a witness valuation, checked once, here, by the
route's region-graph query on the instantiation at that valuation; a
failing check raises InternalError, which the CLI reports with exit 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import poly, regions, symbolic
from .errors import InternalError, NotLUError, OpenBoundsError, UnboundedError
from .model import (
    MAX_LOWER_MIN_UPPER,
    MIN_LOWER_MAX_UPPER,
    ParamValuation,
    Pta,
    Ta,
    classify,
    extreme_valuation,
    instantiate,
    instantiate_extreme,
)
from .symbolic import Budget, SymbolicState

EMPTY = "empty"
NONEMPTY = "nonempty"
UNKNOWN = "unknown"

CONFIRMED_SYNTACTIC = "confirmed_syntactic"
CONFIRMED_UP_TO_BUDGET = "confirmed_up_to_budget"
REFUTED = "refuted"


@dataclass(frozen=True)
class Witness:
    valuation: ParamValuation
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    property: str
    answer: str
    method: str
    witness: Witness | None = None
    budget_hit: bool = False


@dataclass(frozen=True)
class IntValuationSet:
    valuations: tuple[ParamValuation, ...]

    @property
    def empty(self) -> bool:
        return not self.valuations


@dataclass(frozen=True)
class IpCheckResult:
    kind: str
    state: SymbolicState | None = None
    complete: bool = False


RegionQuery = Callable[[Ta], list[int] | bool | None]


def _witness(pta: Pta, v: ParamValuation, query: RegionQuery) -> Witness | None:
    """Run the route's region query (a reachability path, or the truth of a
    lasso or deadlock) once, on the instantiation at v: the witness at v, or
    None when the query fails there.  Every nonempty verdict's witness comes
    from here."""
    found = query(instantiate(pta, v))
    if found is None or found is False:
        return None
    return Witness(v, None if found is True else tuple(found))


def _certified(pta: Pta, sample: Mapping[str, Fraction],
               query: RegionQuery) -> Witness:
    """The witness at a sample of valuations that symbolic exploration
    proved; the region query failing there is a bug in the toolkit."""
    v = ParamValuation.of(sample)
    w = _witness(pta, v, query)
    if w is None:
        shown = ", ".join(f"{name}={val}" for name, val in v.items)
        raise InternalError(f"the region graph refutes the witness {shown}")
    return w


def _int_ranges(pta: Pta, budget: Budget) -> list[range]:
    """Per parameter, the integers inside its bounds; the box they span
    must fit the budget's cap on integer valuations."""
    bounds = pta.bounds_map()
    if bounds is None and pta.parameters:
        raise UnboundedError("integer enumeration requires parameter bounds")
    ranges = [bounds[p].integers() for p in pta.parameters]
    count = math.prod(len(r) for r in ranges)
    if count > budget.max_int_valuations:
        raise UnboundedError(
            f"integer enumeration of {count} valuations exceeds the budget cap")
    return ranges


def integer_valuations(pta: Pta, budget: Budget = Budget()) -> list[ParamValuation]:
    """All integer parameter valuations inside the bounds box."""
    return [ParamValuation.of(dict(zip(pta.parameters, combo)))
            for combo in itertools.product(*_int_ranges(pta, budget))]


def ef_synth_int(pta: Pta, targets: Iterable[str],
                 budget: Budget = Budget()) -> IntValuationSet:
    """Integer valuations within bounds whose instantiation reaches the
    target set; decided per valuation on the region graph."""
    targets = frozenset(targets)
    hits = []
    for v in integer_valuations(pta, budget):
        if regions.ta_reach(instantiate(pta, v), targets):
            hits.append(v)
    return IntValuationSet(tuple(hits))


def _finite_upper_witness(pta: Pta, reach: RegionQuery,
                          ext: dict[str, Fraction | None]) -> Witness:
    """A finite valuation witnessing reachability proved at the upper
    extreme; unbounded upper parameters only help when raised, so doubling
    a candidate value terminates."""
    base = 1
    for a in pta.all_atoms():
        base = max(base, abs(a.constant) + 1)
    candidate = Fraction(base * (len(pta.edges) + 2))
    for _ in range(64):
        v = ParamValuation.of({p: candidate if val is None else val
                               for p, val in ext.items()})
        w = _witness(pta, v, reach)
        if w is not None:
            return w
        candidate *= 2
    raise InternalError("no finite witness found below the doubling cap")


def ef_emptiness(pta: Pta, targets: Iterable[str], budget: Budget = Budget(),
                 assert_ip: bool = False) -> Verdict:
    """Existential reachability emptiness over the bounded valuation domain."""
    targets = frozenset(targets)
    cls = classify(pta)

    def reach(ta: Ta) -> list[int] | None:
        return regions.reach_path(ta, targets)

    if cls.lu_partition is not None and (pta.bounds is None or cls.bounds_all_closed):
        ext = extreme_valuation(pta, MIN_LOWER_MAX_UPPER)
        # With every extreme value finite, instantiate_extreme is the
        # instantiation at ext, so the decision also checks the witness.
        if all(val is not None for val in ext.values()):
            w = _witness(pta, ParamValuation.of(ext), reach)
        elif reach(instantiate_extreme(pta, MIN_LOWER_MAX_UPPER)) is None:
            w = None
        else:
            w = _finite_upper_witness(pta, reach, ext)
        if w is None:
            return Verdict("EF", EMPTY, "lu_extreme")
        return Verdict("EF", NONEMPTY, "lu_extreme", w)

    if cls.is_bounded and pta.parameters and (
            (cls.ip_sufficient and cls.bounds_all_closed) or assert_ip):
        for v in integer_valuations(pta, budget):
            w = _witness(pta, v, reach)
            if w is not None:
                return Verdict("EF", NONEMPTY, "ip_integer_enum", w)
        return Verdict("EF", EMPTY, "ip_integer_enum")

    union, status = symbolic.reach_project(pta, targets, budget)
    hit_budget = status != symbolic.COMPLETE
    if not union.empty:
        w = _certified(pta, poly.sample_point(union.disjuncts[0]), reach)
        return Verdict("EF", NONEMPTY, "symbolic_semi", w, budget_hit=hit_budget)
    if not hit_budget:
        return Verdict("EF", EMPTY, "symbolic_semi")
    return Verdict("EF", UNKNOWN, "symbolic_semi", budget_hit=True)


def ef_universality(pta: Pta, targets: Iterable[str]) -> Verdict:
    """Universality for L/U models with closed bounds: the target is
    reachable for every valuation iff it is at the worst-case extreme
    (lower parameters maximal, upper parameters minimal).  Answer nonempty
    means universal; the witness is the worst-case valuation."""
    targets = frozenset(targets)
    v = ParamValuation.of(extreme_valuation(pta, MAX_LOWER_MIN_UPPER))
    w = _witness(pta, v, lambda ta: regions.reach_path(ta, targets))
    if w is None:
        return Verdict("EFU", EMPTY, "lu_worst_case")
    return Verdict("EFU", NONEMPTY, "lu_worst_case", w)


def _require_closed_lu(pta: Pta, what: str):
    cls = classify(pta)
    if cls.lu_partition is None:
        raise NotLUError(f"{what} requires a lower/upper parameter partition")
    if pta.parameters and (pta.bounds is None or not cls.bounds_all_closed):
        raise OpenBoundsError(
            f"{what} requires finite closed bounds on every parameter")


def ec_emptiness(pta: Pta) -> Verdict:
    """Cycle emptiness for closed-bounded L/U models: a cycle exists for
    some valuation iff one exists at the lower/upper extreme."""
    _require_closed_lu(pta, "cycle emptiness")
    everywhere = [loc.name for loc in pta.locations]
    v = ParamValuation.of(extreme_valuation(pta, MIN_LOWER_MAX_UPPER))
    w = _witness(pta, v, lambda ta: regions.ta_lasso(ta, everywhere))
    if w is None:
        return Verdict("EC", EMPTY, "lu_extreme_lasso")
    return Verdict("EC", NONEMPTY, "lu_extreme_lasso", w)


def deadlock_region(pta: Pta, state: SymbolicState) -> poly.PolyUnion:
    """The subset of the state from which no delay makes any outgoing edge
    firable into a state satisfying its target invariant."""
    inv_src = pta.invariant(state.location)
    pieces = [state.constraint]
    for e in pta.edges:
        if e.source != state.location:
            continue
        enabled = poly.from_guard(pta.clocks, pta.parameters, e.guard)
        enabled = poly.intersect(
            enabled,
            poly.unreset_invariant(pta.invariant(e.target), e.resets,
                                   pta.clocks, pta.parameters))
        enabled = poly.conjoin_guard(enabled, inv_src)
        past = poly.minimized(poly.conjoin_guard(poly.time_past(enabled), inv_src))
        if past.trivially_empty:
            continue
        pieces = [q for p in pieces for q in poly.difference(p, past).disjuncts]
    return poly.union_of(pieces)


def eg_emptiness(pta: Pta, targets: Iterable[str],
                 budget: Budget = Budget()) -> Verdict:
    """Emptiness of "some maximal run stays within the target set".

    Step 1 looks for a cycle within the set at the lower/upper extreme.
    Step 2 explores restricted to the set without subsumption (the absence
    of an extreme cycle bounds every such path) and subtracts, per state,
    the time-past of all enabled edges; any nonempty remainder projects to
    witnesses that deadlock inside the set."""
    targets = frozenset(targets)
    _require_closed_lu(pta, "unavoidable-exit emptiness")
    v = ParamValuation.of(extreme_valuation(pta, MIN_LOWER_MAX_UPPER))
    w = _witness(pta, v, lambda ta: regions.ta_lasso(ta, targets))
    if w is not None:
        return Verdict("EG", NONEMPTY, "lu_extreme_lasso", w)

    result = symbolic.explore(pta, budget, restrict_to=targets,
                              use_subsumption=False)
    for state in result.states:
        dead = deadlock_region(pta, state)
        for piece in dead.disjuncts:
            proj = poly.project_params(piece)
            sample = poly.sample_point(proj)
            if sample is None:
                continue
            w = _certified(pta, sample,
                           lambda ta: regions.deadlock_within(ta, targets))
            return Verdict("EG", NONEMPTY, "t_restricted_deadlock", w,
                           budget_hit=not result.complete)
    if result.complete:
        return Verdict("EG", EMPTY, "t_restricted_deadlock")
    return Verdict("EG", UNKNOWN, "t_restricted_deadlock", budget_hit=True)


def ed_synth_semi(pta: Pta, budget: Budget = Budget()
                  ) -> tuple[poly.PolyUnion, str]:
    """Union of parameter projections of per-state deadlock regions over a
    budgeted exploration: a sound under-approximation of the valuations
    with a reachable deadlock, exact when exploration completes."""
    result = symbolic.explore(pta, budget)
    pieces = []
    for state in result.states:
        for piece in deadlock_region(pta, state).disjuncts:
            pieces.append(poly.project_params(piece))
    return poly.union_of(pieces), result.status


def ed_witness(pta: Pta, union: poly.PolyUnion) -> Witness:
    """The witness of a nonempty ed_synth_semi union: the sample of its
    first disjunct, checked for a reachable deadlock on the region graph."""
    return _certified(pta, poly.sample_point(union.disjuncts[0]),
                      regions.ta_deadlock)


def ip_check(pta: Pta, budget: Budget = Budget()) -> IpCheckResult:
    """Integer-point property of reachable symbolic states: syntactic
    confirmation when the classification is sufficient, else a budgeted
    search for a state without an integer point."""
    cls = classify(pta)
    # The syntactic certificates (reset-PTA, closed L/U) hold without a
    # bounds box; open bounds conjoined into states can break them.
    if cls.ip_sufficient and (pta.bounds is None or cls.bounds_all_closed):
        return IpCheckResult(CONFIRMED_SYNTACTIC, complete=True)
    if pta.parameters and pta.bounds is None:
        raise UnboundedError("integer-point check requires parameter bounds")
    _int_ranges(pta, budget)  # has_integer_point enumerates this box per state
    bounds = pta.bounds_map() or {}
    result = symbolic.explore(pta, budget)
    for state in result.states:
        if not poly.has_integer_point(state.constraint, bounds):
            return IpCheckResult(REFUTED, state=state)
    return IpCheckResult(CONFIRMED_UP_TO_BUDGET, complete=result.complete)


def verify_witness(pta: Pta, prop: str, witness: Witness,
                   targets: Iterable[str] = ()) -> bool:
    """Reconfirm a witness valuation on a fresh region graph of its
    instantiation: an oracle independent of the route that found it."""
    targets = frozenset(targets)
    ta = instantiate(pta, witness.valuation)
    if prop in ("EF", "EFU"):
        return regions.ta_reach(ta, targets)
    if prop == "EC":
        return regions.ta_lasso(ta, [loc.name for loc in ta.locations])
    if prop == "EG":
        return regions.ta_lasso(ta, targets) or regions.deadlock_within(ta, targets)
    if prop == "ED":
        return regions.ta_deadlock(ta)
    raise ValueError(f"no witness check for property {prop!r}")
