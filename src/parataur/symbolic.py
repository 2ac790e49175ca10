"""Symbolic (parametric-zone) semantics.

A symbolic state pairs a location with a polyhedron over clocks and
parameters describing exactly the reachable clock/parameter combinations
along a discrete path.  Exploration is breadth-first with optional
inclusion subsumption and a state/depth budget; when the model carries
parameter bounds they are conjoined once into the initial state and then
propagate through every successor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import poly
from .errors import EmptyInitialError, InternalError, ZoneShapeError
from .model import Edge, Pta

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Budget:
    max_states: int = 2000
    max_depth: int = 500
    max_int_valuations: int = 100000


@dataclass(frozen=True)
class SymbolicState:
    location: str
    constraint: poly.Polyhedron


@dataclass
class ExplorationResult:
    states: list[SymbolicState]
    edges: list[tuple[int, int, int]]
    parents: dict[int, tuple[int, int]]
    depths: list[int]
    status: str

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE


def _checked(state: SymbolicState) -> SymbolicState:
    viol = poly.zone_violation(state.constraint)
    if viol is not None:
        raise ZoneShapeError(f"at {state.location}: {viol}")
    return state


def initial_state(pta: Pta) -> SymbolicState:
    """The origin within the parameter bounds, if any, through an edge with
    no guard and no reset into the initial invariant: the invariant, time
    elapse and the invariant again."""
    inv = pta.invariant(pta.init)
    c = poly.origin(pta.clocks, pta.parameters, pta.bounds_map() or {})
    # No row of the origin is constant, so no false row stops successor.
    c = poly.minimized(poly.successor(c, (), frozenset(), inv))
    if c.trivially_empty:
        raise EmptyInitialError(
            "initial invariant excludes the origin for every parameter valuation")
    return _checked(SymbolicState(pta.init, c))


def succ(pta: Pta, state: SymbolicState, edge: Edge) -> SymbolicState | None:
    """Successor through one edge, or None when infeasible: at once, with
    no LP, when the reset leaves a false row.  The target invariant is
    intersected both before and after time elapse."""
    if edge.source != state.location:
        raise InternalError(
            f"edge from {edge.source!r} applied at {state.location!r}")
    c = poly.successor(state.constraint, edge.guard, edge.resets,
                       pta.invariant(edge.target))
    if c is None:
        return None
    c = poly.minimized(c)
    if c.trivially_empty:
        return None
    return _checked(SymbolicState(edge.target, c))


def key_faces(ids: dict[tuple, int], c: poly.Polyhedron) -> list[tuple]:
    """c's faces as (vector id, constant, strict, row); a coefficient
    vector new to ids gets the next id."""
    return [(ids.setdefault(o.coeffs, len(ids)), o.constant, o.strict, o)
            for o in c.ineqs]


def unmatched_faces(outer: list[tuple],
                    inner: dict[int, tuple[int, bool]]) -> list | None:
    """One pass over outer's keyed faces against inner's (constant, strict)
    by vector id: None when a matched face of outer is tighter, else the
    faces of outer left unmatched; none left means inner <= outer.

    The None answer requires inner to be minimized and nonempty: each of
    its faces is then supporting (attained when closed, approached when
    strict), so a tighter outer bound on the same normal vector proves a
    point of inner escapes.  A matched face that is not tighter holds on
    all of inner, so the other answers hold for any operands."""
    unmatched = []
    for vid, constant, strict, row in outer:
        bound = inner.get(vid)
        if bound is None:
            unmatched.append(row)
        elif (constant, strict) > bound:
            return None
    return unmatched


@dataclass
class _Successor:
    """A successor, minimized only when a tighter face or the store needs it."""
    c: poly.Polyhedron
    minimized: bool = False
    nonempty: bool | None = None  # None until decided

    def minimize(self) -> bool:
        """Minimize c unless it is known empty; False when it is empty."""
        if self.nonempty is not False and not self.minimized:
            self.c, self.minimized = poly.minimized(self.c), True
            self.nonempty = not self.c.trivially_empty
        return self.nonempty

    def is_nonempty(self) -> bool:
        if self.nonempty is None:
            self.nonempty = not poly.is_empty(self.c)
        return self.nonempty


def explore(pta: Pta, budget: Budget = Budget(),
            restrict_to: frozenset[str] | None = None,
            use_subsumption: bool = True) -> ExplorationResult:
    """Breadth-first symbolic exploration.

    restrict_to drops the edges into locations outside the set (this does
    not count against completeness).  A new state is discarded when a
    stored state at its location includes it: the first, in store order.
    Faces keyed once by coefficient vector settle most tests in one pass
    per stored state.  The new state's sample, and points near the exit of
    rays from it, refute most others; only includes' exact LP proves
    inclusion.  A new state is minimized only at a tighter matched face or
    to be stored: the other answers hold for any nonempty form of it, and
    an empty one adds no edge and no budget hit.
    """
    result = ExplorationResult([], [], {}, [], COMPLETE)
    try:
        s0 = initial_state(pta)
    except EmptyInitialError:
        return result
    if restrict_to is not None and s0.location not in restrict_to:
        return result

    result.states.append(s0)
    result.depths.append(0)
    by_location: dict[str, list[int]] = {s0.location: [0]}
    out_edges: dict[str, list[tuple[int, Edge]]] = {}
    for edge_id, e in enumerate(pta.edges):
        if restrict_to is None or e.target in restrict_to:
            out_edges.setdefault(e.source, []).append((edge_id, e))

    # A new state's faces are keyed once per form; a stored state keeps its.
    vector_ids: dict[tuple, int] = {}
    keyed = [key_faces(vector_ids, s0.constraint)]

    def subsumer(location: str, new: _Successor) -> int | None:
        # Probes and rays see only unmatched faces: a matched face that did
        # not refute holds on all of new.  The last refuting probe goes first,
        # as neighbours tend to miss the same point.  None when new is empty.
        def bounds() -> dict[int, tuple[int, bool]]:
            return {vid: (k, st) for vid, k, st, _ in key_faces(vector_ids, new.c)}
        inner = bounds()
        probes: list[poly.Probe] = []
        for idx in by_location[location]:
            faces = unmatched_faces(keyed[idx], inner)
            if faces is None and not new.minimized:
                if not new.minimize():
                    return None
                inner = bounds()
                faces = unmatched_faces(keyed[idx], inner)
            if faces is None:
                continue
            if not faces:
                return idx if new.is_nonempty() else None
            if not probes:
                point = poly.sample_point(new.c)
                new.nonempty = point is not None
                if point is None:
                    return None
                sample = poly.probe_of(point)
                probes.append(sample)
            for k, p in enumerate(probes):
                if not poly.probe_holds(faces, p):
                    probes.insert(0, probes.pop(k))
                    break
            else:
                other = result.states[idx].constraint
                escape = poly.escape_point(other, new.c, faces, sample)
                if escape is not None:
                    probes.insert(0, escape)
                elif poly.includes(other, new.c):
                    return idx
        return None

    queue: deque[int] = deque([0])
    while queue:
        i = queue.popleft()
        depth = result.depths[i]
        for edge_id, e in out_edges.get(result.states[i].location, ()):
            c = poly.successor(result.states[i].constraint, e.guard, e.resets,
                               pta.invariant(e.target))
            if c is None:
                continue
            new = _Successor(c)
            if use_subsumption and e.target in by_location:
                j = subsumer(e.target, new)
                if j is not None:
                    result.edges.append((i, edge_id, j))
                    continue
            if depth + 1 > budget.max_depth or len(result.states) >= budget.max_states:
                if new.is_nonempty():
                    result.status = BUDGET_EXCEEDED
            elif new.minimize():
                result.states.append(_checked(SymbolicState(e.target, new.c)))
                j = len(result.states) - 1
                by_location.setdefault(e.target, []).append(j)
                keyed.append(key_faces(vector_ids, new.c))
                result.depths.append(depth + 1)
                result.edges.append((i, edge_id, j))
                result.parents[j] = (i, edge_id)
                queue.append(j)
    return result


def reach_project(pta: Pta, targets: frozenset[str] | set[str],
                  budget: Budget = Budget()) -> tuple[poly.PolyUnion, str]:
    """Union of parameter projections of stored target states, plus the
    exploration status.  Sound; exact when the status is complete."""
    targets = frozenset(targets)
    result = explore(pta, budget)
    pieces = [poly.project_params(s.constraint)
              for s in result.states if s.location in targets]
    return poly.union_of(pieces), result.status
