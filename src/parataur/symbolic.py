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
    """Origin conjoined with the initial invariant, elapsed, re-intersected
    with the invariant; parameter bounds conjoined when present."""
    inv = pta.invariant(pta.init)
    c = poly.origin(pta.clocks, pta.parameters)
    c = poly.conjoin_guard(c, inv)
    c = poly.time_elapse(c)
    c = poly.conjoin_guard(c, inv)
    bounds = pta.bounds_map()
    if bounds:
        c = poly.intersect(c, poly.bounds_box(pta.clocks, pta.parameters, bounds))
    c = poly.minimized(c)
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


def explore(pta: Pta, budget: Budget = Budget(),
            restrict_to: frozenset[str] | None = None,
            use_subsumption: bool = True) -> ExplorationResult:
    """Breadth-first symbolic exploration.

    restrict_to prunes successors whose location is outside the set (the
    pruning does not count against completeness).  A new state is discarded
    when an already-stored state at the same location includes it: the
    first one, in the order they were stored.  Each state's faces are
    keyed once by coefficient vector, and one pass over a stored state's
    keyed faces settles most tests.  Integer points of the new state
    refute most of the rest on the faces left unmatched: its sample, and
    each point found near the exit of a ray from the sample across such a
    face.  Only the exact LP of includes answers that a stored state
    includes the new one.
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
        out_edges.setdefault(e.source, []).append((edge_id, e))

    # Each new state's faces are keyed once; a stored state keeps its keys.
    vector_ids: dict[tuple, int] = {}
    keyed = [key_faces(vector_ids, s0.constraint)]

    def subsumer(state: SymbolicState, keyed_faces: list) -> int | None:
        # A matched face that did not refute holds on the whole new state,
        # so probes and rays look only at the unmatched faces.  The probe
        # that refuted last is tried first: neighbouring stored states tend
        # to miss the same point.
        inner = state.constraint
        inner_faces = {vid: (c, strict) for vid, c, strict, _ in keyed_faces}
        probes: list[poly.Probe] = []
        for idx in by_location[state.location]:
            faces = unmatched_faces(keyed[idx], inner_faces)
            if faces is None:
                continue
            if not faces:
                return idx
            if not probes:
                sample = poly.probe_of(poly.sample_point(inner))
                probes.append(sample)
            for k, p in enumerate(probes):
                if not poly.probe_holds(faces, p):
                    probes.insert(0, probes.pop(k))
                    break
            else:
                other = result.states[idx].constraint
                escape = poly.escape_point(other, inner, faces, sample)
                if escape is not None:
                    probes.insert(0, escape)
                elif poly.includes(other, inner):
                    return idx
        return None

    queue: deque[int] = deque([0])
    while queue:
        i = queue.popleft()
        depth = result.depths[i]
        for edge_id, e in out_edges.get(result.states[i].location, ()):
            nxt = succ(pta, result.states[i], e)
            if nxt is None:
                continue
            if restrict_to is not None and nxt.location not in restrict_to:
                continue
            nxt_faces = key_faces(vector_ids, nxt.constraint)
            if use_subsumption and nxt.location in by_location:
                j = subsumer(nxt, nxt_faces)
                if j is not None:
                    result.edges.append((i, edge_id, j))
                    continue
            if depth + 1 > budget.max_depth or len(result.states) >= budget.max_states:
                result.status = BUDGET_EXCEEDED
                continue
            result.states.append(nxt)
            j = len(result.states) - 1
            by_location.setdefault(nxt.location, []).append(j)
            keyed.append(nxt_faces)
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
