"""Seeded randomized properties.

Each test draws from its own random.Random stream and compares an exact
procedure against an independent oracle: an integer-arithmetic grid scan,
a substitution check, a region-graph truth, or an exact per-point delay
solve.  No property relies on the procedure under test for its own oracle.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from parataur import decide, poly, regions, symbolic
from parataur.errors import EmptyInitialError
from parataur.model import (
    Interval,
    ParamValuation,
    classify,
    instantiate,
    parse_model,
    serialize,
)
from parataur.symbolic import Budget
from conftest import (
    _GUARD_OPS,
    _random_atoms,
    build,
    conjoin_guard,
    enumerate_shapes,
    equal,
    firing_delay,
    from_guard,
    integer_valuations_of,
    intersect,
    path_to,
    random_bounded_pta,
    random_lu_pta,
    rational_samples_of,
    reachable_locations,
    reset,
    time_elapse,
    time_past,
    unreset_invariant,
)

SEED = 20260815


# ---------------------------------------------------------------------------
# Raw polyhedra against a grid


def random_ineqs(rng, names, n_rows):
    rows = []
    for _ in range(n_rows):
        chosen = rng.sample(names, rng.randint(1, 2))
        coeffs = {n: rng.choice((-1, 1)) for n in chosen}
        rows.append(poly.lin(coeffs, rng.randint(-3, 3), rng.random() < 0.3))
    return rows


def grid_point_in(c, den=4, hi=4):
    """First point of the (1/den)-grid over [0, hi]^n inside c, or None.
    Scaled to pure integer arithmetic; requires integer rows."""
    names = c.vars
    rows = []
    for i in c.ineqs:
        vec = [0] * len(names)
        for n, cf in i.coeffs:
            assert cf.denominator == 1
            vec[names.index(n)] = cf.numerator
        assert i.constant.denominator == 1
        rows.append((vec, i.constant.numerator * den, i.strict))
    for pt in itertools.product(range(hi * den + 1), repeat=len(names)):
        for vec, const, strict in rows:
            s = sum(v * g for v, g in zip(vec, pt)) + const
            if s > 0 or (s == 0 and strict):
                break
        else:
            return {n: Fraction(g, den) for n, g in zip(names, pt)}
    return None


def test_emptiness_agrees_with_grid_and_sampling():
    rng = random.Random(SEED)
    empties = 0
    for _ in range(130):
        names = ("x", "y", "p")[: rng.randint(2, 3)]
        c = poly.make(names[:-1], names[-1:],
                      random_ineqs(rng, list(names), rng.randint(1, 4)))
        if poly.is_empty(c):
            empties += 1
            assert grid_point_in(c) is None, str(c)
        else:
            point = poly.sample_point(c)
            assert point is not None, str(c)
            assert poly.contains(c, point), str(c)
    assert empties >= 8


def substitute_params(c, valuation):
    rows = []
    for i in c.ineqs:
        const = i.constant + sum((cf * valuation[n] for n, cf in i.coeffs
                                  if n in c.params), Fraction(0))
        den = const.denominator
        coeffs = {n: cf * den for n, cf in i.coeffs if n in c.clocks}
        rows.append(poly.lin(coeffs, const.numerator, i.strict))
    return poly.make(c.clocks, (), rows)


def test_parameter_projection_is_exact():
    # v is in the projection exactly when substituting v leaves the clock
    # system satisfiable.
    rng = random.Random(SEED + 1)
    for _ in range(40):
        c = poly.make(("x", "y"), ("p",),
                      random_ineqs(rng, ["x", "y", "p"], rng.randint(1, 4)))
        proj = poly.project_params(c)
        for k in range(9):
            v = {"p": Fraction(k, 2)}
            expected = not poly.is_empty(substitute_params(c, v))
            assert poly.contains(proj, v) == expected, (str(c), v)


def random_zone(rng):
    clocks = ("x", "y")[: rng.randint(1, 2)]
    params = ("p",)[: rng.randint(0, 1)]
    guard = ()
    for _ in range(rng.randint(0, 3)):
        guard = guard + _random_atoms(rng, clocks, params, _GUARD_OPS)
    c = from_guard(clocks, params, guard)
    if rng.random() < 0.5:
        c = time_elapse(c)
    if rng.random() < 0.3:
        c = reset(c, clocks[:1])
    return c


def test_zone_operator_laws():
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 60:
        c = random_zone(rng)
        if poly.is_empty(c):
            continue
        checked += 1
        up = time_elapse(c)
        down = time_past(c)
        assert equal(time_elapse(up), up)
        assert equal(time_past(down), down)
        assert poly.includes(up, c) and poly.includes(down, c)
        r = reset(c, c.clocks[:1])
        assert equal(reset(r, c.clocks[:1]), r)
        assert equal(poly.minimized(c), c)
        assert equal(intersect(c, c), c)
        assert poly.zone_violation(up) is None
        assert poly.zone_violation(r) is None


def test_integer_points_agree_with_the_grid():
    # Atoms bound a clock by at most one parameter plus a constant, both at
    # most 3.  With integer parameters, each zone below then bounds every
    # clock, and every difference of two clocks, from below by at most 7
    # once a strict bound is tightened: time elapse and reset raise no lower
    # bound, and a difference bound they add is at most a clock's lower
    # bound.  The least integer point of a zone sums at most two such
    # bounds, one per clock, so its coordinates are at most 14.  Two
    # parameters give several integer slices per zone, and a reset before
    # time elapse gives difference rows.
    rng = random.Random(SEED + 6)
    bounds = {"p": Interval(0, 3), "q": Interval(0, 3)}
    without = 0
    for _ in range(200):
        clocks = ("x", "y")[: rng.randint(1, 2)]
        params = ("p", "q")[: rng.randint(0, 2)]

        def guard(n):
            atoms = ()
            for _ in range(n):
                atoms += _random_atoms(rng, clocks, params,
                                       ("<", "<", "<=", ">", ">", ">="))
            return atoms

        c = from_guard(clocks, params, guard(rng.randint(2, 4)))
        if rng.random() < 0.5:
            c = time_elapse(c)
        if rng.random() < 0.5:
            c = reset(c, rng.sample(clocks, 1))
            c = conjoin_guard(time_elapse(c), guard(rng.randint(1, 2)))
        ranges = [range(15)] * len(c.clocks) + [range(4)] * len(c.params)
        expected = any(poly.contains(c, dict(zip(c.vars, pt)))
                       for pt in itertools.product(*ranges))
        assert poly.has_integer_point(c, bounds) == expected, str(c)
        without += not expected and not poly.is_empty(c)
    assert without >= 3


def test_difference_is_exact_on_the_grid():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        a = poly.make(("x", "y"), ("p",),
                      random_ineqs(rng, ["x", "y", "p"], rng.randint(1, 3)))
        b = poly.make(("x", "y"), ("p",),
                      random_ineqs(rng, ["x", "y", "p"], rng.randint(1, 3)))
        u = poly.difference(a, b)
        for gx, gy, gp in itertools.product(range(0, 9, 2), repeat=3):
            pt = {"x": Fraction(gx, 2), "y": Fraction(gy, 2),
                  "p": Fraction(gp, 2)}
            expected = poly.contains(a, pt) and not poly.contains(b, pt)
            assert u.contains(pt) == expected, (str(a), str(b), pt)


# ---------------------------------------------------------------------------
# Model round trip


def test_serialization_roundtrip_on_random_models():
    rng = random.Random(SEED + 4)
    for _ in range(15):
        for pta in (random_bounded_pta(rng), random_lu_pta(rng)):
            assert parse_model(serialize(pta)) == pta


# ---------------------------------------------------------------------------
# Closed L/U states hold integer points


def test_closed_lu_states_have_integer_points():
    rng = random.Random(SEED + 5)
    checked = 0
    for _ in range(400):
        if checked >= 20:
            break
        pta = random_lu_pta(rng)
        cls = classify(pta)
        if not (cls.is_closed and cls.lu_partition is not None):
            continue
        checked += 1
        result = symbolic.explore(pta, Budget(max_states=200))
        bounds = pta.bounds_map() or {}
        for state in result.states:
            assert poly.has_integer_point(state.constraint, bounds), \
                (pta.name, state.location, str(state.constraint))
    assert checked >= 20


# ---------------------------------------------------------------------------
# Symbolic exploration against the region graph


def test_projected_reachability_matches_region_truth():
    rng = random.Random(SEED + 6)
    checked = 0
    while checked < 25:
        pta = random_bounded_pta(rng)
        result = symbolic.explore(pta, Budget(max_states=400))
        if not result.complete:
            continue
        checked += 1
        names = [loc.name for loc in pta.locations]
        unions = {
            loc: poly.union_of([poly.project_params(s.constraint)
                                for s in result.states if s.location == loc])
            for loc in names
        }
        samples = (integer_valuations_of(pta.bounds)
                   + rational_samples_of(pta.bounds, count=2))
        for v in samples:
            reached = reachable_locations(instantiate(pta, v))
            for loc in names:
                assert unions[loc].contains(v.as_dict()) == (loc in reached), \
                    (serialize(pta), loc, v.as_dict())


def test_stored_paths_replay_to_their_states():
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 15:
        pta = random_bounded_pta(rng)
        result = symbolic.explore(pta, Budget(max_states=200))
        if not result.complete or len(result.states) < 2:
            continue
        checked += 1
        for i, state in enumerate(result.states):
            s = symbolic.initial_state(pta)
            for edge_id in path_to(result, i):
                s = symbolic.succ(pta, s, pta.edges[edge_id])
                assert s is not None
            assert s.location == state.location
            assert equal(s.constraint, state.constraint)


def stepwise_succ(pta, state, edge):
    """The successor one whole-polyhedron operator at a time: the guard,
    the reset, the target invariant, time elapse, the invariant again and
    minimization; None when that is empty."""
    inv = pta.invariant(edge.target)
    c = conjoin_guard(state.constraint, edge.guard)
    c = reset(c, edge.resets)
    c = conjoin_guard(time_elapse(conjoin_guard(c, inv)), inv)
    c = poly.minimized(c)
    return None if c.trivially_empty else c


def test_succ_equals_the_stepwise_operators_row_for_row():
    """On every edge out of every stored state of seeded draws, succ gives
    the stepwise successor's rows exactly, or None with it.  Some edges
    stop at a false row after the reset, some are empty only after
    minimization, and some successors keep a diagonal."""
    rng = random.Random(SEED + 12)
    seen = {"false after reset": 0, "empty": 0, "diagonal": 0}
    for _ in range(40):
        pta = random_bounded_pta(rng)
        for state in symbolic.explore(pta, Budget(max_states=40)).states:
            for edge in pta.edges:
                if edge.source != state.location:
                    continue
                want = stepwise_succ(pta, state, edge)
                got = symbolic.succ(pta, state, edge)
                if want is None:
                    assert got is None, (serialize(pta), state, edge)
                    pre = reset(conjoin_guard(state.constraint,
                                                   edge.guard), edge.resets)
                    seen["false after reset" if pre.trivially_empty
                         else "empty"] += 1
                    continue
                assert got is not None, (serialize(pta), state, edge)
                assert got.location == edge.target
                assert got.constraint.ineqs == want.ineqs, (serialize(pta),
                                                            state, edge)
                seen["diagonal"] += any(
                    len([n for n, _ in i.coeffs if n in pta.clocks]) == 2
                    for i in want.ineqs)
    assert all(seen.values()), seen


def stepwise_initial(pta):
    """The initial state one whole-polyhedron operator at a time: the
    origin, the invariant, time elapse, the invariant again, the bounds
    box and minimization; None when that is empty."""
    inv = pta.invariant(pta.init)
    c = poly.origin(pta.clocks, pta.parameters, {})
    c = conjoin_guard(time_elapse(conjoin_guard(c, inv)), inv)
    box = []
    for p, iv in (pta.bounds or ()):
        box.append(poly.lin({p: -1}, iv.inf, iv.inf_open))
        box.append(poly.lin({p: 1}, -iv.sup, iv.sup_open))
    if box:
        c = intersect(c, poly.make(pta.clocks, pta.parameters, box))
    c = poly.minimized(c)
    return None if c.trivially_empty else c


def with_random_bounds(rng, pta):
    """pta with no bounds, closed bounds, or bounds open at some end."""
    kind = rng.choice(("none", "closed", "open"))
    if kind == "none":
        return dataclasses.replace(pta, bounds=None)
    bounds = []
    for p in pta.parameters:
        inf = rng.randint(0, 1)
        opens = (rng.random() < 0.5, rng.random() < 0.5) if kind == "open" else ()
        bounds.append((p, Interval(inf, inf + rng.randint(1, 3), *opens)))
    return dataclasses.replace(pta, bounds=tuple(bounds))


def test_initial_state_equals_the_stepwise_operators_row_for_row():
    """initial_state gives the stepwise initial state's rows exactly, or
    EmptyInitialError when that is empty, on seeded draws with and without
    bounds, some open, and with invariants on the initial location."""
    rng = random.Random(SEED + 14)
    seen = {"open bounds": 0, "initial invariant": 0, "empty": 0}
    for k in range(600):
        pta = with_random_bounds(
            rng, (random_bounded_pta if k % 2 else random_lu_pta)(rng))
        want = stepwise_initial(pta)
        seen["open bounds"] += any(not iv.closed for _, iv in pta.bounds or ())
        seen["initial invariant"] += bool(pta.invariant(pta.init))
        if want is None:
            with pytest.raises(EmptyInitialError):
                symbolic.initial_state(pta)
            seen["empty"] += 1
            continue
        got = symbolic.initial_state(pta)
        assert got.constraint.ineqs == want.ineqs, serialize(pta)
    assert all(seen.values()), seen


def stepwise_past(pta, location, edge):
    """The past of an edge one whole-polyhedron operator at a time: the
    guard, the target invariant under the reset, the source invariant, time
    past and the source invariant again."""
    inv = pta.invariant(location)
    c = intersect(from_guard(pta.clocks, pta.parameters, edge.guard),
                  unreset_invariant(pta.invariant(edge.target), edge.resets,
                                    pta.clocks, pta.parameters))
    return conjoin_guard(time_past(conjoin_guard(c, inv)), inv)


def test_predecessor_equals_the_stepwise_operators_row_for_row():
    """On every edge out of every stored state of seeded draws,
    poly.predecessor gives the stepwise past's rows exactly.  Some edges
    reset a clock that the target invariant bounds, and some source
    locations have an invariant."""
    rng = random.Random(SEED + 15)
    seen = {"reset under target invariant": 0, "source invariant": 0}
    for k in range(80):
        pta = (random_bounded_pta if k % 2 else random_lu_pta)(rng)
        for state in symbolic.explore(pta, Budget(max_states=40)).states:
            for edge in pta.edges:
                if edge.source != state.location:
                    continue
                got = poly.predecessor(
                    pta.clocks, pta.parameters, edge.guard, edge.resets,
                    pta.invariant(edge.target), pta.invariant(state.location))
                want = stepwise_past(pta, state.location, edge)
                assert got.ineqs == want.ineqs, (serialize(pta), edge)
                seen["reset under target invariant"] += any(
                    a.clock in edge.resets for a in pta.invariant(edge.target))
                seen["source invariant"] += bool(pta.invariant(state.location))
    assert all(seen.values()), seen


def test_subsumption_does_not_change_projections():
    rng = random.Random(SEED + 8)
    checked = 0
    for _ in range(200):
        if checked >= 12:
            break
        pta = random_bounded_pta(rng)
        raw = symbolic.explore(pta, Budget(max_states=300),
                               use_subsumption=False)
        if not raw.complete:
            continue
        checked += 1
        slim = symbolic.explore(pta, Budget(max_states=300))
        assert slim.complete
        for loc in {loc.name for loc in pta.locations}:
            u_raw = poly.union_of([poly.project_params(s.constraint)
                                   for s in raw.states if s.location == loc])
            u_slim = poly.union_of([poly.project_params(s.constraint)
                                    for s in slim.states if s.location == loc])
            assert poly.union_difference(u_raw, u_slim).empty
            assert poly.union_difference(u_slim, u_raw).empty
    assert checked >= 12


# ---------------------------------------------------------------------------
# L/U monotonicity


def test_lu_reachability_is_monotone():
    rng = random.Random(SEED + 9)
    checked = 0
    while checked < 20:
        pta = random_lu_pta(rng)
        cls = classify(pta)
        lower, upper = cls.lu_partition
        checked += 1
        for _ in range(3):
            base = {p: Fraction(rng.randint(0, 6), 2) for p in pta.parameters}
            weaker = dict(base)
            for p in lower:
                weaker[p] = max(Fraction(0), base[p] - Fraction(rng.randint(0, 2), 2))
            for p in upper:
                weaker[p] = min(Fraction(3), base[p] + Fraction(rng.randint(0, 2), 2))
            small = reachable_locations(
                instantiate(pta, ParamValuation.of(base)))
            large = reachable_locations(
                instantiate(pta, ParamValuation.of(weaker)))
            assert small <= large, (serialize(pta), base, weaker)


# ---------------------------------------------------------------------------
# Deadlock machinery


def test_deadlock_synthesis_matches_region_truth():
    rng = random.Random(SEED + 10)
    checked = 0
    while checked < 15:
        pta = random_bounded_pta(rng)
        union, status = decide.ed_synth_semi(pta, Budget(max_states=300))
        if status != symbolic.COMPLETE:
            continue
        checked += 1
        for v in integer_valuations_of(pta.bounds):
            truth = regions.ta_deadlock(instantiate(pta, v))
            assert union.contains(v.as_dict()) == truth, \
                (serialize(pta), v.as_dict())


def test_deadlock_region_splits_states_exactly():
    # Points inside the deadlock region admit no firing delay at all; points
    # carved out admit one, found by exact interval solving.
    rng = random.Random(SEED + 11)
    checked = 0
    while checked < 12:
        pta = random_bounded_pta(rng)
        result = symbolic.explore(pta, Budget(max_states=200))
        if not result.complete:
            continue
        checked += 1
        for state in result.states[:6]:
            dead = decide.deadlock_region(pta, state)
            for piece in dead.disjuncts:
                pt = poly.sample_point(piece)
                assert pt is not None
                assert firing_delay(pta, state.location, pt) is None, \
                    (serialize(pta), state.location, pt)
            for piece in poly.union_difference(state.constraint, dead).disjuncts:
                pt = poly.sample_point(piece)
                assert pt is not None
                assert firing_delay(pta, state.location, pt) is not None, \
                    (serialize(pta), state.location, pt)


# ---------------------------------------------------------------------------
# The forward region graph against a full enumeration


def eager_region_graph(ta):
    """Every region of every location whose invariant holds throughout, in
    enumeration order (location, then shape), with each node's delay
    successor first and then its discrete successors in edge-id order."""
    maxc = regions._max_constants(ta)
    clock = {x: k for k, x in enumerate(ta.clocks)}
    nodes = [(loc.name, ints, fracs)
             for loc in ta.locations
             for ints, fracs in enumerate_shapes(maxc)
             if regions._guard_holds(loc.invariant, clock, ints, frozenset(fracs[0]))]
    index = {key: i for i, key in enumerate(nodes)}
    succ = []
    for loc, ints, fracs in nodes:
        out = []
        nxt = regions._delay_successor(ints, fracs, maxc)
        if nxt is not None and (loc, *nxt) in index:
            out.append((None, index[(loc, *nxt)]))
        for edge_id, e in enumerate(ta.edges):
            if e.source == loc and regions._guard_holds(
                    e.guard, clock, ints, frozenset(fracs[0])):
                resets = frozenset(clock[x] for x in e.resets)
                key = (e.target, *regions._reset_region(ints, fracs, resets))
                if key in index:
                    out.append((edge_id, index[key]))
        succ.append(out)
    h = len(ta.clocks)
    return nodes, succ, index.get((ta.init, (0,) * h, (tuple(range(h)),)))


def eager_paths(succ, initial):
    """Breadth-first parents from the initial node, and the reachable set."""
    parents = {}
    seen = {initial} if initial is not None else set()
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for edge_id, j in succ[i]:
                if j not in seen:
                    seen.add(j)
                    parents[j] = (i, edge_id)
                    nxt.append(j)
        frontier = nxt
    return seen, parents


def test_forward_region_graph_matches_full_enumeration():
    rng = random.Random(SEED + 12)
    for draw in range(24):
        pta = random_lu_pta(rng) if draw % 2 else random_bounded_pta(rng)
        valuations = integer_valuations_of(pta.bounds)
        for v in rng.sample(valuations, min(3, len(valuations))) + \
                rational_samples_of(pta.bounds, count=1):
            ta = instantiate(pta, v)
            nodes, succ, initial = eager_region_graph(ta)
            seen, parents = eager_paths(succ, initial)
            where = (serialize(pta), v.as_dict())
            assert set(regions.build_region_graph(ta).nodes) == \
                {nodes[i] for i in seen}, where
            assert regions.enumeration_size(ta) == (len(nodes), initial), where
            for loc in ta.locations:
                hits = [i for i in seen if nodes[i][0] == loc.name]
                expected = None
                if hits:
                    expected, cur = [], min(hits)
                    while cur in parents:
                        cur, edge_id = parents[cur]
                        if edge_id is not None:
                            expected.append(edge_id)
                    expected.reverse()
                assert regions.reach_path(ta, {loc.name}) == expected, \
                    where + (loc.name,)


def restricted_reach(nodes, succ, initial, within):
    """Nodes reachable from the initial node by runs that stay within the
    location set (none when the initial node is outside it)."""
    if initial is None or nodes[initial][0] not in within:
        return set()
    seen, stack = {initial}, [initial]
    while stack:
        for _, j in succ[stack.pop()]:
            if j not in seen and nodes[j][0] in within:
                seen.add(j)
                stack.append(j)
    return seen


def fires(succ, i):
    """Some discrete edge leaves node i or a node its delays lead to."""
    while i is not None:
        if any(edge_id is not None for edge_id, _ in succ[i]):
            return True
        i = next((j for edge_id, j in succ[i] if edge_id is None), None)
    return False


def test_restricted_queries_match_a_search_of_the_full_enumeration():
    """ta_lasso and deadlock_within build only through their location set.
    For every subset, they agree with a search of the eager graph that
    stays in the set: a lasso is a discrete edge between two such nodes
    whose target leads back to its source inside the set, and a deadlock is
    such a node from which no discrete edge fires, now or after delays.
    The build gives no node outside the set a successor."""
    rng = random.Random(SEED + 13)
    for draw in range(24):
        pta = random_lu_pta(rng) if draw % 2 else random_bounded_pta(rng)
        valuations = integer_valuations_of(pta.bounds)
        for v in rng.sample(valuations, min(2, len(valuations))) + \
                rational_samples_of(pta.bounds, count=1):
            ta = instantiate(pta, v)
            nodes, succ, initial = eager_region_graph(ta)
            names = [loc.name for loc in ta.locations]
            for size in range(len(names) + 1):
                for subset in itertools.combinations(names, size):
                    within = frozenset(subset)
                    where = (serialize(pta), v.as_dict(), sorted(within))
                    inside = restricted_reach(nodes, succ, initial, within)
                    graph = regions.build_region_graph(ta, within=within)
                    assert {key for key in graph.nodes if key[0] in within} \
                        == {nodes[i] for i in inside}, where
                    for i, key in enumerate(graph.nodes):
                        if key[0] not in within:
                            assert i not in graph.delay, where
                            assert i not in graph.discrete_out, where
                    lasso = any(
                        edge_id is not None and j in inside
                        and i in restricted_reach(nodes, succ, j, within)
                        for i in inside for edge_id, j in succ[i])
                    assert regions.ta_lasso(ta, within) == lasso, where
                    dead = any(not fires(succ, i) for i in inside)
                    assert regions.deadlock_within(ta, within) == dead, where
