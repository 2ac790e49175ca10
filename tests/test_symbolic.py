"""Symbolic semantics: initial state, successor computation, budgeted
exploration with subsumption, and parameter projection."""

from fractions import Fraction

import pytest

from parataur import poly, symbolic
from parataur.errors import EmptyInitialError
from parataur.model import Interval, atom
from conftest import (
    build,
    conjoin_guard,
    edge_xp,
    equal,
    from_guard,
    loop_xy,
    path_to,
    reset,
)

XY = ("x", "y")
P = ("p",)


def test_initial_state_without_invariant_is_diagonal():
    # A clock named __d is a clock like any other, not time elapse's variable.
    for x, y in (XY, ("x", "__d")):
        s0 = symbolic.initial_state(build(clocks=(x, y)))
        expected = poly.make((x, y), (), [poly.lin({x: 1, y: -1}, 0, False),
                                          poly.lin({x: -1, y: 1}, 0, False)])
        assert s0.location == "l0"
        assert equal(s0.constraint, expected)


def test_initial_state_stops_at_invariant():
    pta = build(clocks=XY, params=P,
                locs=(("l0", (atom("x", "<=", ("p",)),)),))
    s0 = symbolic.initial_state(pta)
    expected = poly.make(XY, P, [poly.lin({"x": 1, "y": -1}, 0, False),
                                 poly.lin({"x": -1, "y": 1}, 0, False),
                                 poly.lin({"x": 1, "p": -1}, 0, False)])
    assert equal(s0.constraint, expected)


def test_initial_state_conjoins_bounds_box():
    s0 = symbolic.initial_state(loop_xy(sup=3))
    assert poly.contains(s0.constraint,
                         {"x": Fraction(1), "y": Fraction(1), "p": Fraction(2)})
    assert not poly.contains(s0.constraint,
                             {"x": Fraction(1), "y": Fraction(1), "p": Fraction(4)})


def test_initial_state_empty_when_origin_violates_invariant():
    # The defining formula conjoins the origin with the invariant before
    # elapsing, so a lower-bound invariant empties the initial state.
    pta = build(locs=(("l0", (atom("x", ">=", constant=1),)),))
    with pytest.raises(EmptyInitialError):
        symbolic.initial_state(pta)


def test_succ_of_loop_fixture():
    pta = loop_xy(sup=3)
    s0 = symbolic.initial_state(pta)
    s1 = symbolic.succ(pta, s0, pta.edges[0])
    expected = poly.make(XY, P, [poly.lin({"y": 1, "x": -1}, -1, False),
                                 poly.lin({"y": -1, "x": 1}, 1, False),
                                 poly.lin({"p": -1}, 1, False),
                                 poly.lin({"p": 1}, -3, False)])
    assert s1.location == "l0"
    assert equal(s1.constraint, expected)


def test_succ_unsatisfiable_guard_is_absent():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", ">=", constant=1),
                                     atom("x", "<=", constant=0)), ()),))
    s0 = symbolic.initial_state(pta)
    assert symbolic.succ(pta, s0, pta.edges[0]) is None


def test_succ_stops_when_the_reset_leaves_a_false_row():
    """From x <= 1 through guard x >= 2 resetting x, eliminating x leaves
    the row 1 <= 0: succ answers None with no LP, so from cold caches
    neither minimization nor emptiness misses its cache.  The same edge
    from x <= 2 is feasible and is minimized."""
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=((("l0", "l1", (atom("x", ">=", constant=2),), ("x",)),)))
    edge = pta.edges[0]
    low = symbolic.SymbolicState(
        "l0", from_guard(("x",), (), (atom("x", "<=", constant=1),)))
    assert poly.lin({}, 1, False) in reset(
        conjoin_guard(low.constraint, edge.guard), ("x",)).ineqs
    caches = (poly._minimized_ineqs, poly._ineqs_empty)

    def misses():
        return sum(cache.cache_info().misses for cache in caches)

    for cache in caches:
        cache.cache_clear()
    assert symbolic.succ(pta, low, edge) is None
    assert misses() == 0
    high = symbolic.SymbolicState(
        "l0", from_guard(("x",), (), (atom("x", "<=", constant=2),)))
    assert symbolic.succ(pta, high, edge) is not None
    assert misses() >= 1


def test_succ_elapse_closed_state_unchanged():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),))
    s0 = symbolic.initial_state(pta)
    s1 = symbolic.succ(pta, s0, pta.edges[0])
    assert s1.location == "l1"
    assert equal(s1.constraint, s0.constraint)


def test_explore_loop_complete_state_count():
    # The k-th loop iteration requires p >= k, so p <= 2 caps the unrolling.
    result = symbolic.explore(loop_xy(sup=2))
    assert result.complete
    assert len(result.states) == 3
    result = symbolic.explore(loop_xy(sup=3))
    assert result.complete
    assert len(result.states) == 4


def test_explore_self_subsumption_single_state():
    pta = build(edges=(("l0", "l0", (), ("x",)),))
    result = symbolic.explore(pta)
    assert result.complete
    assert len(result.states) == 1


def test_explore_budget_exceeded_on_unbounded_growth():
    guard = (atom("x", ">=", constant=1), atom("x", "<=", constant=1),
             atom("y", "<=", ("p",)))
    pta = build(clocks=XY, params=P,
                edges=(("l0", "l0", guard, ("x",)),))
    result = symbolic.explore(pta, symbolic.Budget(max_states=10))
    assert result.status == symbolic.BUDGET_EXCEEDED
    assert len(result.states) == 10


def test_explore_restrict_to_prunes_other_locations():
    result = symbolic.explore(edge_xp(), restrict_to=frozenset({"l0"}))
    assert result.complete
    assert [s.location for s in result.states] == ["l0"]


def test_explore_subsumption_discards_included_state():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),
                       ("l0", "l1", (atom("x", ">=", constant=1),), ())))
    result = symbolic.explore(pta)
    assert result.complete
    assert len(result.states) == 2


def test_explore_stored_states_are_zones():
    result = symbolic.explore(loop_xy(sup=3))
    for state in result.states:
        assert poly.zone_violation(state.constraint) is None


def test_path_to_records_edge_ids():
    pta = build(locs=(("l0", ()), ("l1", ()), ("l2", ())),
                edges=(("l0", "l1", (), ()), ("l1", "l2", (), ())))
    result = symbolic.explore(pta)
    index = next(i for i, s in enumerate(result.states) if s.location == "l2")
    assert path_to(result, index) == [0, 1]


def test_reach_project_single_edge():
    union, status = symbolic.reach_project(edge_xp(sup=2), {"l1"})
    assert status == symbolic.COMPLETE
    box = poly.make((), P, [poly.lin({"p": 1}, -2, False)])
    assert len(union.disjuncts) == 1
    assert equal(union.disjuncts[0], box)


def test_reach_project_unreachable_target_empty():
    pta = build(locs=(("l0", ()), ("l1", ())))
    union, status = symbolic.reach_project(pta, {"l1"})
    assert status == symbolic.COMPLETE
    assert union.empty
