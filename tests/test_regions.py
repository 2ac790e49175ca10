"""Region graph construction and the finite-state queries: reachability,
lasso detection, deadlock detection, and the AF check."""

import itertools
import random
from fractions import Fraction

from parataur import mcm, regions
from parataur.model import ParamValuation, atom, eq_atoms, instantiate
from conftest import (
    build,
    enumerate_shapes,
    integer_valuations_of,
    loop_xy,
    random_bounded_pta,
    random_lu_pta,
    rational_samples_of,
)

TWO_INC = "q0: inc C1 -> q1\nq1: inc C1 -> q2\nq2: halt\n"


def inst(pta, **values):
    return instantiate(pta, ParamValuation.of(values))


def test_single_clock_max_constant_one_has_four_regions():
    pta = build(edges=(("l0", "l0", (atom("x", "<=", constant=1),), ()),))
    assert regions.enumeration_size(inst(pta)) == (4, 2)
    graph = regions.build_region_graph(inst(pta))
    assert len(graph.nodes) == 4


def test_two_clock_region_count_matches_enumeration():
    # Per clock with max constant 1: {0}, (0,1), {1}, top.  Pairs multiply
    # to 16, and the open-open pair refines into three fraction orderings.
    # From x = y = 0 only the diagonal is reachable: {0}, (0,1), {1}, top.
    pta = build(clocks=("x", "y"),
                edges=(("l0", "l0", (atom("x", "<=", constant=1),
                                     atom("y", "<=", constant=1)), ()),))
    assert regions.enumeration_size(inst(pta))[0] == 18
    graph = regions.build_region_graph(inst(pta))
    assert len(graph.nodes) == 4


def test_unconstrained_clocks_collapse():
    one = build(edges=(("l0", "l0", (), ()),))
    assert regions.enumeration_size(inst(one))[0] == 2
    assert len(regions.build_region_graph(inst(one)).nodes) == 2
    two = build(clocks=("x", "y"), edges=(("l0", "l0", (), ()),))
    assert regions.enumeration_size(inst(two))[0] == 4
    assert len(regions.build_region_graph(inst(two)).nodes) == 2


def test_shape_rank_sorts_the_enumeration_in_its_own_order():
    cases = [m for h in (1, 2) for m in itertools.product(range(4), repeat=h)]
    cases += list(itertools.product(range(3), repeat=3))
    cases += [(1, 1, 1, 1), (2, 2, 1, 1), (0, 1, 0, 2), (1, 0, 2, 0)]
    for maxc in cases:
        keys = [regions._shape_rank(maxc, ints, fracs)
                for ints, fracs in enumerate_shapes(maxc)]
        assert all(a < b for a, b in zip(keys, keys[1:])), maxc


def listed_size(ta):
    """enumeration_size by listing every region of every location whose
    invariant holds throughout, in location order, then shape order."""
    maxc = regions._max_constants(ta)
    clock = {x: k for k, x in enumerate(ta.clocks)}
    nodes = [(loc.name, ints, fracs) for loc in ta.locations
             for ints, fracs in enumerate_shapes(maxc)
             if regions._guard_holds(loc.invariant, clock, ints, frozenset(fracs[0]))]
    h = len(ta.clocks)
    init = (ta.init, (0,) * h, (tuple(range(h)),))
    return len(nodes), nodes.index(init) if init in nodes else None


def test_region_count_places_the_initial_region_after_earlier_locations():
    # l1 comes first but is not initial; l0's invariant cuts y to [0, 2].
    pta = build(clocks=("x", "y"),
                locs=(("l1", (atom("x", "<", constant=1),)),
                      ("l0", (atom("y", "<=", constant=2),))),
                init="l0",
                edges=(("l0", "l1", (atom("x", ">=", constant=2),), ("x",)),))
    ta = inst(pta)
    assert regions.enumeration_size(ta) == listed_size(ta) == (54, 26)


def test_region_count_without_an_initial_region():
    pta = build(locs=(("l0", ()), ("l1", (atom("x", ">", constant=0),))),
                init="l1", edges=(("l1", "l0", (atom("x", "<=", constant=1),), ()),))
    ta = inst(pta)
    assert regions.enumeration_size(ta) == listed_size(ta) == (7, None)


def test_region_count_of_the_compiled_machine_matches_the_listing():
    machine = mcm.compile_to_pta(mcm.parse_machine(TWO_INC))
    ta = instantiate(machine, ParamValuation.of({"a": Fraction(1, 8)}))
    assert regions.enumeration_size(ta) == listed_size(ta) == (265200, 587)


def test_reach_unguarded_edge():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),))
    assert regions.ta_reach(inst(pta), {"l1"})
    assert regions.reach_path(inst(pta), {"l1"}) == [0]


def test_reach_blocked_by_source_invariant():
    pta = build(locs=(("l0", (atom("x", ">=", constant=1),)), ("l1", ())),
                edges=(("l0", "l1", (atom("x", "<=", constant=0),), ()),))
    assert not regions.ta_reach(inst(pta), {"l1"})


def test_reach_empty_target_set_is_false():
    pta = build()
    assert not regions.ta_reach(inst(pta), set())


def invariant_gate():
    """l1's invariant x <= 1 rejects the region that edge 0 enters (x >= 2);
    l1 is reached through l2, which resets x."""
    return build(locs=(("l0", ()), ("l1", (atom("x", "<=", constant=1),)),
                       ("l2", ())),
                 edges=(("l0", "l1", (atom("x", ">=", constant=2),), ()),
                        ("l0", "l2", (atom("x", ">=", constant=3),), ("x",)),
                        ("l2", "l1", (), ())))


def fork():
    """The initial region enters l1 by edge 0, then l2 by edge 1."""
    return build(locs=(("l0", ()), ("l1", ()), ("l2", ())),
                 edges=(("l0", "l1", (), ()), ("l0", "l2", (), ())))


def test_ta_reach_agrees_with_reach_path():
    """ta_reach stops building at the first target region; reach_path
    builds the whole graph.  Every target set of one or two locations is
    tried, so targets holding the initial location and unreachable ones are
    among them, at integer and rational valuations."""
    rng = random.Random(20261020)
    ptas = [random_bounded_pta(rng) for _ in range(25)]
    ptas += [random_lu_pta(rng) for _ in range(25)]
    gated = build(locs=(("l0", ()), ("l1", (atom("x", "<=", constant=1),))),
                  edges=(("l0", "l1", (atom("x", ">=", constant=2),), ()),))
    outcomes = set()
    for pta in ptas + [invariant_gate(), gated, fork()]:
        names = [loc.name for loc in pta.locations]
        valuations = (integer_valuations_of(pta.bounds)[:4]
                      + rational_samples_of(pta.bounds or (), 2))
        for v in valuations:
            ta = instantiate(pta, v)
            for k in (0, 1, 2):
                for targets in itertools.combinations(names, k):
                    reached = regions.ta_reach(ta, targets)
                    assert reached == (regions.reach_path(ta, targets)
                                       is not None), (pta, v, targets)
                    outcomes.add((reached, ta.init in targets))
    assert {(False, False), (True, False), (True, True)} <= outcomes
    assert not regions.ta_reach(inst(gated), {"l1"})
    assert regions.ta_reach(inst(invariant_gate()), {"l1"})


def test_ta_reach_stops_at_the_first_target_region():
    machine = mcm.compile_to_pta(mcm.parse_machine(TWO_INC))
    ta = instantiate(machine, ParamValuation.of({"a": Fraction(1, 2)}))
    targets = frozenset({mcm.FINAL_LOCATION})
    partial = regions.build_region_graph(ta, targets)
    assert len(partial.nodes) == 132
    assert len(regions.build_region_graph(ta).nodes) == 166
    assert partial.nodes[-1][0] == mcm.FINAL_LOCATION
    assert all(loc != mcm.FINAL_LOCATION for loc, _, _ in partial.nodes[:-1])
    assert regions.ta_reach(ta, targets)
    # The initial region of a target location is the whole partial graph.
    assert len(regions.build_region_graph(ta, frozenset({ta.init})).nodes) == 1
    # Edge 1 of the initial region is not taken once edge 0 reached l1.
    nodes = regions.build_region_graph(inst(fork()), frozenset({"l1"})).nodes
    assert [loc for loc, _, _ in nodes] == ["l0", "l0", "l1"]


def test_reach_path_concatenates_edge_ids():
    pta = build(locs=(("l0", ()), ("l1", ()), ("l2", ())),
                edges=(("l0", "l1", (eq_atoms("x", constant=1)), ("x",)),
                       ("l1", "l2", (eq_atoms("x", constant=1)), ())))
    assert regions.reach_path(inst(pta), {"l2"}) == [0, 1]


def test_lasso_loop_fixture_has_no_cycle():
    ta = inst(loop_xy(sup=3), p=3)
    assert not regions.ta_lasso(ta, [loc.name for loc in ta.locations])


def test_lasso_unguarded_self_loop():
    pta = build(edges=(("l0", "l0", (), ()),))
    assert regions.ta_lasso(inst(pta), {"l0"})


def test_lasso_zero_delay_repetition_without_reset():
    pta = build(edges=(("l0", "l0", (atom("x", ">=", constant=1),), ()),))
    assert regions.ta_lasso(inst(pta), {"l0"})


def test_deadlock_no_outgoing_edges():
    assert regions.ta_deadlock(inst(build()))


def test_deadlock_loop_fixture_after_overshoot():
    # Once y passes p = 1 the loop guard y <= p is dead forever.
    assert regions.ta_deadlock(inst(loop_xy(sup=3), p=1))


def test_no_deadlock_with_unguarded_self_loop():
    pta = build(edges=(("l0", "l0", (), ()),))
    assert not regions.ta_deadlock(inst(pta))


def test_deadlock_within_restricts_the_path():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),))
    # l1 is a dead end but only reachable by leaving {l0}; from l0 itself
    # the edge stays available forever.
    assert not regions.deadlock_within(inst(pta), {"l0"})
    assert regions.deadlock_within(inst(pta), {"l0", "l1"})


def test_lasso_consistency_with_af():
    # No region cycle is reachable, so every run ends in a deadlock.
    ta = inst(loop_xy(sup=3), p=2)
    all_locs = [loc.name for loc in ta.locations]
    assert not regions.ta_lasso(ta, all_locs)
    assert regions.ta_deadlock(ta)
