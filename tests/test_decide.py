"""Decision procedures: EF emptiness across its three dispatch routes,
EF universality, cycle emptiness, the deadlock machinery, and the
integer-point check."""

from fractions import Fraction

import pytest

from parataur import decide, poly, regions, symbolic
from parataur.errors import NotLUError, OpenBoundsError, UnboundedError
from parataur.model import Interval, ParamValuation, atom, eq_atoms, instantiate
from conftest import build, edge_xp, equal, loop_xy, open_unit, xp_selfloop


def lu_window(bounds=None):
    """x >= 1 and x <= q on the only edge; q is an upper parameter."""
    return build(clocks=("x",), params=("q",),
                 locs=(("l0", ()), ("l1", ())),
                 edges=(("l0", "l1", (atom("x", ">=", constant=1),
                                      atom("x", "<=", ("q",))), ()),),
                 bounds=bounds)


def dead_guard_edge():
    """Unsatisfiable guard x <= p and x >= p + 1 (uses p on both sides)."""
    return build(clocks=("x",), params=("p",),
                 locs=(("l0", ()), ("l1", ())),
                 edges=(("l0", "l1", (atom("x", "<=", ("p",)),
                                      atom("x", ">=", ("p",), 1)), ()),),
                 bounds=(("p", Interval(0, 2)),))


# ---------------------------------------------------------------------------
# ef_synth_int


def test_ef_synth_int_enumerates_feasible_integers():
    hits = decide.ef_synth_int(edge_xp(sup=2), {"l1"})
    assert [v["p"] for v in hits.valuations] == [0, 1, 2]


def test_ef_synth_int_unsatisfiable_guard_is_empty():
    assert decide.ef_synth_int(dead_guard_edge(), {"l1"}).empty


def test_ef_synth_int_requires_bounds():
    with pytest.raises(UnboundedError):
        decide.ef_synth_int(lu_window(), {"l1"})


def test_integer_valuation_budget_cap():
    with pytest.raises(UnboundedError):
        decide.integer_valuations(edge_xp(sup=2),
                                  symbolic.Budget(max_int_valuations=2))


# ---------------------------------------------------------------------------
# ef_emptiness


def test_ef_lu_unbounded_upper_nonempty_with_finite_witness():
    pta = lu_window()
    verdict = decide.ef_emptiness(pta, {"l1"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "lu_extreme"
    assert verdict.witness.valuation["q"] >= 1
    assert decide.verify_witness(pta, "EF", verdict.witness, {"l1"})


def test_ef_lu_zero_upper_bound_empty():
    pta = lu_window(bounds=(("q", Interval(0, 0)),))
    verdict = decide.ef_emptiness(pta, {"l1"})
    assert verdict.answer == decide.EMPTY
    assert verdict.method == "lu_extreme"


def test_ef_semi_route_nonempty_with_verified_sample():
    pta = edge_xp(sup=2)
    verdict = decide.ef_emptiness(pta, {"l1"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "symbolic_semi"
    assert not verdict.budget_hit
    assert decide.verify_witness(pta, "EF", verdict.witness, {"l1"})


def test_ef_semi_route_empty_when_complete():
    verdict = decide.ef_emptiness(dead_guard_edge(), {"l1"})
    assert verdict.answer == decide.EMPTY
    assert verdict.method == "symbolic_semi"


def test_ef_semi_route_unknown_on_budget():
    loop_guard = eq_atoms("x", constant=1)
    blocked = (atom("y", "<=", ("p",)), atom("y", ">=", ("p",), 1))
    pta = build(clocks=("x", "y"), params=("p",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l0", loop_guard, ("x",)),
                       ("l0", "l1", blocked, ())))
    verdict = decide.ef_emptiness(pta, {"l1"}, symbolic.Budget(max_states=8))
    assert verdict.answer == decide.UNKNOWN
    assert verdict.budget_hit


def test_ef_assert_ip_switches_to_integer_enumeration():
    verdict = decide.ef_emptiness(edge_xp(sup=2), {"l1"}, assert_ip=True)
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "ip_integer_enum"
    assert verdict.witness.valuation["p"] == 0


def test_ef_ip_sufficient_model_uses_integer_enumeration():
    verdict = decide.ef_emptiness(xp_selfloop(), {"l0"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "ip_integer_enum"


# ---------------------------------------------------------------------------
# ef_universality


def test_efu_upper_guard_universal():
    pta = build(clocks=("x",), params=("q",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", "<=", ("q",)),), ()),),
                bounds=(("q", Interval(1, 2)),))
    verdict = decide.ef_universality(pta, {"l1"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.witness.valuation["q"] == 1
    assert decide.verify_witness(pta, "EFU", verdict.witness, {"l1"})


def test_efu_window_guard_not_universal():
    pta = lu_window(bounds=(("q", Interval(0, 2)),))
    verdict = decide.ef_universality(pta, {"l1"})
    assert verdict.answer == decide.EMPTY


def test_efu_parameterless_reachable_target_universal():
    pta = build(locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),))
    assert decide.ef_universality(pta, {"l1"}).answer == decide.NONEMPTY


def test_efu_preconditions():
    with pytest.raises(NotLUError):
        decide.ef_universality(xp_selfloop(), {"l0"})
    from parataur.errors import UnboundedUniversalityError
    with pytest.raises(UnboundedUniversalityError):
        decide.ef_universality(lu_window(), {"l1"})


# ---------------------------------------------------------------------------
# ec_emptiness


def test_ec_loop_fixture_empty():
    verdict = decide.ec_emptiness(loop_xy(sup=3))
    assert verdict.answer == decide.EMPTY
    assert verdict.method == "lu_extreme_lasso"


def test_ec_resetting_upper_loop_nonempty():
    pta = build(clocks=("x",), params=("q",),
                edges=(("l0", "l0", (atom("x", "<=", ("q",)),), ("x",)),),
                bounds=(("q", Interval(0, 1)),))
    verdict = decide.ec_emptiness(pta)
    assert verdict.answer == decide.NONEMPTY
    assert verdict.witness.valuation["q"] == 1
    assert decide.verify_witness(pta, "EC", verdict.witness)


def test_ec_zero_delay_repetition_parameterless():
    pta = build(edges=(("l0", "l0", (atom("x", ">=", constant=1),), ()),))
    assert decide.ec_emptiness(pta).answer == decide.NONEMPTY


def test_ec_preconditions():
    with pytest.raises(NotLUError):
        decide.ec_emptiness(xp_selfloop())
    with pytest.raises(OpenBoundsError):
        decide.ec_emptiness(lu_window())


# ---------------------------------------------------------------------------
# deadlock_region


def test_deadlock_region_without_edges_is_whole_state():
    pta = build()
    s0 = symbolic.initial_state(pta)
    region = decide.deadlock_region(pta, s0)
    assert len(region.disjuncts) == 1
    assert equal(region.disjuncts[0], s0.constraint)


def test_deadlock_region_beyond_upper_guard():
    pta = build(clocks=("x",), params=("q",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", "<=", ("q",)),), ()),))
    s0 = symbolic.initial_state(pta)
    region = decide.deadlock_region(pta, s0)
    expected = poly.make(("x",), ("q",), [poly.lin({"q": 1, "x": -1}, 0, True)])
    assert len(region.disjuncts) == 1
    assert equal(region.disjuncts[0], expected)


def test_deadlock_region_lower_guard_always_firable():
    pta = build(clocks=("x",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", ">=", constant=1),), ()),))
    s0 = symbolic.initial_state(pta)
    assert decide.deadlock_region(pta, s0).empty


# ---------------------------------------------------------------------------
# eg_emptiness


def test_eg_loop_fixture_nonempty_by_deadlock():
    pta = loop_xy(sup=3)
    verdict = decide.eg_emptiness(pta, {"l0"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "t_restricted_deadlock"
    assert decide.verify_witness(pta, "EG", verdict.witness, {"l0"})


def test_eg_lower_guard_empty():
    pta = build(clocks=("x",), params=("pm",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", ">=", ("pm",)),), ()),),
                bounds=(("pm", Interval(0, 2)),))
    assert decide.eg_emptiness(pta, {"l0"}).answer == decide.EMPTY


def test_eg_upper_guard_nonempty_by_overshoot():
    pta = build(clocks=("x",), params=("pp",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", "<=", ("pp",)),), ()),),
                bounds=(("pp", Interval(0, 2)),))
    verdict = decide.eg_emptiness(pta, {"l0"})
    assert verdict.answer == decide.NONEMPTY
    assert decide.verify_witness(pta, "EG", verdict.witness, {"l0"})


def test_eg_lasso_shortcut_at_extreme():
    pta = build(clocks=("x",), params=("q",),
                edges=(("l0", "l0", (atom("x", "<=", ("q",)),), ("x",)),),
                bounds=(("q", Interval(0, 1)),))
    verdict = decide.eg_emptiness(pta, {"l0"})
    assert verdict.answer == decide.NONEMPTY
    assert verdict.method == "lu_extreme_lasso"


def test_eg_step_2_builds_no_successor_outside_the_set(monkeypatch):
    """Step 2 explores restricted to the set: the edge that leaves it is
    dropped before its successor is built, so poly.successor runs once for
    each stored state and each edge from its location into the set.  Only
    calls from a stored state count: initial_state's, from the origin, is
    not one."""
    guard = eq_atoms("x", constant=1) + (atom("y", "<=", ("p",)),)
    pta = build(clocks=("x", "y"), params=("p",), locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l0", guard, ("x",)),
                       ("l0", "l1", (atom("x", ">=", constant=2),), ())),
                bounds=(("p", Interval(0, 3)),))
    successors, explored = [], []

    def counted(*args, original=poly.successor):
        successors.append(args)
        return original(*args)

    def recorded(*args, original=symbolic.explore, **kwargs):
        explored.append(original(*args, **kwargs))
        return explored[-1]

    monkeypatch.setattr(poly, "successor", counted)
    monkeypatch.setattr(symbolic, "explore", recorded)
    verdict = decide.eg_emptiness(pta, {"l0"})
    assert verdict.method == "t_restricted_deadlock"
    [result] = explored
    into = sum(e.source == s.location and e.target == "l0"
               for s in result.states for e in pta.edges)
    from_stored = [args for args in successors
                   if any(args[0] is s.constraint for s in result.states)]
    assert len(result.states) > 1
    assert len(from_stored) == into == len(result.states)


def test_eg_preconditions():
    with pytest.raises(NotLUError):
        decide.eg_emptiness(xp_selfloop(), {"l0"})
    with pytest.raises(OpenBoundsError):
        decide.eg_emptiness(lu_window(), {"l0"})


# ---------------------------------------------------------------------------
# ed_synth_semi


def test_ed_loop_fixture_covers_the_box():
    union, status = decide.ed_synth_semi(loop_xy(sup=3))
    assert status == symbolic.COMPLETE
    for k in range(7):
        assert union.contains({"p": Fraction(k, 2)})


def test_ed_unguarded_self_loop_empty():
    pta = build(edges=(("l0", "l0", (), ()),))
    union, status = decide.ed_synth_semi(pta)
    assert status == symbolic.COMPLETE
    assert union.empty


def test_ed_overshoot_covers_the_box():
    pta = build(clocks=("x",), params=("p",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (atom("x", "<=", ("p",)),), ()),
                       ("l1", "l1", (), ())),
                bounds=(("p", Interval(0, 2)),))
    union, status = decide.ed_synth_semi(pta)
    assert status == symbolic.COMPLETE
    for k in range(5):
        assert union.contains({"p": Fraction(k, 2)})


# ---------------------------------------------------------------------------
# ip_check


def test_ip_reset_pta_confirmed_syntactically():
    out = decide.ip_check(xp_selfloop())
    assert out.kind == decide.CONFIRMED_SYNTACTIC
    assert out.complete


def test_ip_refuted_at_the_open_state():
    out = decide.ip_check(open_unit())
    assert out.kind == decide.REFUTED
    assert out.state.location == "l1"
    assert not poly.has_integer_point(out.state.constraint, {})


def test_ip_closed_lu_confirmed_syntactically():
    assert decide.ip_check(loop_xy(sup=3)).kind == decide.CONFIRMED_SYNTACTIC


def test_ip_syntactic_certificate_holds_without_bounds():
    assert decide.ip_check(lu_window()).kind == decide.CONFIRMED_SYNTACTIC


def test_ip_budgeted_confirmation_completes():
    out = decide.ip_check(edge_xp(sup=2))
    assert out.kind == decide.CONFIRMED_UP_TO_BUDGET
    assert out.complete


def test_ip_box_above_the_cap_fails_before_exploring(monkeypatch):
    def no_exploration(*args, **kwargs):
        raise AssertionError("explored a model whose integer box exceeds the cap")

    monkeypatch.setattr(symbolic, "explore", no_exploration)
    pta = build(clocks=("x",), params=("p", "q"),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", eq_atoms("x", ("p", "q")), ()),),
                bounds=(("p", Interval(0, 999)), ("q", Interval(0, 999))))
    with pytest.raises(UnboundedError, match="1000000 valuations exceeds the budget cap"):
        decide.ip_check(pta)
    with pytest.raises(UnboundedError, match="3 valuations exceeds the budget cap"):
        decide.ip_check(edge_xp(sup=2), symbolic.Budget(max_int_valuations=2))


def test_ip_unbounded_without_certificate():
    pta = build(clocks=("x",), params=("p",),
                locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", eq_atoms("x", ("p",)), ()),))
    with pytest.raises(UnboundedError):
        decide.ip_check(pta)


# ---------------------------------------------------------------------------
# witness checking


def test_verify_witness_dispatch():
    pta = loop_xy(sup=3)
    w = decide.Witness(ParamValuation.of({"p": 1}))
    assert decide.verify_witness(pta, "ED", w)
    assert not decide.verify_witness(pta, "EC", w)
    with pytest.raises(ValueError):
        decide.verify_witness(pta, "AF", w)


def test_ef_witness_path_replays_on_region_graph():
    pta = edge_xp(sup=2)
    verdict = decide.ef_emptiness(pta, {"l1"})
    ta = instantiate(pta, verdict.witness.valuation)
    assert regions.ta_reach(ta, {"l1"})
    assert verdict.witness.path is not None and len(verdict.witness.path) >= 1
