"""Golden tests for the polyhedron layer: intersection, elapse, past,
reset, projection, difference, emptiness, containment, integer points,
and deterministic sampling."""

import math
import random
from fractions import Fraction

import pytest

from parataur import poly, symbolic
from parataur.errors import InternalError, NotAZoneError, UnboundedError
from parataur.model import Interval, atom, eq_atoms
from conftest import equal

X = ("x",)
XY = ("x", "y")
P = ("p",)


def zone(clocks, params, *pieces):
    guard = ()
    for piece in pieces:
        guard = guard + (piece if isinstance(piece, tuple) else (piece,))
    return poly.from_guard(clocks, params, guard)


# ---------------------------------------------------------------------------
# intersect


def test_intersect_overlapping_intervals():
    a = zone(X, (), atom("x", "<=", constant=2))
    b = zone(X, (), atom("x", ">=", constant=1))
    expected = zone(X, (), atom("x", "<=", constant=2),
                    atom("x", ">=", constant=1))
    assert equal(poly.intersect(a, b), expected)


def test_intersect_with_top_is_identity():
    c = zone(XY, P, atom("x", "<=", ("p",)))
    assert equal(poly.intersect(c, poly.make(XY, P, ())), c)


def test_intersect_disjoint_reported_empty():
    c = poly.intersect(zone(X, (), atom("x", "<=", constant=1)),
                       zone(X, (), atom("x", ">=", constant=2)))
    assert poly.is_empty(c)


# ---------------------------------------------------------------------------
# time_elapse


def test_elapse_from_origin_is_diagonal():
    out = poly.time_elapse(poly.origin(XY, ()))
    expected = poly.make(XY, (), [poly.lin({"x": 1, "y": -1}, 0, False),
                                  poly.lin({"x": -1, "y": 1}, 0, False)])
    assert equal(out, expected)


def test_elapse_preserves_differences():
    start = zone(XY, P, eq_atoms("x", ("p",)), eq_atoms("y"))
    expected = poly.make(XY, P, [poly.lin({"x": 1, "y": -1, "p": -1}, 0, False),
                                 poly.lin({"x": -1, "y": 1, "p": 1}, 0, False)])
    assert equal(poly.time_elapse(start), expected)


def test_elapse_drops_upper_bounds():
    out = poly.time_elapse(zone(X, (), atom("x", "<=", constant=1)))
    assert equal(out, poly.make(X, (), ()))


# ---------------------------------------------------------------------------
# time_past


def test_past_of_point_is_interval():
    out = poly.time_past(zone(X, (), eq_atoms("x", constant=1)))
    assert equal(out, zone(X, (), atom("x", "<=", constant=1)))


def test_past_of_origin_is_origin():
    c = poly.origin(XY, ())
    assert equal(poly.time_past(c), c)


def test_past_keeps_differences_clips_at_zero():
    diagonal = [poly.lin({"x": 1, "y": -1, "p": -1}, 0, False),
                poly.lin({"x": -1, "y": 1, "p": 1}, 0, False)]
    start = poly.make(XY, P, diagonal + [poly.lin({"y": -1}, 2, False)])
    assert equal(poly.time_past(start), poly.make(XY, P, diagonal))


# ---------------------------------------------------------------------------
# reset


def test_reset_single_clock():
    start = zone(XY, (), eq_atoms("x", constant=5), eq_atoms("y", constant=3))
    expected = zone(XY, (), eq_atoms("x"), eq_atoms("y", constant=3))
    assert equal(poly.reset(start, ("x",)), expected)


def test_reset_all_clocks_keeps_parameter_constraints():
    start = zone(X, P, atom("x", ">=", constant=1), atom("x", "<=", ("p",)))
    expected = poly.make(X, P, [poly.lin({"x": 1}, 0, False),
                                poly.lin({"x": -1}, 0, False),
                                poly.lin({"p": -1}, 1, False)])
    assert equal(poly.reset(start, X), expected)


def test_reset_eliminates_diagonal():
    start = poly.make(XY, P, [poly.lin({"x": 1, "y": -1, "p": -1}, 0, False)])
    expected = poly.make(XY, P, [poly.lin({"y": 1}, 0, False),
                                 poly.lin({"y": -1}, 0, False)])
    assert equal(poly.reset(start, ("y",)), expected)


# ---------------------------------------------------------------------------
# unreset_invariant


def test_unreset_upper_constant_becomes_true():
    out = poly.unreset_invariant((atom("x", "<=", constant=2),), ("x",), X, ())
    assert equal(out, poly.make(X, (), ()))


def test_unreset_without_resets_is_identity():
    inv = (atom("x", "<=", ("p",)),)
    out = poly.unreset_invariant(inv, (), X, P)
    assert equal(out, zone(X, P, *inv))


def test_unreset_keeps_untouched_atoms():
    inv = (atom("x", "<=", ("p",)), atom("y", "<=", constant=1))
    out = poly.unreset_invariant(inv, ("x",), XY, P)
    expected = poly.make(XY, P, [poly.lin({"y": 1}, -1, False)])
    assert equal(out, expected)


# ---------------------------------------------------------------------------
# project_params


def test_project_params_single_step():
    c = zone(X, P, atom("x", "<=", ("p",)), atom("x", ">=", constant=1))
    out = poly.project_params(c)
    assert out.clocks == ()
    assert equal(out, poly.make((), P, [poly.lin({"p": -1}, 1, False)]))


def test_project_params_ties_parameters():
    c = zone(X, ("p", "q"), eq_atoms("x", ("p",)), eq_atoms("x", ("q",)))
    expected = poly.make((), ("p", "q"),
                         [poly.lin({"p": 1, "q": -1}, 0, False),
                          poly.lin({"p": -1, "q": 1}, 0, False)])
    assert equal(poly.project_params(c), expected)


def test_project_params_empty_in_empty_out():
    c = zone(X, P, atom("x", "<", constant=0))
    assert poly.is_empty(poly.project_params(c))


# ---------------------------------------------------------------------------
# is_empty / contains


def test_empty_by_constants():
    assert poly.is_empty(zone(X, (), atom("x", "<=", constant=1),
                              atom("x", ">=", constant=2)))


def test_empty_by_strictness():
    assert poly.is_empty(zone(X, (), atom("x", "<", constant=1),
                              atom("x", ">=", constant=1)))


def test_open_interval_nonempty():
    assert not poly.is_empty(zone(X, (), atom("x", ">", constant=0),
                                  atom("x", "<", constant=1)))


def test_nonempty_parametric_at_origin():
    assert not poly.is_empty(zone(X, P, atom("x", "<=", ("p",))))


def test_empty_through_parameter_bound():
    c = zone(X, P, atom("x", "<=", ("p",)), atom("x", ">=", constant=3))
    c = poly.intersect(c, poly.make(X, P, [poly.lin({"p": 1}, -2, False)]))
    assert poly.is_empty(c)


def test_emptiness_with_non_unit_coefficients_and_strict_faces():
    def system(*rows):
        return poly.make(XY, (), [poly.lin(dict(zip(XY, coeffs)), constant,
                                           strict)
                                  for coeffs, constant, strict in rows])

    # x >= 3 forces 2x + 3y >= 6, with equality only at (3, 0).
    x_at_least_3 = ((-1, 0), 3, False)
    assert poly.is_empty(system(((2, 3), -6, True), x_at_least_3))
    closed = system(((2, 3), -6, False), x_at_least_3)
    assert not poly.is_empty(closed)
    assert poly.contains(closed, {"x": Fraction(3), "y": Fraction(0)})
    # x >= 2 forces 4x + y >= 8 > 7, e.g. at (2, 0).
    above_7 = system(((-1, 0), 2, False), ((-4, -1), 7, True))
    assert not poly.is_empty(above_7)
    assert poly.contains(above_7, {"x": Fraction(2), "y": Fraction(0)})
    # With y = 0 and x > 3, both 3x - 2y and 3x - y exceed 9 >= 4.
    right_of_3 = system(((-3, 2), 4, False), ((-1, 0), 3, True),
                        ((-3, 1), 4, False))
    assert not poly.is_empty(right_of_3)
    assert poly.contains(right_of_3, {"x": Fraction(4), "y": Fraction(0)})
    # Under 4x + y <= 8 and 3x - 2y >= 0, the maximum of 22x + 33y is 104,
    # attained only at the vertex (16/11, 24/11), where 3x - 2y = 0.
    reach_104 = ((-22, -33), 104, False)
    below_8 = ((4, 1), -8, False)
    assert poly.is_empty(system(reach_104, below_8, ((-3, 2), 0, True)))
    vertex = system(reach_104, below_8, ((-3, 2), 0, False))
    assert not poly.is_empty(vertex)
    assert poly.contains(vertex, {"x": Fraction(16, 11), "y": Fraction(24, 11)})
    # 22x + 33y >= 99 leaves room off that face, e.g. (3/2, 2).
    room = system(((-22, -33), 99, False), below_8, ((-3, 2), 0, True))
    assert not poly.is_empty(room)
    assert poly.contains(room, {"x": Fraction(3, 2), "y": Fraction(2)})


def test_contains_boundary_and_strictness():
    closed = zone(X, P, atom("x", "<=", ("p",)))
    strict = zone(X, P, atom("x", "<", ("p",)))
    at = {"x": Fraction(1), "p": Fraction(1)}
    assert poly.contains(closed, at)
    assert not poly.contains(strict, at)
    empty = zone(X, P, atom("x", "<", constant=0))
    assert not poly.contains(empty, {"x": Fraction(0), "p": Fraction(0)})


# ---------------------------------------------------------------------------
# difference


def test_difference_splits_interval():
    c = zone(X, (), atom("x", "<=", constant=2))
    d = zone(X, (), atom("x", "<=", constant=1))
    out = poly.difference(c, d)
    assert not out.contains({"x": Fraction(1)})
    assert out.contains({"x": Fraction(3, 2)})
    assert out.contains({"x": Fraction(2)})
    assert not out.contains({"x": Fraction(5, 2)})


def test_difference_with_self_is_empty():
    c = zone(X, P, atom("x", "<=", ("p",)))
    assert poly.difference(c, c).empty


def test_difference_carves_middle():
    c = zone(X, (), atom("x", "<=", constant=3))
    d = zone(X, (), atom("x", ">=", constant=1), atom("x", "<=", constant=2))
    out = poly.difference(c, d)
    for value, inside in ((Fraction(1, 2), True), (Fraction(1), False),
                          (Fraction(3, 2), False), (Fraction(2), False),
                          (Fraction(5, 2), True), (Fraction(3), True),
                          (Fraction(7, 2), False)):
        assert out.contains({"x": value}) is inside


# ---------------------------------------------------------------------------
# Matched faces: the subsumer's one pass over a stored state's keyed faces


def quick_inclusion(outer, inner):
    """symbolic.unmatched_faces on outer keyed as a stored state and inner
    keyed through the same ids as a new state: True, False, or the faces
    of outer left unmatched."""
    ids = {}
    keyed = symbolic.key_faces(ids, outer)
    bounds = {vid: (constant, strict)
              for vid, constant, strict, _ in symbolic.key_faces(ids, inner)}
    left = symbolic.unmatched_faces(keyed, bounds)
    return False if left is None else left or True


def test_quick_inclusion_accepts_face_by_face():
    outer = zone(XY, (), atom("x", "<=", constant=3))
    inner = zone(XY, (), atom("x", "<=", constant=2),
                 atom("y", "<=", constant=1))
    assert quick_inclusion(outer, inner) is True
    assert quick_inclusion(outer, outer) is True
    strict_inner = zone(XY, (), atom("x", "<", constant=3),
                        atom("y", "<=", constant=1))
    assert quick_inclusion(outer, strict_inner) is True


def test_quick_inclusion_rejects_on_a_tighter_face():
    outer = zone(X, (), atom("x", "<=", constant=2))
    inner = poly.minimized(zone(X, (), atom("x", "<=", constant=3)))
    assert quick_inclusion(outer, inner) is False
    assert not poly.includes(outer, inner)
    open_outer = zone(X, (), atom("x", "<", constant=2))
    closed = poly.minimized(zone(X, (), atom("x", "<=", constant=2)))
    assert quick_inclusion(open_outer, closed) is False
    assert not poly.includes(open_outer, closed)


def test_quick_inclusion_undecided_without_matched_faces():
    diagonal = poly.lin({"x": 1, "y": 1}, -4, False)
    outer = poly.make(XY, (), [diagonal, poly.lin({"x": 1}, -1, False)])
    inner = zone(XY, (), atom("x", "<=", constant=1),
                 atom("y", "<=", constant=1))
    # x <= 1 is matched and not tighter; only the diagonal is left.
    assert quick_inclusion(outer, inner) == [diagonal]
    assert poly.includes(outer, inner)


# ---------------------------------------------------------------------------
# has_integer_point


def test_open_unit_interval_has_no_integer_point():
    c = zone(X, (), atom("x", ">", constant=0), atom("x", "<", constant=1))
    assert not poly.has_integer_point(c, {})


def test_integer_point_on_diagonal_zone():
    c = zone(X, P, eq_atoms("x", ("p",)))
    assert poly.has_integer_point(c, {"p": Interval(0, 2)})


def test_strict_bounds_tighten_to_inner_integer():
    c = zone(X, (), atom("x", ">", constant=0), atom("x", "<", constant=2))
    assert poly.has_integer_point(c, {})


def test_integer_point_needs_more_than_a_positive_lower_bound():
    # 2x > 2 and 2x < 4 normalize to 1 < x < 2, which holds no integer.
    gap = poly.make(X, (), [poly.lin({"x": -2}, 2, True),
                            poly.lin({"x": 2}, -4, True)])
    assert not poly.has_integer_point(gap, {})
    shifted = zone(X, (), atom("x", ">=", constant=1), atom("x", "<", constant=2))
    assert poly.has_integer_point(shifted, {})
    # 2p >= 3 and 2p <= 5 keep their non-unit coefficient and hold p = 2.
    box = poly.make(X, P, [poly.lin({"p": -2}, 3, False),
                           poly.lin({"p": 2}, -5, False)])
    assert poly.has_integer_point(box, {"p": Interval(0, 3)})


def test_integer_point_rejects_non_zone():
    c = poly.make(XY, (), [poly.lin({"x": 1, "y": 1}, -1, False)])
    with pytest.raises(NotAZoneError):
        poly.has_integer_point(c, {})


def test_integer_point_requires_bounds():
    c = zone(X, P, atom("x", "<=", ("p",)))
    with pytest.raises(UnboundedError):
        poly.has_integer_point(c, {})


def test_a_variable_named___eps_is_not_the_lp_slack():
    """x < 1 and 2 <= __eps <= 3: the strict row's slack is a variable of
    its own, so the system is nonempty and has an integer point."""
    c = poly.make(("x", "__eps"), (), [poly.lin({"x": 1}, -1, True),
                                      poly.lin({"__eps": -1}, 2, False),
                                      poly.lin({"__eps": 1}, -3, False)])
    assert not poly.is_empty(c)
    assert poly.contains(c, poly.sample_point(c))
    assert poly.has_integer_point(c, {})


# ---------------------------------------------------------------------------
# equality, minimization, sampling


def test_operator_idempotence_small():
    c = zone(XY, P, atom("x", "<=", ("p",)), atom("y", ">=", constant=1))
    up = poly.time_elapse(c)
    assert equal(poly.time_elapse(up), up)
    down = poly.time_past(c)
    assert equal(poly.time_past(down), down)
    r = poly.reset(c, ("x",))
    assert equal(poly.reset(r, ("x",)), r)


def test_minimized_drops_redundant_face():
    c = zone(X, (), atom("x", "<=", constant=2), atom("x", "<=", constant=3))
    m = poly.minimized(c)
    assert equal(m, c)
    assert all("-3" not in s for s in m.debug_strings())


def greedy_minimization(ineqs):
    """Minimization with one LP for every row: widest rows first, a row
    dropped when its negation is infeasible with the rows kept so far,
    stopping at one row."""
    if not poly._satisfiable(ineqs):
        return (poly._FALSE,)
    work = list(ineqs)
    order = sorted(ineqs, key=lambda q: (-len(q.coeffs), q.coeffs, q.constant,
                                         q.strict))
    for i in order:
        if len(work) == 1:
            break
        others = [q for q in work if q != i]
        if not poly._satisfiable(tuple(others + [i.negated()])):
            work = others
    return tuple(work)


def row_key(i):
    """The order of rows spelled out: coefficients, constant, strictness."""
    return i.coeffs, i.constant, i.strict


def rows_of(*rows):
    """Rows (coefficients over x, y; constant; strict), sorted."""
    return tuple(sorted((poly.lin(dict(zip(XY, coeffs)), constant, strict)
                         for coeffs, constant, strict in rows),
                        key=row_key))


# Warm-start cases of minimization, each with the rows it keeps.
DEGENERATE = rows_of(((-2, 0), 1, False), ((-1, 0), 1, False),
                     ((-1, -1), 1, False))
OPEN_SQUARE = rows_of(((1, 0), -1, True), ((0, 1), -1, True),
                      ((1, 1), -2, True))
CLOSED_SQUARE = rows_of(((1, 0), -1, False), ((0, 1), -1, False),
                        ((1, 1), -2, True))
WARM_CASES = [
    # x >= 1 implies 2x >= 1 and x + y >= 1.  Phase 1 ends at the
    # degenerate vertex (1, 0), where x + y >= 1 is tight and nonbasic.
    (DEGENERATE, rows_of(((-1, 0), 1, False))),
    # x + y < 2 ties at the corner (1, 1), which x < 1, y < 1 never reach.
    (OPEN_SQUARE, rows_of(((1, 0), -1, True), ((0, 1), -1, True))),
    # x <= 1 and y <= 1 reach the corner, so x + y < 2 stays.
    (CLOSED_SQUARE, CLOSED_SQUARE),
    # Nothing bounds y - x above once y - x <= 1 is lifted.
    (rows_of(((-1, 1), -1, False), ((-1, 0), 1, False)),
     rows_of(((-1, 1), -1, False), ((-1, 0), 1, False))),
    # With y = 0, x + y <= 1 and x <= 1 imply each other: once the first
    # is dropped, the dictionary must lose its bound before x <= 1 is tested.
    (rows_of(((1, 1), -1, False), ((1, 0), -1, False), ((0, 1), 0, False)),
     rows_of(((1, 0), -1, False), ((0, 1), 0, False))),
    # 2x <= 5 follows from x <= 1 and -y <= 0 from nonnegativity.
    (rows_of(((1, 0), -1, False), ((2, 0), -5, False), ((0, -1), 0, False)),
     rows_of(((1, 0), -1, False))),
]


def test_minimization_warm_starts_from_one_dictionary(monkeypatch):
    """Each row is tested on a copy of the closure's dictionary with the
    row's bound lifted; the redundant wide row of DEGENERATE is lifted
    while its slack is nonbasic, which adds a column."""
    lifted = []
    lift = poly._Dictionary.lift

    def recorded(d, k):
        lifted.append(len(d.cols) + k in d.nonbasic)
        lift(d, k)

    monkeypatch.setattr(poly._Dictionary, "lift", recorded)
    for ineqs, kept in WARM_CASES:
        poly._minimized_ineqs.cache_clear()
        lifted.clear()
        assert poly._minimized_ineqs(ineqs) == kept
        assert greedy_minimization(ineqs) == kept
        if ineqs == DEGENERATE:
            assert lifted[0]


def test_an_empty_closure_of_a_nonempty_system_raises(monkeypatch):
    """A strict system is first tested for emptiness, then closed; a closed
    system takes its emptiness from the closure's own phase 1."""
    monkeypatch.setattr(poly, "_ineqs_empty", lambda ineqs: False)
    split = rows_of(((1, 0), -1, False), ((-1, 0), 2, False),
                    ((0, 1), -1, True))
    poly._minimized_ineqs.cache_clear()
    with pytest.raises(InternalError):
        poly._minimized_ineqs(split)
    closed = rows_of(((1, 0), -1, False), ((-1, 0), 2, False),
                     ((0, 1), -1, False))
    assert poly._minimized_ineqs(closed) == (poly._FALSE,)
    outer = poly.make(XY, (), [poly.lin({"x": 1, "y": 1}, -1, False)])
    with pytest.raises(InternalError):
        poly.includes(outer, poly.Polyhedron(XY, (), split))
    poly._minimized_ineqs.cache_clear()


def test_minimization_equals_one_lp_per_row():
    """Rows that nonnegativity implies are dropped without an LP, exactly
    where the LP drops them; -x - p < 0 is not one of them, the origin
    violates it.  The result is the single false row exactly when the
    system is empty."""
    names = ("x", "y", "p")
    special = [poly.lin({"x": -1}, 0, False), poly.lin({"x": -1, "p": -1}, 0, False),
               poly.lin({"x": -1}, -2, True), poly.lin({"x": -1, "p": -1}, 0, True),
               poly.lin({"y": -1, "p": -2}, -1, False)]
    rng = random.Random(20261020)
    systems = [(), (special[3],), tuple(special[:1]), tuple(special[1:3])]
    for _ in range(300):
        rows = rng.sample(special, rng.randint(0, 3))
        for _ in range(rng.randint(0, 4)):
            coeffs = {v: rng.randint(-2, 2) for v in rng.sample(names, 2)}
            rows.append(poly.lin(coeffs, rng.randint(-3, 3), rng.random() < 0.4))
        if rng.random() < 0.5:
            rows += poly._orthant(names)
        systems.append(tuple(sorted(set(rows), key=row_key)))
    systems.append(poly.make(("x", "y"), P, []).ineqs)
    systems.append(poly.make(X, P, [poly.lin({"x": 1}, -1, False)]).ineqs)
    systems += [ineqs for ineqs, _ in WARM_CASES]
    lengths = set()
    for ineqs in systems:
        got = poly._minimized_ineqs(ineqs)
        assert got == greedy_minimization(ineqs), ineqs
        c = poly.Polyhedron(("x", "y"), P, ineqs)
        assert poly.minimized(c).trivially_empty == poly.is_empty(c)
        lengths.add(len(got))
    assert {0, 1, 2} <= lengths
    # -x - p < 0 holds off the origin only, so it stays; -x - 2 < 0 goes.
    kept = poly._minimized_ineqs(tuple(sorted(
        (special[2], special[3], poly.lin({"x": 1}, -3, False)),
        key=row_key)))
    assert special[3] in kept and special[2] not in kept


def random_rows(rng, names, count):
    return [poly.lin({v: rng.randint(-2, 2) for v in names},
                     rng.randint(-3, 3), rng.random() < 0.4)
            for _ in range(count)]


def test_includes_equals_one_lp_per_outer_row():
    """includes against the exact LP of inner and each outer row negated.
    Half the outer rows are sums of two inner rows, loosened by 0 or 1, so
    many are implied and many tie on a strict face."""
    names = ("x", "y", "p")
    rng = random.Random(20261021)
    answers = []
    for _ in range(300):
        inner = poly.make(("x", "y"), P, random_rows(rng, names, rng.randint(1, 4)))
        rows = random_rows(rng, names, rng.randint(0, 2))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(inner.ineqs), rng.choice(inner.ineqs)
            coeffs = dict(a.coeffs)
            for v, c in b.coeffs:
                coeffs[v] = coeffs.get(v, 0) + c
            rows.append(poly.lin(coeffs, a.constant + b.constant
                                 - rng.randint(0, 1), rng.random() < 0.5))
        outer = poly.make(("x", "y"), P, rows)
        want = not poly._satisfiable(inner.ineqs) or all(
            not poly._satisfiable(inner.ineqs + (o.negated(),))
            for o in outer.ineqs)
        assert poly.includes(outer, inner) == want, (outer, inner)
        answers.append(want)
    assert 50 < sum(answers) < 250


def test_sample_point_is_none_exactly_when_empty():
    """Emptiness read from the first projection, on seeded systems with
    strict faces, empty ones among them; a point is always one of c."""
    names = ("x", "y", "p")
    rng = random.Random(20261022)
    empty = 0
    for _ in range(300):
        c = poly.make(("x", "y"), P, random_rows(rng, names, rng.randint(1, 5)))
        point = poly.sample_point(c)
        assert (point is None) == poly.is_empty(c), c
        if point is None:
            empty += 1
        else:
            assert poly.contains(c, point)
    assert 30 < empty < 270
    assert poly.sample_point(poly.make((), (), [poly.lin({}, 0, True)])) is None
    assert poly.sample_point(poly.make((), (), [])) == {}


def quadratic_sample_point(c):
    """The earlier sample_point, kept as an oracle: for each coordinate it
    eliminates every later variable again, reads the interval in Fractions,
    and substitutes the value into the rows.  Returns the point (or None)
    and the rules that chose its coordinates."""
    work = list(poly.make(c.clocks, c.params, c.ineqs).ineqs)
    if any(i.trivially_false for i in work):
        return None, set()
    point, rules = {}, set()
    for k, v in enumerate(c.vars):
        narrowed = work
        for other in c.vars[k + 1:]:
            narrowed = poly._eliminate(narrowed, other)
        lo, hi = (Fraction(0), False), None
        for i in narrowed:
            a = i.coeff(v)
            if a == 0:
                continue
            value = Fraction(-i.constant, a)
            if a > 0:
                if hi is None or value < hi[0] or (value == hi[0] and i.strict):
                    hi = (value, i.strict)
            elif value > lo[0] or (value == lo[0] and i.strict):
                lo = (value, i.strict)
        if k == 0 and (any(i.trivially_false for i in narrowed) or (
                hi is not None and (hi[0] < lo[0] or (
                    hi[0] == lo[0] and (hi[1] or lo[1]))))):
            return None, set()
        if hi is None:
            value, rule = lo[0] + 1, "unbounded"
        elif lo[0] == hi[0]:
            value, rule = lo[0], "point"
        else:
            value, rule = (lo[0] + hi[0]) / 2, "midpoint"
        point[v] = value
        rules.add(rule)
        fixed = []
        for i in work:
            a = i.coeff(v)
            if a:
                const = i.constant + a * value
                i = poly.lin({n: cf * const.denominator for n, cf in i.coeffs
                              if n != v}, const.numerator, i.strict)
            if not i.trivially_true:
                fixed.append(i)
        work = fixed
    return point, rules


def test_sample_point_equals_the_quadratic_oracle(monkeypatch):
    """Equal points, or both None, on seeded systems over 0 to 4 variables
    with strict faces, coefficients up to 3, equalities and empty systems;
    the coordinates take every rule (unbounded, one point, midpoint).
    sample_point eliminates n - 1 times and solves no LP."""
    universes = [((), ()), (X, ()), ((), P), (X, P), (XY, P), (("x", "y", "z"), P)]
    rng = random.Random(20261023)
    eliminations = []

    def counted(ineqs, var, original=poly._eliminate):
        eliminations.append(var)
        return original(ineqs, var)

    def no_lp(*args):
        raise AssertionError("sample_point solved an LP")

    rules, empty, strict = set(), 0, 0
    for _ in range(600):
        clocks, params = rng.choice(universes)
        names = clocks + params
        rows = []
        for _ in range(rng.randint(0, 5)):
            used = rng.sample(names, rng.randint(0, min(3, len(names))))
            rows.append(poly.lin({v: rng.randint(-3, 3) for v in used},
                                 rng.randint(-4, 4), rng.random() < 0.4))
        if rows and rng.random() < 0.3:
            row = rng.choice(rows)
            rows += [poly.lin(dict(row.coeffs), row.constant, False),
                     poly.lin({v: -cf for v, cf in row.coeffs}, -row.constant,
                              False)]
        c = poly.make(clocks, params, rows)
        want, used_rules = quadratic_sample_point(c)
        eliminations.clear()
        with monkeypatch.context() as m:
            m.setattr(poly, "_eliminate", counted)
            m.setattr(poly, "_feasible", no_lp)
            m.setattr(poly, "_satisfiable", no_lp)
            got = poly.sample_point(c)
        assert got == want, c
        if got is not None:
            assert list(got) == list(c.vars)
            assert all(type(x) is Fraction for x in got.values())
            assert len(eliminations) == max(len(c.vars) - 1, 0), c
        rules |= used_rules
        empty += got is None
        strict += any(i.strict for i in c.ineqs)
    assert rules == {"unbounded", "point", "midpoint"}
    assert 50 < empty < 550 and strict > 100


def test_zone_shape_accepts_guards_flags_sums():
    ok = zone(XY, P, atom("x", "<=", ("p",)), eq_atoms("y", constant=1))
    assert poly.zone_violation(ok) is None
    bad = poly.make(XY, (), [poly.lin({"x": 1, "y": 1}, -1, False)])
    assert poly.zone_violation(bad) is not None


def test_sample_point_midpoint():
    c = zone(X, (), atom("x", ">=", constant=1), atom("x", "<=", constant=2))
    assert poly.sample_point(c) == {"x": Fraction(3, 2)}


def test_sample_point_open_and_unbounded_intervals():
    above = poly.sample_point(zone(X, (), atom("x", ">", constant=1)))
    assert above["x"] > 1
    open_box = zone(XY, (), atom("x", "<", constant=1),
                    atom("y", ">", constant=0), atom("y", "<", constant=1))
    point = poly.sample_point(open_box)
    assert point["x"] < 1 and 0 < point["y"] < 1


def test_sample_point_is_exact_on_non_unit_rows():
    # 2x <= 3 and 3x > 1 put x midway in (1/3, 3/2]; then 2x - 3p < 0
    # leaves p > 11/18, unbounded above.
    c = poly.make(X, P, [poly.lin({"x": 2}, -3, False),
                         poly.lin({"x": -3}, 1, True),
                         poly.lin({"x": 2, "p": -3}, 0, True)])
    point = poly.sample_point(c)
    assert point == {"x": Fraction(11, 12), "p": Fraction(29, 18)}
    assert all(type(v) is Fraction for v in point.values())


def test_lin_keeps_integer_rows_of_content_one():
    row = poly.lin({"x": 4, "y": -6}, 2, True)
    assert (row.coeffs, row.constant) == ((("x", 2), ("y", -3)), 1)
    assert all(type(c) is int for _, c in row.coeffs)
    assert type(row.constant) is int
    with pytest.raises(TypeError):
        poly.lin({"x": 1}, Fraction(1, 2), False)


def test_sample_point_of_empty_is_none():
    assert poly.sample_point(zone(X, (), atom("x", "<", constant=0))) is None


def test_make_keeps_the_tightest_row_per_vector_in_sort_order():
    """One row per coefficient vector, the tightest, in row_key order; a
    row without coefficients stays only when it is false."""
    rows = [poly.lin({"x": 1}, -2, False), poly.lin({"x": 1}, -1, True),
            poly.lin({"x": 1}, -1, False), poly.lin({}, -1, False),
            poly.lin({"x": 1, "y": -1}, 0, False), poly.lin({"y": -1}, 1, True),
            poly.lin({}, 0, True)]
    assert poly.make(XY, (), rows).ineqs == (
        poly.lin({}, 0, True), poly.lin({"x": -1}, 0, False),
        poly.lin({"x": 1}, -1, True), poly.lin({"x": 1, "y": -1}, 0, False),
        poly.lin({"y": -1}, 1, True))
    assert poly.make(X, (), rows[3:4]).ineqs == (poly.lin({"x": -1}, 0, False),)
    rng = random.Random(20261024)
    for _ in range(200):
        got = poly.make(XY, P, random_rows(rng, ("x", "y", "p"), 6)).ineqs
        assert got == tuple(sorted(got, key=row_key))
        assert len({i.coeffs for i in got}) == len(got)


# Names on both sides of the elapse variable "^d" in name order.
ROW_NAMES = ("A", "p", "x", "y", "Z")


def random_coeff_dict(rng, scale):
    return {v: scale * rng.randint(-3, 3)
            for v in rng.sample(ROW_NAMES, rng.randint(0, len(ROW_NAMES)))}


def test_lin_builds_the_normal_form():
    """Nonzero coefficients in strictly ascending name order, content 1,
    and the same inequality; a constant-only row keeps its sign."""
    rng = random.Random(20261020)
    for _ in range(500):
        scale = rng.randint(1, 4)
        coeffs = random_coeff_dict(rng, scale)
        constant = scale * rng.randint(-4, 4)
        row = poly.lin(coeffs, constant, rng.random() < 0.5)
        names = [n for n, _ in row.coeffs]
        assert all(a < b for a, b in zip(names, names[1:]))
        assert all(c != 0 for _, c in row.coeffs)
        nonzero = {n: c for n, c in coeffs.items() if c}
        if nonzero:
            g = math.gcd(constant, *nonzero.values())
            assert math.gcd(row.constant, *(c for _, c in row.coeffs)) == 1
            assert dict(row.coeffs) == {n: c // g for n, c in nonzero.items()}
            assert row.constant == constant // g
        else:
            assert row.constant == (constant > 0) - (constant < 0)
        assert poly.lin(dict(row.coeffs), row.constant, row.strict) == row


@pytest.mark.parametrize("shift", [poly.time_elapse, poly.time_past])
def test_shift_builds_the_rows_lin_would(monkeypatch, shift):
    """The rows _shift hands to elimination are lin of each row's dict with
    the elapse coefficient added, or the row itself when that is 0."""
    seen = []
    eliminate = poly._eliminate

    def recording(ineqs, var):
        if var == poly._ELAPSE_VAR:
            seen.append(list(ineqs))
        return eliminate(ineqs, var)

    monkeypatch.setattr(poly, "_eliminate", recording)
    direction = -1 if shift is poly.time_elapse else 1
    clocks, params = ("A", "x", "y"), ("Z", "p")
    rng = random.Random(20261021)
    for _ in range(100):
        rows = [poly.lin(random_coeff_dict(rng, 1), rng.randint(-3, 3),
                         rng.random() < 0.4) for _ in range(rng.randint(0, 5))]
        c = poly.make(clocks, params, rows)
        seen.clear()
        shift(c)
        expected = []
        for i in c.ineqs:
            cd = direction * sum(cf for n, cf in i.coeffs if n in clocks)
            expected.append(i if cd == 0 else poly.lin(
                {**dict(i.coeffs), poly._ELAPSE_VAR: cd}, i.constant, i.strict))
        expected.append(poly.lin({poly._ELAPSE_VAR: -1}, 0, False))
        assert seen == [expected]


def reference_prune(rows):
    """The tightest row of each coefficient vector, trivially true rows
    left out, sorted by row_key."""
    groups = {}
    for i in rows:
        if not i.trivially_true:
            groups.setdefault(i.coeffs, []).append(i)
    tightest = [max(g, key=lambda i: (i.constant, i.strict))
                for g in groups.values()]
    return tuple(sorted(tightest, key=row_key))


def test_dominance_prune_and_row_order_match_their_references():
    """Few vectors and constants, so vectors and whole rows repeat."""
    rng = random.Random(20261022)
    vectors = [{}] + [random_coeff_dict(rng, 1) for _ in range(5)]
    for _ in range(300):
        rows = [poly.lin(rng.choice(vectors), rng.randint(-2, 2),
                         rng.random() < 0.5) for _ in range(rng.randint(0, 12))]
        assert poly._dominance_prune(rows) == reference_prune(rows)
        assert sorted(rows) == sorted(rows, key=row_key)


def test_a_sample_point_outside_its_polyhedron_raises(monkeypatch):
    """With projections that lose every row, x is read as 1, and y <= x - 2
    leaves y no value: the certificate catches the point."""
    monkeypatch.setattr(poly, "_eliminate", lambda ineqs, var: [])
    c = poly.make(XY, (), [poly.lin({"x": -1, "y": 1}, 2, False)])
    with pytest.raises(InternalError):
        poly.sample_point(c)


def test_debug_strings_sorted_and_stable():
    c = zone(X, P, atom("x", "<=", ("p",)), atom("x", ">=", constant=1))
    assert c.debug_strings() == tuple(sorted(c.debug_strings()))
    assert c.debug_strings() == zone(X, P, atom("x", ">=", constant=1),
                                     atom("x", "<=", ("p",))).debug_strings()
