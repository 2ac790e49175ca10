"""Model layer: JSON parsing and serialization, atom grammar, subclass
classification, instantiation and extreme valuations."""

import json
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from parataur import cli
from parataur.errors import (
    InternalError,
    MalformedBoundsError,
    ModelSyntaxError,
    NotLUError,
    OpenBoundsError,
    UnboundedUniversalityError,
    UnknownIdentifierError,
)
from parataur.model import (
    Interval,
    ParamValuation,
    _scale_guard,
    atom,
    classify,
    eq_atoms,
    extreme_valuation,
    instantiate,
    instantiate_extreme,
    parse_atom,
    parse_model,
    render_atom,
    serialize,
)
from conftest import (
    build,
    edge_xp,
    integer_valuations_of,
    loop_xy,
    open_unit,
    random_bounded_pta,
    random_lu_pta,
    rational_samples_of,
    xp_selfloop,
)

LOOP_JSON = json.dumps({
    "name": "loop_xy",
    "clocks": ["x", "y"],
    "parameters": [{"name": "p", "min": 0, "max": 3}],
    "locations": [{"name": "l0"}],
    "init": "l0",
    "edges": [{"from": "l0", "to": "l0", "action": "sigma",
               "guard": ["x = 1", "y <= p"], "resets": ["x"]}],
})


def test_parse_model_loop_fixture():
    pta = parse_model(LOOP_JSON)
    assert pta.clocks == ("x", "y")
    assert pta.parameters == ("p",)
    assert pta.bounds == (("p", Interval(0, 3)),)
    (edge,) = pta.edges
    assert edge.resets == frozenset({"x"})
    # equality guards expand to a <= / >= pair
    ops = sorted(a.op for a in edge.guard)
    assert ops == ["<=", "<=", ">="]


def test_serialize_roundtrip():
    pta = parse_model(LOOP_JSON)
    again = parse_model(serialize(pta))
    assert again == pta
    assert parse_model(serialize(xp_selfloop())) == xp_selfloop()
    assert parse_model(serialize(open_unit())) == open_unit()


def test_parse_atom_accepts_sums_and_equality():
    (a,) = parse_atom("x <= p + q + 2", ("x",), ("p", "q"))
    assert a.params == frozenset({"p", "q"}) and a.constant == 2
    pair = parse_atom("x = 1", ("x",), ())
    assert {a.op for a in pair} == {"<=", ">="}
    assert render_atom(a) == "x <= p + q + 2"


def test_parse_atom_rejects_bad_input():
    with pytest.raises(ModelSyntaxError):
        parse_atom("2x <= 1", ("x",), ())
    with pytest.raises(ModelSyntaxError):
        parse_atom("x <= 2p", ("x",), ("p",))
    with pytest.raises(ModelSyntaxError):
        parse_atom("x <= p + p", ("x",), ("p",))
    with pytest.raises(UnknownIdentifierError):
        parse_atom("z <= 1", ("x",), ())
    with pytest.raises(UnknownIdentifierError):
        parse_atom("x <= r", ("x",), ("p",))


def test_parse_model_error_paths():
    with pytest.raises(ModelSyntaxError):
        parse_model("not json")
    with pytest.raises(ModelSyntaxError):
        parse_model(json.dumps({"clocks": ["x"]}))
    doc = json.loads(LOOP_JSON)
    doc["parameters"] = [{"name": "p", "min": 0}]
    with pytest.raises(MalformedBoundsError):
        parse_model(json.dumps(doc))
    doc = json.loads(LOOP_JSON)
    doc["init"] = "nowhere"
    with pytest.raises(UnknownIdentifierError):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("key", ["clocks", "parameters", "locations", "edges"])
def test_model_lists_must_be_json_arrays(key, tmp_path, capsys):
    """A string or a number where the model needs a list is one error: line
    naming the key and exit code 1, not a traceback; a string of clocks is
    not split into one clock per character."""
    for value in ("xy", 5):
        doc = json.loads(LOOP_JSON)
        doc[key] = value
        with pytest.raises(ModelSyntaxError, match=key):
            parse_model(json.dumps(doc))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ModelSyntax") and repr(key) in err


@pytest.mark.parametrize("field, value", [
    (("edges",), [1]),
    (("locations", 0, "invariant"), 5),
    (("locations", 0, "invariant"), [5]),
    (("locations", 0, "invariant"), [["x <= 1"]]),
    (("edges", 0, "guard"), 5),
    (("edges", 0, "guard"), [5]),
    (("edges", 0, "guard"), [["x <= 1"]]),
    (("edges", 0, "resets"), 5),
    (("edges", 0, "resets"), [5]),
    (("edges", 0, "resets"), [["x"]]),
    (("edges", 0, "from"), ["l0"]),
    (("locations", 0, "name"), ["l0"]),
    (("init",), ["l0"]),
])
def test_malformed_nested_fields_are_one_error_line(field, value, tmp_path, capsys):
    """A nested field of the wrong JSON type is a ModelSyntax error: one
    error: line and exit code 1, not a traceback."""
    doc = json.loads(LOOP_JSON)
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    with pytest.raises(ModelSyntaxError):
        parse_model(json.dumps(doc))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ModelSyntax")


def test_pta_rejects_names_that_are_not_identifiers():
    """Only identifiers name clocks and parameters, also in a Pta built
    without the parser; poly's internal variables are not identifiers."""
    for clocks, params in ((("x y",), ()), (("x",), ("^d",)),
                           (("x",), ("1p",)), (("",), ())):
        with pytest.raises(ModelSyntaxError):
            build(clocks=clocks, params=params)
    assert build(clocks=("x", "__d"), params=("__eps",)).clocks == ("x", "__d")


def test_interval_membership_and_integers():
    iv = Interval(0, 2, inf_open=True)
    assert list(iv.integers()) == [1, 2]
    assert not iv.closed
    with pytest.raises(MalformedBoundsError):
        Interval(2, 1)
    with pytest.raises(MalformedBoundsError):
        Interval(1, 1, sup_open=True)


# ---------------------------------------------------------------------------
# classification


def test_classify_loop_fixture_is_closed_bounded_lu():
    cls = classify(loop_xy())
    assert cls.lu_partition == (frozenset(), frozenset({"p"}))
    assert cls.is_closed and cls.is_bounded and cls.bounds_all_closed
    assert not cls.is_reset_pta
    assert cls.ip_sufficient


def test_classify_equality_on_parameter_is_not_lu():
    cls = classify(xp_selfloop())
    assert cls.lu_partition is None
    assert cls.is_reset_pta
    assert cls.ip_sufficient


def test_classify_strict_model_not_ip_sufficient():
    cls = classify(open_unit())
    assert not cls.is_closed
    assert cls.lu_partition == (frozenset(), frozenset())
    assert not cls.ip_sufficient


def test_classify_unused_parameter_defaults_to_lower():
    pta = build(clocks=("x",), params=("p", "q"),
                edges=((("l0", "l0", (atom("x", "<=", ("q",)),), ("x",)),)),
                bounds=(("p", Interval(0, 1)), ("q", Interval(0, 1))))
    cls = classify(pta)
    assert cls.lu_partition == (frozenset({"p"}), frozenset({"q"}))


def test_classify_unbounded_parameterless():
    pta = build(edges=(("l0", "l0", (), ("x",)),))
    cls = classify(pta)
    assert cls.is_bounded and cls.bounds_all_closed


def test_classify_open_bounds_flagged():
    pta = build(params=("p",),
                edges=((("l0", "l0", (atom("x", "<=", ("p",)),), ("x",)),)),
                bounds=(("p", Interval(0, 1, sup_open=True)),))
    cls = classify(pta)
    assert cls.is_bounded and not cls.bounds_all_closed


# ---------------------------------------------------------------------------
# instantiation


def test_instantiate_integer_valuation():
    ta = instantiate(edge_xp(), ParamValuation.of({"p": 2}))
    assert ta.scale == 1
    (edge,) = ta.edges
    assert sorted((a.op, a.constant) for a in edge.guard) == [("<=", 2), (">=", 2)]


def test_instantiate_rational_valuation_scales():
    ta = instantiate(edge_xp(), ParamValuation.of({"p": Fraction(1, 2)}))
    assert ta.scale == 2
    (edge,) = ta.edges
    assert sorted((a.op, a.constant) for a in edge.guard) == [("<=", 1), (">=", 1)]


def fraction_instantiation(pta, v):
    """Scale and scaled constants of every guard (invariants, then edges),
    computed in Fractions from the atoms' values."""
    guards = [loc.invariant for loc in pta.locations] + [e.guard for e in pta.edges]
    values = [[Fraction(a.constant) + sum((v[p] for p in a.params), Fraction(0))
               for a in g] for g in guards]
    scale = math.lcm(1, *(x.denominator for vs in values for x in vs))
    return scale, [[x * scale for x in vs] for vs in values]


def test_instantiate_equals_the_fraction_formula():
    rng = random.Random(20261020)
    ptas = [random_bounded_pta(rng) for _ in range(30)]
    ptas += [random_lu_pta(rng) for _ in range(30)]
    # p + q is an integer at p = q = 1/2, and a half at p = 1/3, q = 1/6.
    ptas.append(build(clocks=("x",), params=("p", "q"),
                      locs=(("l0", (atom("x", "<=", ("p", "q"), 1),)),),
                      bounds=(("p", Interval(0, 1)), ("q", Interval(0, 1)))))
    scales = set()
    for pta in ptas:
        valuations = (integer_valuations_of(pta.bounds)
                      + rational_samples_of(pta.bounds or (), 3)
                      + [ParamValuation.of({p: Fraction(1, 2) for p in pta.parameters}),
                         ParamValuation.of(dict(zip(pta.parameters, (
                             Fraction(1, 3), Fraction(1, 6)))))])
        for v in valuations:
            if v.names() != frozenset(pta.parameters):
                continue
            ta = instantiate(pta, v)
            scale, constants = fraction_instantiation(pta, v)
            guards = [loc.invariant for loc in ta.locations] + [e.guard for e in ta.edges]
            assert ta.scale == scale, (pta, v)
            assert [[a.constant for a in g] for g in guards] == constants
            assert all(type(a.constant) is int for g in guards for a in g)
            scales.add(scale)
    assert {1, 2, 3, 4, 6, 7} <= scales


def test_scale_guard_rejects_a_scale_that_leaves_a_fraction():
    """Scale 1 cannot clear the value p = 1/2 of x <= p; the check raises,
    in process and under python -O, which strips assert statements."""
    guard = (atom("x", "<=", ("p",)),)
    with pytest.raises(InternalError):
        _scale_guard(guard, [Fraction(1, 2)], 1)

    script = textwrap.dedent("""
        from fractions import Fraction
        from parataur.errors import InternalError
        from parataur.model import _scale_guard, atom
        try:
            _scale_guard((atom("x", "<=", ("p",)),), [Fraction(1, 2)], 1)
        except InternalError:
            raise SystemExit(3)
    """)
    optimized = subprocess.run([sys.executable, "-O", "-c", script],
                               capture_output=True, text=True)
    assert optimized.returncode == 3, optimized.stderr


def test_instantiate_requires_full_domain():
    with pytest.raises(UnknownIdentifierError):
        instantiate(edge_xp(), ParamValuation.of({}))


def test_extreme_valuation_bounded():
    pta = loop_xy()
    assert extreme_valuation(pta, "min_lower_max_upper") == {"p": Fraction(3)}
    assert extreme_valuation(pta, "max_lower_min_upper") == {"p": Fraction(0)}
    # With finite extremes, decide checks witnesses on the instantiation at
    # the extreme valuation in place of the extreme instantiation.
    for model in [pta] + [random_lu_pta(random.Random(s)) for s in range(30)]:
        for mode in ("min_lower_max_upper", "max_lower_min_upper"):
            v = ParamValuation.of(extreme_valuation(model, mode))
            assert instantiate_extreme(model, mode) == instantiate(model, v)


def test_extreme_valuation_unbounded_upper_is_stripped():
    pta = build(clocks=("x",), params=("q",),
                locs=(("l0", ()), ("l1", ())),
                edges=((("l0", "l1", (atom("x", ">=", constant=1),
                                      atom("x", "<=", ("q",))), ()),)))
    assert extreme_valuation(pta, "min_lower_max_upper") == {"q": None}
    ta = instantiate_extreme(pta, "min_lower_max_upper")
    (edge,) = ta.edges
    assert [(a.op, a.constant) for a in edge.guard] == [(">=", 1)]
    with pytest.raises(UnboundedUniversalityError):
        extreme_valuation(pta, "max_lower_min_upper")


def test_extreme_valuation_rejects_non_lu_and_open_bounds():
    with pytest.raises(NotLUError):
        extreme_valuation(xp_selfloop(), "min_lower_max_upper")
    pta = build(params=("p",),
                edges=((("l0", "l0", (atom("x", "<=", ("p",)),), ("x",)),)),
                bounds=(("p", Interval(0, 1, sup_open=True)),))
    with pytest.raises(OpenBoundsError):
        extreme_valuation(pta, "min_lower_max_upper")


def test_eq_atoms_pair():
    pair = eq_atoms("x", ("p",), 1)
    assert {a.op for a in pair} == {"<=", ">="}
    assert all(a.params == frozenset({"p"}) and a.constant == 1 for a in pair)
