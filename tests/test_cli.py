"""Command line behavior: subcommand outputs, exit codes (0 definite,
2 unknown/budget, 1 error), and the stdin pipeline."""

import json
import subprocess
import sys
import textwrap

import pytest

from parataur import cli, mcm, regions, symbolic
from parataur.model import Interval, serialize
from conftest import build, edge_xp, loop_xy
from parataur.model import atom, eq_atoms

INC_HALT = "q0: inc C1 -> q1\nq1: halt\n"
SPIN = "q0: inc C1 -> q0\n"
TWO_INC = "q0: inc C1 -> q1\nq1: inc C1 -> q2\nq2: halt\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_file(tmp_path, pta, name="model.json"):
    path = tmp_path / name
    path.write_text(serialize(pta))
    return str(path)


def growth_model():
    """Non-L/U model whose exploration never completes."""
    return build(clocks=("x", "y"), params=("p",),
                 locs=(("l0", ()), ("l1", ())),
                 edges=(("l0", "l0", eq_atoms("x", (), 1), ("x",)),
                        ("l0", "l1", (atom("y", "<=", ("p",)),
                                      atom("y", ">=", ("p",), 1)), ())))


def test_classify_json(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", model_file(tmp_path, loop_xy(3)))
    assert code == 0
    doc = json.loads(out)
    assert doc["lu_partition"] == {"lower": [], "upper": ["p"]}
    assert doc["is_closed"] and doc["is_bounded"] and doc["ip_sufficient"]
    assert not doc["is_reset_pta"]


def test_classify_text_format(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", model_file(tmp_path, loop_xy(3)),
                       "--format", "text")
    assert code == 0
    assert "name: loop_xy" in out
    assert "ip_sufficient: True" in out


def test_check_ec_empty_exits_zero(tmp_path, capsys):
    code, out, _ = run(capsys, "check", model_file(tmp_path, loop_xy(3)),
                       "--prop", "EC")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "empty"
    assert doc["method"] == "lu_extreme_lasso"
    assert doc["witness"] is None


def test_check_ef_nonempty_with_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "check", model_file(tmp_path, edge_xp(2)),
                       "--prop", "EF", "--targets", "l1")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "nonempty"
    assert "/" in doc["witness"]["valuation"]["p"] or \
        doc["witness"]["valuation"]["p"].isdigit()
    assert doc["witness"]["path"]


@pytest.mark.parametrize("prop, targets, edge", [
    ("EF", ["--targets", "l1"],
     ("l0", "l1", (atom("x", ">=", constant=1), atom("x", "<=", ("q",))), ())),
    ("EC", [], ("l0", "l0", (atom("x", "<=", ("q",)),), ("x",))),
])
def test_nonempty_lu_verdict_builds_one_region_graph(tmp_path, capsys, monkeypatch,
                                                     prop, targets, edge):
    pta = build(clocks=("x",), params=("q",), locs=(("l0", ()), ("l1", ())),
                edges=(edge,), bounds=(("q", Interval(0, 2)),))
    built = []
    original = regions.build_region_graph

    def counting(ta, *args, **kwargs):
        built.append(ta)
        return original(ta, *args, **kwargs)

    monkeypatch.setattr(regions, "build_region_graph", counting)
    code, out, _ = run(capsys, "check", model_file(tmp_path, pta),
                       "--prop", prop, *targets)
    assert code == 0
    assert json.loads(out)["answer"] == "nonempty"
    assert len(built) == 1


def test_failed_witness_check_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    """The symbolic_semi route proves reachability on the projection, then
    checks its sample on the region graph; that check is made to fail, in
    process and under python -O, which strips assert statements."""
    argv = ["check", model_file(tmp_path, edge_xp(2)), "--prop", "EF",
            "--targets", "l1"]
    project = symbolic.reach_project

    def refuting_project(*args, **kwargs):
        result = project(*args, **kwargs)
        monkeypatch.setattr(regions, "reach_path", lambda ta, targets: None)
        return result

    monkeypatch.setattr(symbolic, "reach_project", refuting_project)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: Internal:") and err.count("\n") == 1

    script = textwrap.dedent(f"""
        import sys
        from parataur import cli, mcm, regions, symbolic
        project = symbolic.reach_project

        def refuting_project(*args, **kwargs):
            result = project(*args, **kwargs)
            regions.reach_path = lambda ta, targets: None
            return result

        symbolic.reach_project = refuting_project
        sys.exit(cli.main({argv!r}))
    """)
    optimized = subprocess.run([sys.executable, "-O", "-c", script],
                               capture_output=True, text=True)
    assert (optimized.returncode, optimized.stdout) == (1, "")
    assert optimized.stderr.startswith("error: Internal:")
    assert optimized.stderr.count("\n") == 1


def test_check_ef_unknown_exits_two(tmp_path, capsys):
    code, out, _ = run(capsys, "check", model_file(tmp_path, growth_model()),
                       "--prop", "EF", "--targets", "l1", "--max-states", "6")
    assert code == 2
    doc = json.loads(out)
    assert doc["answer"] == "unknown"
    assert doc["budget_hit"]


def test_check_ed_reports_disjuncts(tmp_path, capsys):
    code, out, _ = run(capsys, "check", model_file(tmp_path, loop_xy(3)),
                       "--prop", "ED")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "nonempty"
    assert doc["status"] == "complete"
    assert doc["disjuncts"]
    assert doc["witness"]["valuation"]["p"]


def test_check_ip_refuted(tmp_path, capsys):
    pta = build(clocks=("x",),
                locs=(("l0", ()), ("l1", (atom("x", "<", (), 1),))),
                edges=(("l0", "l1", (atom("x", ">", (), 0),), ()),))
    code, out, _ = run(capsys, "check", model_file(tmp_path, pta),
                       "--prop", "IP")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "refuted"
    assert doc["state"]["location"] == "l1"


def test_check_requires_targets(tmp_path, capsys):
    code, _, err = run(capsys, "check", model_file(tmp_path, loop_xy(3)),
                       "--prop", "EF")
    assert code == 1
    assert "error: UnknownIdentifier" in err


def test_check_unknown_target_location(tmp_path, capsys):
    code, _, err = run(capsys, "check", model_file(tmp_path, loop_xy(3)),
                       "--prop", "EF", "--targets", "nowhere")
    assert code == 1
    assert "error: UnknownIdentifier" in err


def test_usage_error_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "check", model_file(tmp_path, loop_xy(3)),
                       "--prop", "BOGUS")
    assert code == 1
    assert "invalid choice" in err


def test_missing_model_file_exits_one(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/model.json")
    assert code == 1
    assert "error:" in err


def test_malformed_model_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert "error: ModelSyntax" in err


def test_synth_int_lists_valuations(tmp_path, capsys):
    code, out, _ = run(capsys, "synth-int", model_file(tmp_path, edge_xp(2)),
                       "--targets", "l1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["valuations"] == [{"p": "0"}, {"p": "1"}, {"p": "2"}]


def test_explore_dump_and_budget_exit(tmp_path, capsys):
    path = model_file(tmp_path, loop_xy(2))
    code, out, _ = run(capsys, "explore", path, "--dump")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "complete"
    assert doc["state_count"] == 3
    assert len(doc["states"]) == 3

    code, out, _ = run(capsys, "explore", model_file(tmp_path, growth_model()),
                       "--max-states", "4")
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


@pytest.mark.parametrize("command, extra, flag, value, least", [
    ("explore", [], "--max-states", "0", 1),
    ("explore", [], "--max-states", "-3", 1),
    ("explore", [], "--max-depth", "-1", 0),
    ("check", ["--prop", "EF", "--targets", "l0"], "--max-states", "0", 1),
    ("synth-int", ["--targets", "l0"], "--max-depth", "-2", 0),
    ("simulate-2cm", [], "--max-steps", "-3", 0),
])
def test_budgets_below_their_least_value_are_usage_errors(
        tmp_path, capsys, command, extra, flag, value, least):
    code, out, err = run(capsys, command, model_file(tmp_path, loop_xy(2)),
                         *extra, flag, value)
    assert (code, out) == (1, "")
    assert err.startswith("usage: parataur ")
    assert err.splitlines()[-1] == (f"parataur {command}: error: argument {flag}: "
                                    f"must be at least {least}, not {value}")
    assert err.count("error") == 1


def test_least_budgets_are_accepted(tmp_path, capsys):
    path = model_file(tmp_path, loop_xy(2))
    code, out, _ = run(capsys, "explore", path, "--max-states", "1")
    assert code == 2
    assert json.loads(out) == {"edge_count": 0, "state_count": 1,
                               "status": "budget_exceeded"}
    code, out, _ = run(capsys, "explore", path, "--max-depth", "0")
    assert code == 2
    assert json.loads(out)["state_count"] == 1
    code, _, err = run(capsys, "explore", path, "--max-states", "two")
    assert code == 1
    assert err.splitlines()[-1].endswith("invalid int value: 'two'")


def test_instantiate_values(tmp_path, capsys):
    code, out, _ = run(capsys, "instantiate", model_file(tmp_path, loop_xy(3)),
                       "--values", "p=1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["scale"] == 2


def test_instantiate_extreme_with_regions(tmp_path, capsys):
    code, out, _ = run(capsys, "instantiate", model_file(tmp_path, loop_xy(3)),
                       "--extreme", "min_lower_max_upper", "--dump-regions")
    assert code == 0
    doc = json.loads(out)
    assert doc["regions"] == {"count": 38, "reachable": 17, "initial": 15}

    machine = mcm.compile_to_pta(mcm.parse_machine(TWO_INC))
    code, out, _ = run(capsys, "instantiate", model_file(tmp_path, machine),
                       "--values", "a=1/2", "--dump-regions")
    assert code == 0
    doc = json.loads(out)
    assert doc["regions"] == {"count": 8520, "reachable": 166, "initial": 107}


def test_instantiate_needs_a_valuation(tmp_path, capsys):
    code, _, err = run(capsys, "instantiate", model_file(tmp_path, loop_xy(3)))
    assert code == 1
    assert "error: UnknownIdentifier" in err


def test_seed_flag_and_env_are_echoed(tmp_path, capsys, monkeypatch):
    path = model_file(tmp_path, loop_xy(3))
    _, out, _ = run(capsys, "classify", path, "--seed", "7")
    assert json.loads(out)["seed"] == 7
    monkeypatch.setenv("PARATAUR_SEED", "11")
    _, out, _ = run(capsys, "classify", path)
    assert json.loads(out)["seed"] == 11


def test_bad_seed_in_environment_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    """In process and under python -O: a usage error, not a traceback."""
    argv = ["classify", model_file(tmp_path, loop_xy(3))]
    monkeypatch.setenv("PARATAUR_SEED", "abc")
    code, out, err = run(capsys, *argv)
    expected = "parataur: error: PARATAUR_SEED: invalid int value: 'abc'"
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == expected
    assert err.count("error") == 1 and "Traceback" not in err

    script = f"import sys\nfrom parataur import cli\nsys.exit(cli.main({argv!r}))\n"
    optimized = subprocess.run([sys.executable, "-O", "-c", script],
                               capture_output=True, text=True)
    assert (optimized.returncode, optimized.stdout) == (1, "")
    assert optimized.stderr.splitlines()[-1] == expected
    assert optimized.stderr.count("error") == 1


def test_simulate_2cm(tmp_path, capsys):
    path = tmp_path / "prog.txt"
    path.write_text(INC_HALT)
    code, out, _ = run(capsys, "simulate-2cm", str(path), "--dump")
    assert code == 0
    doc = json.loads(out)
    assert doc["halted"] and doc["counters"] == [1, 0]
    assert doc["trace"] == ["q0", "q1"]

    path.write_text(SPIN)
    code, out, _ = run(capsys, "simulate-2cm", str(path), "--max-steps", "9")
    assert code == 2
    assert json.loads(out)["budget_hit"]


def test_compile_2cm_emits_a_model(tmp_path, capsys):
    path = tmp_path / "prog.txt"
    path.write_text(INC_HALT)
    code, out, _ = run(capsys, "compile-2cm", str(path), "--name", "inchalt")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "inchalt_closed"
    assert len(doc["locations"]) == 10


def test_stdin_pipeline_compile_then_check():
    compiled = subprocess.run(
        [sys.executable, "-m", "parataur.cli", "compile-2cm", "-"],
        input=INC_HALT, capture_output=True, text=True)
    assert compiled.returncode == 0
    checked = subprocess.run(
        [sys.executable, "-m", "parataur.cli", "check", "-",
         "--prop", "EF", "--targets", "qprime_halt", "--max-states", "60"],
        input=compiled.stdout, capture_output=True, text=True)
    assert checked.returncode == 0, checked.stderr
    doc = json.loads(checked.stdout)
    assert doc["answer"] == "nonempty"
    assert doc["witness"]["valuation"]["a"]
