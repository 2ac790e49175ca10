"""Each answer check of the benchmark reports a planted wrong answer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  Every test takes
a true answer of the program, confirms that its check accepts it, then
plants one mistake and confirms that the check reports it.
"""

import dataclasses
from collections import Counter
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from gen import build  # noqa: E402
from parataur import decide, poly, symbolic  # noqa: E402
from parataur.model import Interval, atom, serialize  # noqa: E402

# l0 reaches l1 through x <= p; nothing enters l2, and l1 has no way out.
WINDOW = build(clocks=("x",), params=("p",),
               locs=(("l0", ()), ("l1", ()), ("l2", ())),
               edges=(("l0", "l1", (atom("x", "<=", ("p",)),), ()),),
               bounds=(("p", Interval(0, 2)),))

# An L/U model whose target is reachable for some valuations only.
LU = build(clocks=("x",), params=("pu",),
           locs=(("l0", ()), ("l1", ())),
           edges=(("l0", "l1", (atom("x", ">=", (), 2),
                                atom("x", "<=", ("pu",))), ()),),
           bounds=(("pu", Interval(0, 3)),))


def _state_at(result, location):
    return next(i for i, s in enumerate(result.states) if s.location == location)


def test_explore_check_reports_a_state_moved_to_an_unreachable_location():
    result = symbolic.explore(WINDOW, workloads.EXPLORE_BUDGET)
    tally = Counter()
    assert workloads.check_explore(WINDOW, symbolic.COMPLETE, result, tally) is None
    assert tally == {"states_checked": len(result.states)}
    states = list(result.states)
    i = _state_at(result, "l1")
    states[i] = dataclasses.replace(states[i], location="l2")
    planted = dataclasses.replace(result, states=states)
    assert "unreachable" in workloads.check_explore(WINDOW, symbolic.COMPLETE, planted)


def test_explore_check_reports_a_wrong_status_and_a_short_budget_hit():
    result = symbolic.explore(WINDOW, workloads.EXPLORE_BUDGET)
    assert workloads.check_explore(WINDOW, symbolic.BUDGET_EXCEEDED, result)
    short = dataclasses.replace(result, status=symbolic.BUDGET_EXCEEDED)
    message = workloads.check_explore(WINDOW, symbolic.BUDGET_EXCEEDED, short)
    assert "states stored" in message


def test_synth_check_reports_a_dropped_valuation_and_a_flipped_verdict():
    answer = workloads.synth_answer(WINDOW, "l1")
    assert workloads.check_synth(WINDOW, answer) is None
    projection, hits, verdict = answer
    assert len(hits.valuations) == 3
    dropped = decide.IntValuationSet(hits.valuations[1:])
    assert "synthesis" in workloads.check_synth(WINDOW, (projection, dropped, verdict))
    flipped = dataclasses.replace(verdict, answer=decide.EMPTY)
    assert "EF verdict" in workloads.check_synth(WINDOW, (projection, hits, flipped))


def test_deadlock_check_reports_regions_that_claim_too_much_or_too_little():
    result, dead = workloads.deadlock_answer(WINDOW)
    assert workloads.check_deadlock(WINDOW, (result, dead)) is None
    everything = [poly.union_of([s.constraint]) for s in result.states]
    assert "fires" in workloads.check_deadlock(WINDOW, (result, everything))
    nothing = [poly.union_of([]) for _ in result.states]
    assert "cannot fire" in workloads.check_deadlock(WINDOW, (result, nothing))


def test_cli_check_reports_a_flipped_verdict_and_an_error_exit(tmp_path):
    path = tmp_path / "lu.json"
    path.write_text(serialize(LU))
    truth = workloads.BruteForce(LU, "l1")
    assert truth.expected("EF") and not truth.expected("EFU")
    assert not truth.expected("EC")
    for prop in ("EF", "EFU"):
        answer = workloads.run_cli(["check", str(path), "--prop", prop,
                                    "--targets", "l1"])
        assert workloads.check_cli(truth, prop, answer) is None
    answer = workloads.run_cli(["check", str(path), "--prop", "EC"])
    assert workloads.check_cli(truth, "EC", answer) is None
    right = (0, '{"answer": "nonempty"}')
    assert "brute force" in workloads.check_cli(truth, "EF", (0, '{"answer": "empty"}'))
    assert "brute force" in workloads.check_cli(truth, "EFU", right)
    assert "brute force" in workloads.check_cli(truth, "EC", right)
    assert "exit code" in workloads.check_cli(truth, "EF", (1, "error: boom"))


def test_machine_check_reports_a_flipped_reachability():
    bound = Fraction(1, 2)
    assert workloads.check_machine(Fraction(1, 4), bound, True) is None
    assert workloads.check_machine(Fraction(1), bound, False) is None
    assert workloads.check_machine(Fraction(1, 4), bound, False)
    assert workloads.check_machine(Fraction(1), bound, True)


def test_tracer_counts_calls_through_every_binding_and_uninstalls():
    import tracing
    original = symbolic.explore
    tracer = tracing.Tracer()
    tracer.install("parataur")
    try:
        tracer.current_query = 0
        workloads.synth_answer(WINDOW, "l1")
    finally:
        tracer.uninstall()
    assert symbolic.explore is original
    metrics = tracing.layer_metrics(tracer.summary({0: 1.0}))
    # ef_synth_int instantiates through decide's binding, one graph per
    # integer valuation; reach_project explores through symbolic's own.
    assert metrics["model.instantiate.calls"] >= 3
    assert metrics["regions.graphs_built"] >= 3
    assert metrics["symbolic.states_stored"] == 2
    assert metrics["poly.self_s"] > 0
