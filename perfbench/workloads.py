"""The three workloads: their inputs, their queries and the checks of the
answers.

A workload hands the runner one round of queries at a time.  Every round
of a run holds the same queries: the seed picks only targets and order, so
a run that times more rounds averages the same work.  A query is a
closure that calls parataur through module attributes (so that the tracer's
wrappers see the call) and returns the answer; its check runs outside the
timed span and returns None when the answer agrees with a computation made
apart from the program under test, or a message saying what is wrong.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import catalogue
import gen
from parataur import cli, decide, mcm, model, poly, regions, symbolic
from parataur.model import ParamValuation, instantiate, serialize
from parataur.symbolic import Budget

EXPLORE_BUDGET = Budget(max_states=catalogue.BUDGET)

# explore_budget explores every EXPLORE_EVERY-th draw of the catalogue: a
# fixed list, because its few divergent draws make most of a run's time and
# memory, so a seeded choice of draws would make both follow the seed.
EXPLORE_EVERY = 3
LU_MODELS = 400

TWO_INC = "q0: inc C1 -> q1\nq1: inc C1 -> q2\nq2: halt\n"
MACHINE_RATES = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
DEADLOCK_DELAYS = tuple(Fraction(k, 7) for k in range(50))


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def grid(pta, den: int = 1) -> list[ParamValuation]:
    """Every valuation of the 1/den grid inside the closed bounds box."""
    names = [p for p, _ in pta.bounds or ()]
    axes = [[Fraction(n, den) for n in range(iv.inf * den, iv.sup * den + 1)]
            for _, iv in pta.bounds or ()]
    return [ParamValuation.of(dict(zip(names, combo)))
            for combo in itertools.product(*axes)]


def reachable_locations(ta) -> set[str]:
    graph = regions.build_region_graph(ta)
    seen, _ = graph.reachable()
    return {graph.nodes[i][0] for i in seen}


# ---------------------------------------------------------------------------
# explore_budget


def check_explore(pta, recorded: str, result, tally=None) -> str | None:
    """Status as recorded; a budget hit stores exactly the budget; and each
    stored state whose parameter projection holds a point of the integer or
    half-integer grid reaches its location on the region graph of the model
    instantiated there (soundness of the symbolic semantics).  States with
    no such point are skipped; ``tally`` counts states checked and skipped."""
    if result.status != recorded:
        return f"status {result.status}, recorded {recorded}"
    if not result.complete and len(result.states) != EXPLORE_BUDGET.max_states:
        return f"budget hit with {len(result.states)} states stored"
    points = grid(pta, 1) + [v for v in grid(pta, 2)
                             if any(x.denominator == 2 for _, x in v.items)]
    reach: dict[ParamValuation, set[str]] = {}
    for index, state in enumerate(result.states):
        proj = poly.project_params(state.constraint)
        v = next((v for v in points if poly.contains(proj, v.as_dict())), None)
        if tally is not None:
            tally["states_skipped" if v is None else "states_checked"] += 1
        if v is None:
            continue
        if v not in reach:
            reach[v] = reachable_locations(instantiate(pta, v))
        if state.location not in reach[v]:
            return f"state {index} at {state.location} unreachable at {v}"
    return None


class ExploreBudget:
    """Every EXPLORE_EVERY-th draw of the catalogue, divergent or not, in an
    order picked by the seed."""

    name = "explore_budget"

    def __init__(self, seed: int):
        self.seed = seed
        self.rows = catalogue.load()["draws"][::EXPLORE_EVERY]
        self.tally = {"states_checked": 0, "states_skipped": 0}

    def round(self) -> list[Query]:
        queries = []
        for k, status, _ in self.rows:
            pta = catalogue.draw(k)
            queries.append(Query(
                f"explore/{k}",
                lambda pta=pta: symbolic.explore(pta, EXPLORE_BUDGET),
                lambda res, pta=pta, st=status: check_explore(pta, st, res,
                                                              self.tally)))
        random.Random(f"{self.name}/{self.seed}").shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# synth_exact


def deadlock_answer(pta):
    result = symbolic.explore(pta)
    return result, [decide.deadlock_region(pta, s) for s in result.states]


def check_deadlock(pta, answer) -> str | None:
    """Criterion 8: a sample of each deadlock piece admits no enabled edge
    at any of 50 delays, and a sample of each removed piece admits one,
    found by the exact delay solver."""
    result, dead_regions = answer
    if not result.complete:
        return "exploration of a completing draw did not complete"
    for state, dead in zip(result.states, dead_regions):
        out = [e for e in pta.edges if e.source == state.location]
        for piece in dead.disjuncts:
            pt = poly.sample_point(piece)
            if pt is None:
                return f"empty deadlock piece at {state.location}"
            for edge in out:
                for d in DEADLOCK_DELAYS:
                    if gen.edge_enabled_at(pta, state.location, edge, pt, d):
                        return f"deadlock sample {pt} fires after {d}"
        for piece in poly.union_difference(state.constraint, dead).disjuncts:
            pt = poly.sample_point(piece)
            if pt is None:
                return f"empty removed piece at {state.location}"
            if gen.firing_delay(pta, state.location, pt) is None:
                return f"removed sample {pt} at {state.location} cannot fire"
    return None


def synth_answer(pta, target: str):
    targets = {target}
    return (symbolic.reach_project(pta, targets), decide.ef_synth_int(pta, targets),
            decide.ef_emptiness(pta, targets))


def check_synth(pta, answer) -> str | None:
    """Criterion 3: the integer points of the projection are exactly the
    integer synthesis; the EF verdict is nonempty exactly when the
    projection is."""
    (union, status), hits, verdict = answer
    if status != symbolic.COMPLETE:
        return f"projection status {status}"
    points = {v for v in grid(pta) if union.contains(v.as_dict())}
    synthesized = set(hits.valuations)
    if points != synthesized:
        return (f"synthesis {sorted(map(str, synthesized))} != projection "
                f"points {sorted(map(str, points))}")
    if verdict.answer not in (decide.EMPTY, decide.NONEMPTY):
        return f"EF verdict {verdict.answer}"
    if (verdict.answer == decide.NONEMPTY) == union.empty:
        return f"EF verdict {verdict.answer} but projection empty={union.empty}"
    return None


class SynthExact:
    """Every completing draw of the catalogue, each with one target location
    picked by the seed, in an order picked by the seed: the same heavy draws
    are in every run, so the tail does not follow the seed."""

    name = "synth_exact"

    def __init__(self, seed: int):
        self.seed = seed
        self.completing = [row[0] for row in catalogue.load()["draws"]
                           if row[1] == symbolic.COMPLETE]

    def round(self) -> list[Query]:
        rng = random.Random(f"{self.name}/{self.seed}")
        queries = []
        for k in self.completing:
            pta = catalogue.draw(k)
            target = rng.choice(pta.locations).name
            queries.append(Query(f"deadlock/{k}",
                                 lambda pta=pta: deadlock_answer(pta),
                                 lambda ans, pta=pta: check_deadlock(pta, ans)))
            queries.append(Query(f"synth/{k}/{target}",
                                 lambda pta=pta, t=target: synth_answer(pta, t),
                                 lambda ans, pta=pta: check_synth(pta, ans)))
        rng.shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# lu_regions


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() or err.getvalue()


class BruteForce:
    """EF, EFU and EC of an L/U model, from the region graphs of its
    integer grid; the grid holds both extreme valuations, so by L/U
    monotonicity these are the exact answers."""

    def __init__(self, pta, target: str):
        self.pta, self.target = pta, target
        self._reach: list[bool] | None = None

    def reach(self) -> list[bool]:
        if self._reach is None:
            self._reach = [self.target in reachable_locations(instantiate(self.pta, v))
                           for v in grid(self.pta)]
        return self._reach

    def expected(self, prop: str) -> bool:
        if prop == "EF":
            return any(self.reach())
        if prop == "EFU":
            return all(self.reach())
        everywhere = [loc.name for loc in self.pta.locations]
        return any(regions.ta_lasso(instantiate(self.pta, v), everywhere)
                   for v in grid(self.pta))


def check_cli(truth: BruteForce, prop: str, answer) -> str | None:
    code, text = answer
    if code != 0:
        return f"exit code {code}: {text.strip()}"
    verdict = json.loads(text)
    expected = decide.NONEMPTY if truth.expected(prop) else decide.EMPTY
    if verdict["answer"] != expected:
        return f"{prop} answered {verdict['answer']}, brute force {expected}"
    return None


def check_machine(rate: Fraction, bound: Fraction, reached) -> str | None:
    if reached != (rate <= bound):
        return f"halt reached={reached} at a={rate}, max counter bound {bound}"
    return None


class LuRegions:
    name = "lu_regions"

    def __init__(self, seed: int, model_dir: str):
        self.seed = seed
        self.model_dir = model_dir
        machine = mcm.parse_machine(TWO_INC)
        self.machine = mcm.compile_to_pta(machine)
        self.halt_bound = Fraction(1, mcm.simulate(machine).max_counter)

    def round(self) -> list[Query]:
        # The models are fixed, so that every run holds the same heavy
        # queries; the seed picks each model's target and the order.
        rng = random.Random(f"{self.name}/{self.seed}")
        queries = []
        for i in range(LU_MODELS):
            pta = gen.random_lu_pta(random.Random(f"{self.name}/models/{i}"))
            path = os.path.join(self.model_dir, f"m{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize(pta))
            target = rng.choice(pta.locations).name
            truth = BruteForce(pta, target)
            for prop in ("EF", "EFU", "EC"):
                argv = ["check", path, "--prop", prop]
                label = f"{prop}/m{i}"
                if prop != "EC":
                    argv += ["--targets", target]
                    label += f"/{target}"
                queries.append(Query(
                    label, lambda argv=argv: run_cli(argv),
                    lambda ans, truth=truth, prop=prop: check_cli(truth, prop, ans)))
        for rate in MACHINE_RATES:
            queries.append(Query(
                f"machine/a={rate}",
                lambda rate=rate: regions.ta_reach(
                    model.instantiate(self.machine, ParamValuation.of({"a": rate})),
                    {mcm.FINAL_LOCATION}),
                lambda ans, rate=rate: check_machine(rate, self.halt_bound, ans)))
        rng.shuffle(queries)
        return queries
