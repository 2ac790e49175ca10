"""Inclusion subsumption in exploration: integer probes and ray points
refute inclusion, and only the exact LP of poly.includes answers that a
stored state includes a new one."""

import random
import subprocess
import sys
import textwrap
from collections import deque
from fractions import Fraction

import pytest

from parataur import cli, poly, symbolic
from parataur.errors import EmptyInitialError, InternalError
from parataur.model import atom, serialize
from parataur.symbolic import Budget
from conftest import build, random_bounded_pta

XY = ("x", "y")
P = ("p",)
SEED = 20261019
# random_bounded_pta(random.Random(30)) is divergent: it stores 150 states
# under Budget(max_states=150), and many of its new states are tested
# against stored ones that do not include them.
DIVERGENT = 30


def as_point(probe):
    den, num = probe
    return {v: Fraction(n, den) for v, n in num.items()}


def with_orthant(c):
    """c with its nonnegativity rows, which minimization drops."""
    return poly.make(c.clocks, c.params, c.ineqs)


def unmatched_faces(outer, inner):
    normals = {i.coeffs for i in inner.ineqs}
    return [o for o in outer.ineqs if o.coeffs not in normals]


def matched_faces_decide(outer, inner):
    """inner <= outer by faces with equal coefficient vectors alone: False
    when such a face of outer is tighter (sound for a minimized nonempty
    inner), True when every face of outer is matched and none is tighter,
    else None.  Written apart from symbolic.unmatched_faces, as its oracle."""
    decided = True
    for o in outer.ineqs:
        same = [i for i in inner.ineqs if i.coeffs == o.coeffs]
        if not same:
            decided = False
        elif o.constant > same[0].constant or (
                o.constant == same[0].constant and o.strict
                and not same[0].strict):
            return False
    return True if decided else None


# ---------------------------------------------------------------------------
# Integer probes


def random_point(rng, names):
    return {v: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 7)))
            for v in names}


def random_row(rng, names, point):
    coeffs = {v: rng.randint(-3, 3) for v in names}
    strict = rng.random() < 0.5
    if rng.random() < 0.4:
        # A face through the point: its value there is exactly 0.
        value = sum(c * point[v] for v, c in coeffs.items())
        return poly.lin({v: c * value.denominator for v, c in coeffs.items()},
                        -value.numerator, strict)
    return poly.lin(coeffs, rng.randint(-6, 6), strict)


def test_probe_of_scales_to_one_common_denominator():
    point = {"x": Fraction(1, 2), "y": Fraction(2, 3), "p": Fraction(5)}
    assert poly.probe_of(point) == (6, {"x": 3, "y": 4, "p": 30})
    assert poly.probe_of({}) == (1, {})


def test_integer_face_test_agrees_with_contains():
    rng = random.Random(SEED)
    names = XY + P
    ties = 0
    held = set()
    for _ in range(600):
        point = random_point(rng, names)
        probe = poly.probe_of(point)
        assert as_point(probe) == point
        rows = [random_row(rng, names, point) for _ in range(rng.randint(1, 4))]
        for row in rows:
            value = row.constant + sum(c * point[v] for v, c in row.coeffs)
            ties += value == 0 and bool(row.coeffs)
            assert poly.probe_holds([row], probe) == row.evaluate(point), row
        c = poly.make(XY, P, rows)
        inside = poly.contains(c, point)
        assert poly.probe_holds(c.ineqs, probe) == inside
        held.add(inside)
    assert held == {True, False}
    assert ties > 100


# ---------------------------------------------------------------------------
# Ray points


def test_ray_along_the_normal_stops_near_the_first_inner_face():
    box = poly.make(XY, (), [poly.lin({"x": 1}, -2, False),
                             poly.lin({"y": 1}, -2, False)])
    outer = poly.make(XY, (), [poly.lin({"y": 1, "x": -1}, 0, False)])
    probe = poly.probe_of(poly.sample_point(box))
    assert probe == (1, {"x": 1, "y": 1})
    # Along the normal (-1, 1) over (x, y), the ray leaves y <= x at once
    # (l0 = 0), and y <= 2 and x >= 0 stop it at l = 1.  The point at
    # l = (0 + 1023*1) / 1024 is x = 1 - 1023/1024, y = 1 + 1023/1024.
    point = poly.escape_point(outer, box, outer.ineqs, probe)
    assert point == (1024, {"x": 1, "y": 2047})


def test_unbounded_ray_steps_one_past_the_face():
    strip = poly.make(XY, (), [poly.lin({"y": 1}, -1, False)])
    outer = poly.make(XY, (), [poly.lin({"x": 1}, -2, False)])
    probe = poly.probe_of(poly.sample_point(strip))
    assert probe == (2, {"x": 2, "y": 1})
    point = poly.escape_point(outer, strip, outer.ineqs, probe)
    assert point == (2, {"x": 6, "y": 1})


def test_a_stopped_ray_bends_along_the_row_that_stopped_it():
    inner = poly.minimized(poly.make(XY, P, [
        poly.lin({"y": 1, "x": -1}, 0, True),
        poly.lin({"x": 1, "y": -1, "p": -2}, -6, False),
        poly.lin({"p": 1}, -3, False)]))
    outer = poly.minimized(poly.make(XY, P, [
        poly.lin({"x": 1, "y": -1, "p": -1}, -3, False),
        poly.lin({"y": 1, "x": -1}, 0, True),
        poly.lin({"p": 1}, -3, False)]))
    probe = poly.probe_of(poly.sample_point(inner))
    assert probe == (2, {"x": 2, "y": 1, "p": 3})
    faces = unmatched_faces(outer, inner)
    assert [f.coeffs for f in faces] == [(("p", -1), ("x", 1), ("y", -1))]
    # Along the normal (-1, 1, -1) over (p, x, y), y reaches 0 at l = 1/2,
    # before the face at l = 4/3.  Bent along y >= 0, the ray (-1, 1, 0)
    # reaches p = 0 at l = 3/2, before the face at l = 2.  Bent along
    # p >= 0, the ray (0, 1, 0) crosses the face at l = 4 and the inner face
    # x - y - 2p <= 6 at l = 17/2.  The point at l = (4 + 1023*17/2) / 1024
    # = 17399/2048 has x = 1 + 17399/2048 = 19447/2048.
    point = poly.escape_point(outer, inner, faces, probe)
    assert point == (2048, {"x": 19447, "y": 1024, "p": 3072})
    assert not poly.includes(outer, inner)


def test_a_ray_stopped_by_an_inner_face_bends_along_it():
    # From a one-location L/U model: the stored state has y - x <= pu, the
    # new one y - x <= 2pu.
    inner = poly.minimized(poly.make(XY, ("pu",), [
        poly.lin({"y": 1, "pu": -1}, -2, True),
        poly.lin({"y": 1, "x": -1, "pu": -2}, 0, False),
        poly.lin({"x": 1, "y": -1}, 0, False),
        poly.lin({"pu": 1}, -3, False)]))
    outer = poly.minimized(poly.make(XY, ("pu",), [
        poly.lin({"y": 1, "x": -1, "pu": -1}, 0, False),
        poly.lin({"y": 1, "pu": -1}, -2, True),
        poly.lin({"x": 1, "y": -1}, 0, False),
        poly.lin({"pu": 1}, -3, False)]))
    probe = poly.probe_of(poly.sample_point(inner))
    assert probe == (8, {"x": 20, "y": 30, "pu": 19})
    faces = unmatched_faces(outer, inner)
    # Along the normal (-1, -1, 1) over (pu, x, y), y < pu + 2 stops the ray
    # at l = 5/16, before the outer face at l = 3/8.  Bent along y < pu + 2,
    # the ray (0, -1, 0) crosses the outer face at l = 9/8 and x >= 0 at
    # l = 5/2.  The point at l = (9/8 + 1023*5/2) / 1024 = 20469/8192 has
    # x = 5/2 - 20469/8192 = 11/8192.
    point = poly.escape_point(outer, inner, faces, probe)
    assert point == (8192, {"x": 11, "y": 30720, "pu": 19456})
    assert not poly.includes(outer, inner)


def exploration_pairs(seeds):
    """(outer, inner) pairs of stored states at one location that matched
    faces leave undecided, from explorations of seeded draws."""
    for seed in seeds:
        result = symbolic.explore(random_bounded_pta(random.Random(seed)),
                                  Budget(max_states=40))
        for i, a in enumerate(result.states):
            for b in result.states[i + 1:]:
                if a.location != b.location:
                    continue
                for outer, inner in ((a.constraint, b.constraint),
                                     (b.constraint, a.constraint)):
                    if matched_faces_decide(outer, inner) is None:
                        yield outer, inner


def test_ray_points_lie_in_inner_and_outside_outer():
    found = included = 0
    for outer, inner in exploration_pairs([DIVERGENT, 38, 99] + list(range(8))):
        probe = poly.probe_of(poly.sample_point(inner))
        assert poly.contains(with_orthant(inner), as_point(probe))
        holds = poly.includes(outer, inner)
        included += holds
        if not poly.probe_holds(outer.ineqs, probe):
            continue
        for face in unmatched_faces(outer, inner):
            point = poly.escape_point(outer, inner, [face], probe)
            if point is None:
                continue
            found += 1
            assert not holds
            assert poly.contains(with_orthant(inner), as_point(point))
            assert not poly.contains(outer, as_point(point))
    assert found > 300 and included > 500


def test_a_ray_point_that_does_not_escape_raises(monkeypatch):
    monkeypatch.setattr(poly, "_ray_point",
                        lambda face, direction, rows, probe: (probe, None))
    with pytest.raises(InternalError):
        symbolic.explore(random_bounded_pta(random.Random(DIVERGENT)),
                         Budget(max_states=150))


def test_failed_ray_certification_exits_one_with_one_line(tmp_path, capsys,
                                                          monkeypatch):
    """Under python -O too, which strips assert statements."""
    path = tmp_path / "model.json"
    path.write_text(serialize(random_bounded_pta(random.Random(DIVERGENT))))
    argv = ["explore", str(path)]
    monkeypatch.setattr(poly, "_ray_point",
                        lambda face, direction, rows, probe: (probe, None))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: Internal:") and err.count("\n") == 1

    script = textwrap.dedent(f"""
        import sys
        from parataur import cli, poly
        poly._ray_point = lambda face, direction, rows, probe: (probe, None)
        sys.exit(cli.main({argv!r}))
    """)
    optimized = subprocess.run([sys.executable, "-O", "-c", script],
                               capture_output=True, text=True)
    assert (optimized.returncode, optimized.stdout) == (1, "")
    assert optimized.stderr.startswith("error: Internal:")
    assert optimized.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# Exploration against an oracle subsumer


def oracle_explore(pta, budget, restrict_to=None, use_subsumption=True):
    """symbolic.explore with the eager symbolic.succ and the plain
    subsumer: matched faces (matched_faces_decide), then the exact LP for
    every candidate they leave undecided."""
    result = symbolic.ExplorationResult([], [], {}, [], symbolic.COMPLETE)
    try:
        s0 = symbolic.initial_state(pta)
    except EmptyInitialError:
        return result
    if restrict_to is not None and s0.location not in restrict_to:
        return result
    result.states.append(s0)
    result.depths.append(0)
    by_location = {s0.location: [0]}

    def subsumer(state):
        for idx in by_location.get(state.location, ()):
            other = result.states[idx].constraint
            quick = matched_faces_decide(other, state.constraint)
            if quick is None:
                quick = poly.includes(other, state.constraint)
            if quick:
                return idx
        return None

    queue = deque([0])
    while queue:
        i = queue.popleft()
        depth = result.depths[i]
        for edge_id, e in enumerate(pta.edges):
            if e.source != result.states[i].location:
                continue
            if restrict_to is not None and e.target not in restrict_to:
                continue
            nxt = symbolic.succ(pta, result.states[i], e)
            if nxt is None:
                continue
            j = subsumer(nxt) if use_subsumption else None
            if j is not None:
                result.edges.append((i, edge_id, j))
                continue
            if (depth + 1 > budget.max_depth
                    or len(result.states) >= budget.max_states):
                result.status = symbolic.BUDGET_EXCEEDED
                continue
            result.states.append(nxt)
            j = len(result.states) - 1
            by_location.setdefault(nxt.location, []).append(j)
            result.depths.append(depth + 1)
            result.edges.append((i, edge_id, j))
            result.parents[j] = (i, edge_id)
            queue.append(j)
    return result


def assert_same_exploration(got, want, pta):
    assert got.states == want.states, serialize(pta)
    assert (got.edges, got.parents, got.depths, got.status) == (
        want.edges, want.parents, want.depths, want.status)


def test_explore_matches_the_oracle_subsumer():
    budget = Budget(max_states=150)
    rng = random.Random(SEED + 1)
    ptas = [random_bounded_pta(rng) for _ in range(30)]
    # 100273 is catalogue draw 273: one location, and rays near their exit
    # decide most of its comparisons.
    ptas += [random_bounded_pta(random.Random(s))
             for s in (DIVERGENT, 38, 99, 100273)]
    divergent = 0
    for pta in ptas:
        got = symbolic.explore(pta, budget)
        assert_same_exploration(got, oracle_explore(pta, budget), pta)
        divergent += not got.complete
    assert divergent >= 3


def test_restricted_explore_matches_the_oracle_with_and_without_subsumption(
        monkeypatch):
    """restrict_to holds the initial location and a seeded part of the
    others.  explore decides a new state's emptiness lazily: the draws
    include successors that it drops as empty without minimizing them,
    by an exact emptiness test or by a sample that finds no point."""
    lazy_empty = 0

    def count_empty(name, empty):
        def counted(c, original=getattr(poly, name)):
            nonlocal lazy_empty
            out = original(c)
            lazy_empty += empty(out)
            return out
        monkeypatch.setattr(poly, name, counted)

    count_empty("is_empty", lambda out: out)
    count_empty("sample_point", lambda out: out is None)
    budget = Budget(max_states=60)
    rng = random.Random(SEED + 2)
    pruned = 0
    for _ in range(60):
        pta = random_bounded_pta(rng)
        others = [loc.name for loc in pta.locations if loc.name != pta.init]
        keep = frozenset([pta.init] + rng.sample(others, rng.randint(0, len(others))))
        pruned += any(e.target not in keep for e in pta.edges)
        for use_subsumption in (True, False):
            got = symbolic.explore(pta, budget, keep, use_subsumption)
            want = oracle_explore(pta, budget, keep, use_subsumption)
            assert_same_exploration(got, want, pta)
    assert pruned >= 20 and lazy_empty >= 100, (pruned, lazy_empty)


# ---------------------------------------------------------------------------
# Minimizing only when needed


def misses_per_successor(monkeypatch, pta, budget=Budget()):
    """explore from cold caches, with the _minimized_ineqs and _ineqs_empty
    misses of each successor of a stored state, from its poly.successor
    call to the next such call.  initial_state's own call, from the origin,
    is not one of them."""
    for cache in (poly._ineqs_empty, poly._minimized_ineqs):
        cache.cache_clear()
    marks = []

    def mark(c=None):
        marks.append((c, poly._minimized_ineqs.cache_info().misses,
                      poly._ineqs_empty.cache_info().misses))

    def counted(c, *args, original=poly.successor):
        mark(c)
        return original(c, *args)

    monkeypatch.setattr(poly, "successor", counted)
    result = symbolic.explore(pta, budget)
    mark()
    stored = [s.constraint for s in result.states]
    marks = [m for m in marks[:-1] if any(m[0] is c for c in stored)] + marks[-1:]
    return result, [(m - m0, e - e0)
                    for (_, m0, e0), (_, m, e) in zip(marks, marks[1:])]


# From the initial state x = y, this guard leaves x <= y - 1 and y <= x
# after time elapse: empty, though no row is false and no row of x = y is
# tighter.
EMPTY_AFTER_ELAPSE = (atom("x", "<=", constant=1), atom("y", ">=", constant=2))


def test_an_empty_successor_whose_rows_match_every_face_adds_no_edge(
        monkeypatch):
    pta = build(clocks=XY, locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", (), ()),
                       ("l0", "l1", EMPTY_AFTER_ELAPSE, ())))
    result, misses = misses_per_successor(monkeypatch, pta)
    assert result.complete and len(result.states) == 2
    assert result.edges == [(0, 0, 1)]
    # No minimization: one exact emptiness test drops it.
    assert misses[1] == (0, 1)


def test_an_empty_successor_past_the_budget_leaves_the_status_complete(
        monkeypatch):
    pta = build(clocks=XY, locs=(("l0", ()), ("l1", ())),
                edges=(("l0", "l1", EMPTY_AFTER_ELAPSE, ()),))
    result, misses = misses_per_successor(monkeypatch, pta, Budget(max_states=1))
    assert (result.status, result.edges) == (symbolic.COMPLETE, [])
    assert misses == [(0, 1)]


def test_a_successor_is_minimized_only_at_a_tighter_face(monkeypatch):
    """Both locations have y <= 1.  The second edge resets x, and its rows
    keep y - x <= 1, which the others imply, against the face y - x <= 0
    of the first state at l1.  Minimized, the new state has no y - x row
    left; a probe refutes, and it is stored.  The third edge (y > 0, x
    reset) meets the same face, is minimized once, and the second state
    includes it.  The fourth (x > 0) matches every face of the first
    state, none tighter: one emptiness test and no minimization."""
    inv = (atom("y", "<=", constant=1),)
    pta = build(clocks=XY, locs=(("l0", inv), ("l1", inv)),
                edges=(("l0", "l1", (), ()),
                       ("l0", "l1", (), ("x",)),
                       ("l0", "l1", (atom("y", ">"),), ("x",)),
                       ("l0", "l1", (atom("x", ">"),), ())))
    result, misses = misses_per_successor(monkeypatch, pta)
    assert result.complete and len(result.states) == 3
    assert result.edges == [(0, 0, 1), (0, 1, 2), (0, 2, 2), (0, 3, 1)]
    assert [m for m, _ in misses[1:3]] == [1, 1]
    assert misses[3] == (0, 1)


def test_lp_count_on_a_divergent_draw_is_pinned(monkeypatch):
    """Exact counts on one divergent draw.  Of the candidates that matched
    faces leave undecided, integer probes refute all but 284; rays refute
    145 of those, and each point they find refutes later candidates as a
    probe; the exact inclusion LP runs 139 times."""
    outcomes = {"includes": [], "escape_point": []}
    for name in outcomes:
        def counted(*args, name=name, original=getattr(poly, name)):
            outcomes[name].append(original(*args))
            return outcomes[name][-1]
        monkeypatch.setattr(poly, name, counted)
    result = symbolic.explore(random_bounded_pta(random.Random(DIVERGENT)),
                              Budget(max_states=150))
    assert (len(result.states), result.status) == (150, symbolic.BUDGET_EXCEEDED)
    rays = outcomes["escape_point"]
    assert (len(rays), sum(p is not None for p in rays)) == (284, 145)
    assert (len(outcomes["includes"]), sum(outcomes["includes"])) == (139, 0)


def test_lp_solves_on_a_divergent_draw_are_pinned(monkeypatch):
    """Exact emptiness solves and phase 1s of one divergent draw from cold
    caches.  explore minimizes a new state only when a stored state's
    matched face is tighter, or to store it; includes tests outer's rows on
    one phase 1 of inner, and sample_point solves no LP.  Minimization
    drops nonnegativity-implied rows without an LP and tests the other rows
    on one phase 1 of the closure, which also decides emptiness when no row
    is strict.  The one _satisfiable solve is the poly.is_empty test on the
    matched path: a new state whose faces a stored state all matches, none
    tighter, before any sample or minimization showed it nonempty.
    poly.successor tests no guard for emptiness before the reset."""
    for cache in (poly._ineqs_empty, poly._minimized_ineqs):
        cache.cache_clear()
    solves, phase1s = [], []

    def counted(ineqs, original=poly._satisfiable):
        solves.append(ineqs)
        return original(ineqs)

    def counted_phase1(rows, eps=False, original=poly._feasible):
        phase1s.append(rows)
        return original(rows, eps)

    monkeypatch.setattr(poly, "_satisfiable", counted)
    monkeypatch.setattr(poly, "_feasible", counted_phase1)
    result = symbolic.explore(random_bounded_pta(random.Random(DIVERGENT)),
                              Budget(max_states=150))
    assert (len(result.states), result.status) == (150, symbolic.BUDGET_EXCEEDED)
    assert len(solves) == 1
    assert len(phase1s) == 292
