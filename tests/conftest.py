"""Shared test helpers: compact model builders, the shared fixture
models, random model generators, and the exact oracles that the property
suites compare against."""

import itertools
from fractions import Fraction

from parataur import poly, regions
from parataur.model import (
    Edge,
    Interval,
    Location,
    ParamValuation,
    Pta,
    atom,
    eq_atoms,
    instantiate,
)


def build(name="m", clocks=("x",), params=(), locs=(("l0", ()),), init="l0",
          edges=(), bounds=None):
    """Pta constructor from plain tuples; edges are (src, tgt, guard, resets)."""
    locations = tuple(Location(n, tuple(inv)) for n, inv in locs)
    built = tuple(Edge(s, t, "sigma", tuple(g), frozenset(r))
                  for s, t, g, r in edges)
    return Pta(name, tuple(clocks), tuple(params), locations, init, built,
               bounds=bounds)


# ---------------------------------------------------------------------------
# Fixture models


def loop_xy(sup=3):
    """One location, loop guard x = 1 and y <= p, resetting x.  The loop can
    fire at most floor(p) times, so no valuation admits a cycle."""
    guard = eq_atoms("x", constant=1) + (atom("y", "<=", ("p",)),)
    return build(name="loop_xy", clocks=("x", "y"), params=("p",),
                 edges=((("l0", "l0", guard, ("x",)),)),
                 bounds=(("p", Interval(0, sup)),))


def xp_selfloop():
    """Self-loop guarded x = p resetting the only clock: a reset-PTA that is
    not L/U because the equality uses p with both polarities."""
    return build(name="xp_loop", clocks=("x",), params=("p",),
                 edges=((("l0", "l0", eq_atoms("x", ("p",)), ("x",)),)),
                 bounds=(("p", Interval(0, 2)),))


def open_unit():
    """Edge guarded x > 0 into a location with invariant x < 1; the second
    symbolic state pins x into (0, 1), which holds no integer point."""
    return build(name="open_unit",
                 locs=(("l0", ()), ("l1", (atom("x", "<", constant=1),))),
                 edges=((("l0", "l1", (atom("x", ">"),), ()),)))


def edge_xp(sup=2):
    """Two locations joined by a single edge guarded x = p."""
    return build(name="edge_xp", clocks=("x",), params=("p",),
                 locs=(("l0", ()), ("l1", ())),
                 edges=((("l0", "l1", eq_atoms("x", ("p",)), ()),)),
                 bounds=(("p", Interval(0, sup)),))


# ---------------------------------------------------------------------------
# Random model generators (callers seed their own random.Random)

_GUARD_OPS = ("<", "<=", "<=", ">=", ">=", ">", "=")


def _random_atoms(rng, clocks, params, ops):
    clock = rng.choice(clocks)
    op = rng.choice(ops)
    used = tuple(rng.sample(params, rng.choice((0, 0, 1)))) if params else ()
    constant = rng.randint(0, 3)
    if op == "=":
        return eq_atoms(clock, used, constant)
    return (atom(clock, op, used, constant),)


def random_bounded_pta(rng):
    """Small bounded model: at most 2 clocks, 2 parameters, 4 locations and
    6 edges, all constants and bounds within [0, 3].  Biased toward resets
    and upper guards so that exploration usually completes."""
    clocks = ("x", "y")[: rng.randint(1, 2)]
    params = ("p", "q")[: rng.randint(1, 2)]
    n_locs = rng.randint(1, 4)
    locs = []
    for i in range(n_locs):
        inv = ()
        if rng.random() < 0.25:
            used = tuple(rng.sample(params, rng.choice((0, 1))))
            inv = (atom(rng.choice(clocks), rng.choice(("<", "<=")),
                        used, rng.randint(0, 3)),)
        locs.append((f"l{i}", inv))
    edges = []
    for _ in range(rng.randint(1, 6)):
        guard = ()
        for _ in range(rng.randint(0, 2)):
            guard = guard + _random_atoms(rng, clocks, params, _GUARD_OPS)
        resets = tuple(c for c in clocks if rng.random() < 0.5)
        edges.append((f"l{rng.randrange(n_locs)}", f"l{rng.randrange(n_locs)}",
                      guard, resets))
    bounds = tuple((p, Interval(0, rng.randint(1, 3))) for p in params)
    return build(name="random_bounded", clocks=clocks, params=params,
                 locs=tuple(locs), edges=tuple(edges), bounds=bounds)


def random_lu_pta(rng):
    """Random L/U model over parameters pl (lower only) and pu (upper only);
    every parameterized atom keeps the matching polarity."""
    clocks = ("x", "y")[: rng.randint(1, 2)]
    lowers = ("pl",) if rng.random() < 0.8 else ()
    uppers = ("pu",) if rng.random() < 0.8 or not lowers else ()
    params = lowers + uppers

    def lu_atom():
        op = rng.choice(_GUARD_OPS[:-1])
        side = uppers if op in ("<", "<=") else lowers
        used = tuple(rng.sample(side, rng.choice((0, 1)))) if side else ()
        return atom(rng.choice(clocks), op, used, rng.randint(0, 2))

    n_locs = rng.randint(1, 3)
    locs = []
    for i in range(n_locs):
        inv = ()
        if rng.random() < 0.25:
            used = tuple(rng.sample(uppers, rng.choice((0, 1)))) if uppers else ()
            inv = (atom(rng.choice(clocks), rng.choice(("<", "<=")),
                        used, rng.randint(1, 3)),)
        locs.append((f"l{i}", inv))
    edges = []
    for _ in range(rng.randint(1, 5)):
        guard = tuple(lu_atom() for _ in range(rng.randint(0, 2)))
        resets = tuple(c for c in clocks if rng.random() < 0.5)
        edges.append((f"l{rng.randrange(n_locs)}", f"l{rng.randrange(n_locs)}",
                      guard, resets))
    bounds = tuple((p, Interval(0, 3)) for p in params)
    return build(name="random_lu", clocks=clocks, params=params,
                 locs=tuple(locs), edges=tuple(edges), bounds=bounds)


# ---------------------------------------------------------------------------
# Symbolic helpers


def equal(a, b):
    """Two polyhedra hold the same points: each includes the other."""
    return poly.includes(a, b) and poly.includes(b, a)


def path_to(result, index):
    """Discrete edge ids of the stored path reaching a state of an
    exploration result."""
    path = []
    while index in result.parents:
        index, edge_id = result.parents[index]
        path.append(edge_id)
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Region-level oracles


def _ordered_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _ordered_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + ((first,) + part[k],) + part[k + 1:]
        for k in range(len(part) + 1):
            yield part[:k] + ((first,),) + part[k:]


def enumerate_shapes(maxc):
    """Every region shape (ints, fracs) for the per-clock max constants,
    listed one by one: the oracle of regions._shape_rank's order and of
    the region count."""
    h = len(maxc)
    shapes = []
    per_clock = [[None] + list(range(m + 1)) for m in maxc]
    for ints in itertools.product(*per_clock):
        active = [i for i in range(h) if ints[i] is not None]
        forced = [i for i in active if ints[i] == maxc[i]]
        free = [i for i in active if ints[i] < maxc[i]]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                zero = tuple(sorted(forced + list(extra)))
                positive = tuple(i for i in free if i not in extra)
                for part in _ordered_partitions(positive):
                    norm = tuple(tuple(sorted(cls)) for cls in part)
                    shapes.append((ints, (zero,) + norm))
    return shapes


def reachable_locations(ta):
    return {key[0] for key in regions.build_region_graph(ta).nodes}


def integer_valuations_of(bounds):
    """Every integer valuation inside a bounds tuple (openness respected)."""
    if not bounds:
        return [ParamValuation.of({})]
    names = [p for p, _ in bounds]
    axes = [iv.integers() for _, iv in bounds]
    return [ParamValuation.of(dict(zip(names, combo)))
            for combo in itertools.product(*axes)]


def rational_samples_of(bounds, count=5):
    """Per-parameter off-grid samples spread across each bounds interval."""
    fractions = (Fraction(1, 7), Fraction(1, 4), Fraction(1, 2),
                 Fraction(3, 4), Fraction(6, 7))[:count]
    names = [p for p, _ in bounds]
    axes = []
    for _, iv in bounds:
        span = iv.sup - iv.inf
        axes.append([iv.inf + f * span for f in fractions] if span
                    else [Fraction(iv.inf)])
    return [ParamValuation.of(dict(zip(names, combo)))
            for combo in itertools.product(*axes)]


def eg_oracle(pta, targets):
    """Brute-force EG check: some valuation (integer grid plus rational
    samples) admits a lasso within T or a deadlock reachable through T."""
    targets = frozenset(targets)
    for v in integer_valuations_of(pta.bounds) + rational_samples_of(pta.bounds):
        ta = instantiate(pta, v)
        if regions.ta_lasso(ta, targets) or regions.deadlock_within(ta, targets):
            return True
    return False


# ---------------------------------------------------------------------------
# Exact delay solving at a concrete point


def _edge_conditions(pta, location, edge):
    conds = [(a, False) for a in pta.invariant(location)]
    conds += [(a, False) for a in edge.guard]
    conds += [(a, a.clock in edge.resets) for a in pta.invariant(edge.target)]
    return conds


def edge_enabled_at(pta, location, edge, point, delay):
    """The edge fires after exactly `delay` from the concrete point: guard
    and source invariant hold on the delayed clocks, target invariant on the
    reset image."""
    for a, reset in _edge_conditions(pta, location, edge):
        value = Fraction(0) if reset else point[a.clock] + delay
        rhs = Fraction(a.constant) + sum((point[p] for p in a.params), Fraction(0))
        ok = {"<": value < rhs, "<=": value <= rhs,
              ">=": value >= rhs, ">": value > rhs}[a.op]
        if not ok:
            return False
    return True


def firing_delay(pta, location, point):
    """Exact interval solve for a delay d >= 0 after which some outgoing
    edge fires; returns (edge index, d) or None.  Every atom is linear in d,
    so each edge contributes one interval intersection over Fractions."""
    for idx, edge in enumerate(pta.edges):
        if edge.source != location:
            continue
        lo, lo_strict = Fraction(0), False
        hi, hi_strict = None, False
        feasible = True
        for a, reset in _edge_conditions(pta, location, edge):
            rhs = Fraction(a.constant) + sum((point[p] for p in a.params),
                                             Fraction(0))
            if reset:
                value = Fraction(0)
                ok = {"<": value < rhs, "<=": value <= rhs,
                      ">=": value >= rhs, ">": value > rhs}[a.op]
                if not ok:
                    feasible = False
                    break
                continue
            bound = rhs - point[a.clock]
            if a.op in ("<", "<="):
                if hi is None or bound < hi:
                    hi, hi_strict = bound, a.op == "<"
                elif bound == hi:
                    hi_strict = hi_strict or a.op == "<"
            else:
                if bound > lo:
                    lo, lo_strict = bound, a.op == ">"
                elif bound == lo:
                    lo_strict = lo_strict or a.op == ">"
        if not feasible:
            continue
        if hi is None:
            delay = lo + 1 if lo_strict else lo
        elif lo > hi or (lo == hi and (lo_strict or hi_strict)):
            continue
        elif lo == hi:
            delay = lo
        else:
            delay = (lo + hi) / 2
        assert edge_enabled_at(pta, location, pta.edges[idx], point, delay)
        return idx, delay
    return None
