"""The benchmark's own random model generators and exact delay solver.

Copied from the test suite's shared helpers so that later edits to the
tests cannot change the benchmark's corpus.  Every generator takes its own
random.Random; callers seed it.
"""

from fractions import Fraction

from parataur.model import Edge, Interval, Location, Pta, atom, eq_atoms


def build(name="m", clocks=("x",), params=(), locs=(("l0", ()),), init="l0",
          edges=(), bounds=None):
    """Pta constructor from plain tuples; edges are (src, tgt, guard, resets)."""
    locations = tuple(Location(n, tuple(inv)) for n, inv in locs)
    built = tuple(Edge(s, t, "sigma", tuple(g), frozenset(r))
                  for s, t, g, r in edges)
    return Pta(name, tuple(clocks), tuple(params), locations, init, built,
               bounds=bounds)


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
    6 edges, all constants and bounds within [0, 3]."""
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
# Exact delay solving at a concrete point


def _holds(op, value, rhs):
    return {"<": value < rhs, "<=": value <= rhs,
            ">=": value >= rhs, ">": value > rhs}[op]


def _rhs(a, point):
    return Fraction(a.constant) + sum((point[p] for p in a.params), Fraction(0))


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
        if not _holds(a.op, value, _rhs(a, point)):
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
            rhs = _rhs(a, point)
            if reset:
                if not _holds(a.op, Fraction(0), rhs):
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
        if not edge_enabled_at(pta, location, edge, point, delay):
            raise AssertionError("delay solver produced a non-firing delay")
        return idx, delay
    return None
