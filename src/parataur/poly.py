"""Exact rational polyhedra with open/closed faces.

Constraints are stored as normalized linear inequalities ``t + c (<|<=) 0``
over named variables (clocks and parameters), whose coefficients and
constant are ``int``s of content 1.  A row is a named tuple in this normal
form, with its nonzero coefficients in name order, so rows compare and
sort as plain tuples; only ``lin`` normalizes, and time elapse keeps the
form when it adds a coefficient.  Points, bounds and sample coordinates
are ``Fraction``s.  A subsumption probe is a point as integer numerators
over one common denominator, so testing it against a face costs integer
arithmetic only.  Every polyhedron materializes nonnegativity of all its
variables, since clock and parameter valuations live in the nonnegative
rationals.  All operations are exact; the only quantifier elimination used
anywhere is Fourier-Motzkin, with the usual rule that a combined inequality
is strict iff either parent is strict; a step merges two rows' name-sorted
terms.  Every zone is built in one pass over one list of rows: a
successor (the initial state is the origin's) through the guard, the
reset, the invariant and time elapse, and the past of an edge through the
guard, the invariants and time past.  A sample point takes one chain of
projections and reads its coordinates back from them in integers.

Linear programs run on an exact fraction-free simplex, split in two: phase
1 finds a feasible dictionary, and phase 2 maximizes a goal from one.
Emptiness chains the two.  Minimization and ``includes`` test whether a
system implies a row by phase 2 alone, from one phase 1 of the system's
closure per polyhedron; that phase 1 also decides the emptiness of a
system with no strict row, and only a tie on a strict row needs one more
emptiness test.  Integer points take the same simplex, since a zone's rows
at integer parameters are totally unimodular (see ``has_integer_point``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import InternalError, NotAZoneError, UnboundedError
from .model import Guard, GuardAtom, Interval

# Internal variables (this and _EPS) are not identifiers, unlike every Pta's
# clocks and parameters, so they never meet one; "^" sorts between Z and a.
_ELAPSE_VAR = "^d"


class LinIneq(NamedTuple):
    """Normalized inequality: sum(coeff * var) + constant 'op' 0.

    Coefficients and constant are ``int``s with content 1 (divided by their
    gcd), and the coefficients are nonzero and sorted by name, so
    syntactically equal constraints compare equal.  A constant-only
    inequality keeps just the sign of its constant.  ``lin`` builds this
    form; rows compare and sort as (coeffs, constant, strict).
    """

    coeffs: tuple[tuple[str, int], ...]
    constant: int
    strict: bool

    @property
    def trivially_true(self) -> bool:
        return not self.coeffs and (
            self.constant < 0 or (self.constant == 0 and not self.strict))

    @property
    def trivially_false(self) -> bool:
        return not self.coeffs and (
            self.constant > 0 or (self.constant == 0 and self.strict))

    def evaluate(self, point: Mapping[str, Fraction]) -> bool:
        total = self.constant + sum(c * point[name] for name, c in self.coeffs)
        return total < 0 or (total == 0 and not self.strict)

    def negated(self) -> "LinIneq":
        return LinIneq(tuple((n, -c) for n, c in self.coeffs), -self.constant,
                       not self.strict)

    def render(self) -> str:
        parts = [f"{c}·{name}" for name, c in self.coeffs]
        parts.append(str(self.constant))
        op = "<" if self.strict else "<="
        return f"{' + '.join(parts)} {op} 0"


def lin(coeffs: Mapping[str, int], constant: int, strict: bool) -> LinIneq:
    items = sorted([(n, c) for n, c in coeffs.items() if c])
    if not items:
        return LinIneq((), (constant > 0) - (constant < 0), strict)
    g = math.gcd(constant, *[c for _, c in items])
    if g == 1:
        return LinIneq(tuple(items), constant, strict)
    return LinIneq(tuple([(n, c // g) for n, c in items]), constant // g, strict)


@lru_cache(maxsize=4096)
def atom_to_ineq(a: GuardAtom) -> LinIneq:
    sign = 1 if a.is_upper else -1
    coeffs = {a.clock: sign, **{p: -sign for p in a.params}}
    return lin(coeffs, -sign * a.constant, a.is_strict)


@dataclass(frozen=True)
class Polyhedron:
    clocks: tuple[str, ...]
    params: tuple[str, ...]
    ineqs: tuple[LinIneq, ...]

    @property
    def vars(self) -> tuple[str, ...]:
        return self.clocks + self.params

    @property
    def trivially_empty(self) -> bool:
        """Some row is trivially false.  Every empty polyhedron that
        ``minimized`` returns is, so its emptiness needs no LP."""
        return any(i.trivially_false for i in self.ineqs)

    def debug_strings(self) -> tuple[str, ...]:
        return tuple(sorted(i.render() for i in self.ineqs))

    def __str__(self) -> str:
        return "{" + ", ".join(self.debug_strings()) + "}"


def _dominance_prune(ineqs: Iterable[LinIneq]) -> tuple[LinIneq, ...]:
    """Keep only the tightest inequality per coefficient vector."""
    best: dict[tuple, LinIneq] = {}
    for i in ineqs:
        if not i.coeffs and i.trivially_true:
            continue
        cur = best.get(i.coeffs)
        if cur is None or i.constant > cur.constant or (
                i.constant == cur.constant and i.strict and not cur.strict):
            best[i.coeffs] = i
    return tuple(sorted(best.values()))


@lru_cache(maxsize=1024)
def _orthant(names: tuple[str, ...]) -> tuple[LinIneq, ...]:
    """The nonnegativity rows -v <= 0 of the variables."""
    return tuple(lin({v: -1}, 0, False) for v in names)


def make(clocks: Iterable[str], params: Iterable[str],
         ineqs: Iterable[LinIneq]) -> Polyhedron:
    clocks = tuple(clocks)
    params = tuple(params)
    rows = itertools.chain(_orthant(clocks + params), ineqs)
    return Polyhedron(clocks, params, _dominance_prune(rows))


def origin(clocks: Iterable[str], params: Iterable[str],
           bounds: Mapping[str, Interval]) -> Polyhedron:
    """Every clock at 0, each parameter within its bounds."""
    ineqs = [lin({x: 1}, 0, False) for x in clocks]
    for p, iv in bounds.items():
        ineqs.append(lin({p: -1}, iv.inf, iv.inf_open))
        ineqs.append(lin({p: 1}, -iv.sup, iv.sup_open))
    return make(clocks, params, ineqs)


# ---------------------------------------------------------------------------
# Fourier-Motzkin


def _eliminate(ineqs: Iterable[LinIneq], var: str) -> list[LinIneq]:
    """One Fourier-Motzkin step.  Each row is split once on var, into its
    coefficient and its other terms.  Each pair of opposite signs merges
    its two name-sorted term tuples, scaled so that var cancels (nearly
    always by 1), and divides by the gcd: the rows lin would build."""
    pos: list[tuple] = []
    neg: list[tuple] = []
    rest: list[LinIneq] = []
    for i in ineqs:
        terms = i.coeffs
        k = bisect.bisect_left(terms, (var,))
        if k < len(terms) and terms[k][0] == var:
            (pos if terms[k][1] > 0 else neg).append(
                (terms[k][1], terms[:k] + terms[k + 1:], i.constant, i.strict))
        else:
            rest.append(i)
    for ca, ta, ka, sa in pos:
        for cb, tb, kb, sb in neg:
            constant = -cb * ka + ca * kb
            strict = sa or sb
            left = ta if cb == -1 else tuple([(n, -cb * v) for n, v in ta])
            right = tb if ca == 1 else tuple([(n, ca * v) for n, v in tb])
            out = []
            x = y = 0
            while x < len(left) and y < len(right):
                (na, va), (nb, vb) = left[x], right[y]
                if na == nb:
                    if va + vb:
                        out.append((na, va + vb))
                    x, y = x + 1, y + 1
                elif na < nb:
                    out.append(left[x])
                    x += 1
                else:
                    out.append(right[y])
                    y += 1
            merged = tuple(out) + left[x:] + right[y:]
            if not merged:
                if constant > 0 or (constant == 0 and strict):
                    rest.append(LinIneq((), int(constant > 0), strict))
                continue
            g = math.gcd(constant, *[v for _, v in merged])
            if g > 1:
                merged = tuple([(n, v // g) for n, v in merged])
                constant //= g
            rest.append(LinIneq(merged, constant, strict))
    return list(_dominance_prune(rest))


# All variables (clocks, parameters, the elapse variable) are nonnegative,
# so every LP runs over the nonnegative orthant, and a row that
# nonnegativity alone implies is left out of its tableau.  Strict faces are
# handled by maximizing a slack eps shared by every strict row: the system
# has a point iff the relaxation is feasible with eps > 0.

_EPS = "^eps"


def _orthant_implied(i: LinIneq) -> bool:
    """Nonnegativity alone implies the row: no coefficient is positive and
    the constant is negative, or zero on a non-strict row."""
    return all(c <= 0 for _, c in i.coeffs) and (
        i.constant < 0 or (i.constant == 0 and not i.strict))


class _Dictionary:
    """A feasible dictionary of closed rows t + c <= 0 over x >= 0, for the
    exact simplex with Bland's rule.  Variables are numbered: the columns
    (cols maps their names), one slack per row, then any variable added
    later.  Each basic variable is a row of ints, its constant last, over
    one common denominator den > 0, the absolute determinant of the basis:
    pivoting is fraction-free (Bareiss 1968), so each pivot divides exactly
    by the previous den."""

    __slots__ = ("cols", "tab", "basis", "nonbasic", "den", "top")

    def __init__(self, cols: dict[str, int], tab: list[list[int]],
                 basis: list[int], nonbasic: list[int], den: int, top: int):
        self.cols, self.tab, self.basis = cols, tab, basis
        self.nonbasic, self.den, self.top = nonbasic, den, top

    def copy(self) -> "_Dictionary":
        return _Dictionary(self.cols, [r[:] for r in self.tab], self.basis[:],
                           self.nonbasic[:], self.den, self.top)

    def pivot(self, r: int, e: int, obj: list[int]) -> None:
        tab, den = self.tab, self.den
        prow = tab[r]
        sign = 1 if prow[e] > 0 else -1
        q = sign * prow[e]
        for i, row in enumerate(tab):
            if i != r:
                tab[i] = _pivot_row(row, prow, e, sign, q, den)
        obj[:] = _pivot_row(obj, prow, e, sign, q, den)
        new = [-sign * v for v in prow]
        new[e] = sign * den
        tab[r] = new
        self.den = q
        self.basis[r], self.nonbasic[e] = self.nonbasic[e], self.basis[r]

    def run(self, obj: list[int], cap: int | None = None) -> bool:
        """Pivot until obj, a row over den like the others, is optimal
        (True) or unbounded (False); given cap, stop (True) as soon as its
        value exceeds cap."""
        tab, basis, nonbasic = self.tab, self.basis, self.nonbasic
        while True:
            if cap is not None and obj[-1] > cap * self.den:
                return True
            enter = None
            for j in range(len(nonbasic)):
                if obj[j] > 0 and (enter is None
                                   or nonbasic[j] < nonbasic[enter]):
                    enter = j
            if enter is None:
                return True
            # Ratio test row[-1] / -row[enter], compared by cross-multiplying.
            leave = None
            for i, row in enumerate(tab):
                a = -row[enter]
                if a > 0:
                    b = row[-1]
                    if leave is None or b * best_a < best_b * a or (
                            b * best_a == best_b * a
                            and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b, a
            if leave is None:
                return False
            self.pivot(leave, enter, obj)

    def maximize(self, goal: Iterable[tuple[str, int]],
                 cap: int | None = None) -> Fraction | None:
        """Phase 2: pivot to the maximum of the goal's terms and return it,
        or None when they are unbounded above (as they are when a positive
        coefficient names no column); given cap, any value above cap may be
        returned instead of the maximum."""
        cost: dict[int, int] = {}
        for name, c in goal:
            j = self.cols.get(name)
            if j is not None:
                cost[j] = c
            elif c > 0:
                return None
        obj = [self.den * cost.get(v, 0) for v in self.nonbasic] + [0]
        for vid, row in zip(self.basis, self.tab):
            c = cost.get(vid)
            if c:
                obj = [o + c * t for o, t in zip(obj, row)]
        if not self.run(obj, cap):
            return None
        return Fraction(obj[-1], self.den)

    def lift(self, k: int) -> None:
        """Drop the bound of row k: delete the dictionary row of its slack
        when basic, else free the nonbasic slack s as s - s' with a new
        column s' >= 0.  The dictionary stays feasible for the other rows,
        and den stays the determinant of its basis."""
        vid = len(self.cols) + k
        if vid in self.basis:
            r = self.basis.index(vid)
            del self.basis[r], self.tab[r]
        else:
            e = self.nonbasic.index(vid)
            for t in self.tab:
                t.insert(-1, -t[e])
            self.nonbasic.append(self.top)
            self.top += 1


def _pivot_row(row: list[int], prow: list[int], e: int, sign: int, q: int,
               den: int) -> list[int]:
    """One non-pivot row after pivoting on prow[e] = sign * q; the Bareiss
    update (v * q - f * w) / den is exact."""
    f = sign * row[e]
    if not f:
        return row if q == den else [v * q // den for v in row]
    out = [(v * q - f * w) // den for v, w in zip(row, prow)]
    out[e] = f
    return out


def _feasible(rows: list[LinIneq], eps: bool = False) -> _Dictionary | None:
    """Phase 1: a feasible dictionary of the rows, each closed to
    t + c <= 0, or None when they have no common point.  With eps, a last
    column eps <= 1 is added and each strict row reads t + c + eps <= 0
    instead."""
    names = sorted({name for i in rows for name, _ in i.coeffs})
    if eps:
        names.append(_EPS)
    n = len(names)
    cols = {name: j for j, name in enumerate(names)}
    tab = []
    for i in rows:
        row = [0] * n + [-i.constant]
        for name, c in i.coeffs:
            row[cols[name]] = -c
        if eps and i.strict:
            row[-2] = -1
        tab.append(row)
    if eps:
        tab.append([0] * (n - 1) + [-1, 1])
    aux = n + len(tab)
    d = _Dictionary(cols, tab, list(range(n, aux)), list(range(n)), 1, aux + 1)
    if any(row[-1] < 0 for row in tab):
        d.nonbasic.append(aux)
        for row in tab:
            row.insert(n, 1)
        obj = [0] * n + [-1, 0]
        worst = min(range(len(tab)), key=lambda i: (tab[i][-1], d.basis[i]))
        d.pivot(worst, n, obj)
        d.run(obj)
        if obj[-1] < 0:
            return None
        if aux in d.basis:
            # The aux row always has a nonzero nonbasic entry: were it all
            # zero, the slack columns (an identity block) would force the
            # row of the basis inverse to vanish, yet it maps aux to 1.
            r = d.basis.index(aux)
            d.pivot(r, next(e for e in range(len(d.nonbasic)) if tab[r][e]),
                    obj)
        e = d.nonbasic.index(aux)
        del d.nonbasic[e]
        for row in tab:
            del row[e]
    return d


def _satisfiable(ineqs: tuple[LinIneq, ...]) -> bool:
    if any(i.trivially_false for i in ineqs):
        return False
    rows = [i for i in ineqs if not _orthant_implied(i)]
    strict = any(i.strict for i in rows)
    d = _feasible(rows, strict)
    return d is not None and (not strict or d.maximize(((_EPS, 1),), 0) > 0)


@lru_cache(maxsize=65536)
def _ineqs_empty(ineqs: tuple[LinIneq, ...]) -> bool:
    return not _satisfiable(ineqs)


def _base(ineqs: tuple[LinIneq, ...], rows: list[LinIneq]) -> _Dictionary | None:
    """Phase 1 on the closure of rows, the rows of ineqs that nonnegativity
    does not imply: a feasible dictionary, or None when ineqs is empty.
    With no strict row, that phase 1 decides emptiness; otherwise an exact
    emptiness test comes first."""
    if not any(i.strict for i in rows):
        return _feasible(rows)
    if _ineqs_empty(ineqs):
        return None
    d = _feasible(rows)
    if d is None:
        raise InternalError("the closure of nonempty {"
                            + ", ".join(i.render() for i in rows) + "} is empty")
    return d


def _implied(d: _Dictionary, i: LinIneq, system: Iterable[LinIneq]) -> bool:
    """The nonempty system implies i: t + c (<|<=) 0, within the orthant.
    d is a feasible dictionary of the system's closure, on which phase 2
    finds M, the supremum of t over the system (pivoting d in place).  The
    row is implied when M < -c, or M = -c and i is closed.  On a tie with a
    strict i, it is implied unless the system attains the bound: one exact
    emptiness test."""
    bound = -i.constant
    top = d.maximize(i.coeffs, bound)
    if top is None or top > bound:
        return False
    if top < bound or not i.strict:
        return True
    return _ineqs_empty(tuple(sorted(set(system) | {i.negated()})))


_FALSE = lin({}, 1, False)
_REDUCE_ABOVE = 18


@lru_cache(maxsize=65536)
def _minimized_ineqs(ineqs: tuple[LinIneq, ...]) -> tuple[LinIneq, ...]:
    """Drop every inequality implied by the rest (within the orthant).
    Wide rows are tried first so the kept description prefers the simple
    single-variable and difference faces.  A row that nonnegativity implies
    is dropped without an LP.  The others are tested on one feasible
    dictionary of the closure (``_base``): the row's bound is lifted from
    a copy, and phase 2 decides whether the rows left imply it; when they
    do, the copy is kept for the rows that follow.
    The result is the single false row exactly when ineqs is empty."""
    order = sorted(ineqs, key=lambda q: (-len(q.coeffs), q))
    base = _base(ineqs, [i for i in order if not _orthant_implied(i)])
    if base is None:
        return (_FALSE,)
    work = list(ineqs)
    k = -1
    for i in order:
        if len(work) == 1:
            break
        if not _orthant_implied(i):
            k += 1
            d = base.copy()
            d.lift(k)
            if not _implied(d, i, (q for q in work if q is not i)):
                continue
            base = d
        work = [q for q in work if q is not i]
    return tuple(work)


def minimized(c: Polyhedron) -> Polyhedron:
    return Polyhedron(c.clocks, c.params, _minimized_ineqs(c.ineqs))


def is_empty(c: Polyhedron) -> bool:
    return _ineqs_empty(c.ineqs)


def eliminate_vars(c: Polyhedron, names: Iterable[str]) -> list[LinIneq]:
    # Nonnegativity rows dropped by minimization must be materialized again:
    # projection is computed in real space, soundness needs the orthant.
    work = list(make(c.clocks, c.params, c.ineqs).ineqs)
    for v in names:
        work = _eliminate(work, v)
        if len(work) > _REDUCE_ABOVE:
            work = list(_minimized_ineqs(tuple(work)))
    return work


# ---------------------------------------------------------------------------
# Operators


def _shift(c: Polyhedron, direction: int) -> Polyhedron:
    """Time elapse for successor (direction -1: x -> x - d) and time past
    for predecessor (direction +1: x -> x + d); nothing else shifts.  Its
    make prunes c's rows, which need not be pruned, with the orthant's."""
    clockset = set(c.clocks)
    shifted = []
    for i in make(c.clocks, c.params, c.ineqs).ineqs:
        cd = 0
        for name, cf in i.coeffs:
            if name in clockset:
                cd += direction * cf
        if cd == 0:
            shifted.append(i)
        else:
            # The row is in normal form, its content 1, so it stays so with
            # one more coefficient: insert it in name order, no lin needed.
            k = bisect.bisect(i.coeffs, (_ELAPSE_VAR,))
            coeffs = i.coeffs[:k] + ((_ELAPSE_VAR, cd),) + i.coeffs[k:]
            shifted.append(LinIneq(coeffs, i.constant, i.strict))
    shifted.append(lin({_ELAPSE_VAR: -1}, 0, False))
    out = make(c.clocks, c.params, _eliminate(shifted, _ELAPSE_VAR))
    if len(out.ineqs) > _REDUCE_ABOVE:
        out = minimized(out)
    return out


def successor(c: Polyhedron, guard: Guard, resets: frozenset[str],
              inv: Guard) -> Polyhedron | None:
    """c through an edge, not minimized: the guard, the reset, the target
    invariant, time elapse and the invariant again; None, with no LP, when
    the reset leaves a false row.  One list of rows goes through both
    eliminations, pruned on the way into each and after the elapse: the
    rows of the five operators, each of which prunes its whole input."""
    guarded = c.ineqs + tuple(atom_to_ineq(a) for a in guard)
    # Eliminate in the polyhedron's clock order, not the caller's set order,
    # so the Fourier-Motzkin work does not depend on string hashing.
    ordered = [x for x in c.clocks if x in resets]
    work = eliminate_vars(Polyhedron(c.clocks, c.params, guarded), ordered)
    work.extend(lin({x: 1}, 0, False) for x in ordered)
    if any(i.trivially_false for i in work):
        return None
    inv_rows = tuple(atom_to_ineq(a) for a in inv)
    out = _shift(Polyhedron(c.clocks, c.params, tuple(work) + inv_rows), -1)
    return make(c.clocks, c.params, out.ineqs + inv_rows)


def predecessor(clocks: tuple[str, ...], params: tuple[str, ...], guard: Guard,
                resets: Iterable[str], target_inv: Guard,
                source_inv: Guard) -> Polyhedron:
    """The past of an edge, not minimized: the guard, the target invariant
    with the reset clocks fixed to 0 and the source invariant, time past
    and the source invariant again.  One list of rows, pruned on the way
    into the elimination and after it."""
    source_rows = tuple(atom_to_ineq(a) for a in source_inv)
    rows = [atom_to_ineq(a) for a in guard]
    rows += _fixed([atom_to_ineq(a) for a in target_inv], dict.fromkeys(resets, 0))
    out = _shift(Polyhedron(clocks, params, tuple(rows) + source_rows), +1)
    return make(clocks, params, out.ineqs + source_rows)


def project_params(c: Polyhedron) -> Polyhedron:
    work = eliminate_vars(c, c.clocks)
    return minimized(make((), c.params, work))


def contains(c: Polyhedron, point: Mapping[str, Fraction]) -> bool:
    return all(i.evaluate(point) for i in c.ineqs)


def includes(outer: Polyhedron, inner: Polyhedron) -> bool:
    """inner is a subset of outer (both may have open faces)."""
    if outer.vars != inner.vars:
        raise InternalError("universe mismatch")
    base = _base(inner.ineqs, [q for q in inner.ineqs if not _orthant_implied(q)])
    return base is None or all(_implied(base, i, inner.ineqs)
                               for i in outer.ineqs if not _orthant_implied(i))


# ---------------------------------------------------------------------------
# Integer probes: refuting inclusion without the solver
#
# A probe is a point scaled to one common denominator, (den, numerators)
# with den > 0: coordinate v is numerators[v] / den.  The face
# t + c (<|<=) 0 holds there iff c*den + t(numerators) (<|<=) 0.

Probe = tuple[int, dict[str, int]]


def probe_of(point: Mapping[str, Fraction]) -> Probe:
    den = math.lcm(*(x.denominator for x in point.values()))
    return den, {v: x.numerator * (den // x.denominator)
                 for v, x in point.items()}


def probe_holds(ineqs: Iterable[LinIneq], probe: Probe) -> bool:
    """Every inequality holds at the probe."""
    den, num = probe
    for i in ineqs:
        total = i.constant * den
        for n, c in i.coeffs:
            total += c * num[n]
        if total > 0 or (total == 0 and i.strict):
            return False
    return True


def _ray_point(face: LinIneq, direction: Mapping[str, int],
               rows: tuple[LinIneq, ...],
               probe: Probe) -> tuple[Probe | None, LinIneq | None]:
    """Shoot the ray x(l) = probe + l*direction from a probe that satisfies
    rows.  The ray crosses face at l0 (never, unless face rises along it)
    and first leaves rows at lmax, the least crossing over rows r with
    r.direction > 0.  When l0 < lmax, return x((l0 + 1023*lmax) / 1024) and
    None: a point inside rows and beyond face, near the ray's exit, so also
    beyond faces further along the ray, which a midpoint may miss (x(l0 + 1)
    when no row bounds the ray).  Else return None and the row that stops
    the ray, if any.  Every ratio is compared and summed by
    cross-multiplying, so the point is again a probe."""
    den, num = probe

    def at_probe(i: LinIneq) -> int:
        return i.constant * den + sum(c * num[n] for n, c in i.coeffs)

    def rate(i: LinIneq) -> int:
        return sum(c * direction.get(n, 0) for n, c in i.coeffs)

    # Along the ray a row i reads (at_probe(i) + l*den*rate(i)) / den.
    cross, rise = at_probe(face), rate(face)
    if rise <= 0:
        return None, None
    first = slope = stop = None
    for r in rows:
        ra = rate(r)
        if ra > 0:
            value = at_probe(r)
            if first is None or value * slope > first * ra:
                first, slope, stop = value, ra, r
    if first is None:
        scale, shift = den * rise, den * rise - cross
    elif cross * slope > first * rise:
        scale = 1024 * den * rise * slope
        shift = -cross * slope - 1023 * first * rise
    else:
        return None, stop
    # x = num/den + direction*shift/scale, over the denominator scale.
    lift = scale // den
    out = {v: n * lift + direction.get(v, 0) * shift for v, n in num.items()}
    g = math.gcd(scale, *out.values())
    return (scale // g, {v: n // g for v, n in out.items()}), None


def _bent(direction: Mapping[str, int], row: LinIneq) -> dict[str, int]:
    """The direction less its component along the row's normal a, scaled by
    a.a to stay integral: a ray along it keeps the row's value."""
    a = dict(row.coeffs)
    aa = sum(c * c for c in a.values())
    da = sum(c * a.get(v, 0) for v, c in direction.items())
    out = {v: aa * direction.get(v, 0) - da * a.get(v, 0)
           for v in direction.keys() | a.keys()}
    g = math.gcd(*out.values())
    return {v: c // g for v, c in out.items() if c}


def escape_point(outer: Polyhedron, inner: Polyhedron,
                 faces: Iterable[LinIneq], probe: Probe) -> Probe | None:
    """A point of inner outside outer, or None when no ray finds one.
    Rays start at probe, a point of both, and cross one of faces (faces of
    outer).  The first runs along the face's normal.  When a row of inner,
    nonnegativity included, stops a ray before it crosses the face, the
    next one runs along that row: the direction loses its component on the
    row's normal.  At most one ray per variable is shot for each face.
    Each point found is certified with exact integer tests before it is
    returned."""
    rows = inner.ineqs + _orthant(inner.vars)
    for face in faces:
        direction = dict(face.coeffs)
        for _ in inner.vars:
            point, stop = _ray_point(face, direction, rows, probe)
            if point is not None:
                if (not probe_holds(rows, point)
                        or probe_holds(outer.ineqs, point)):
                    raise InternalError(f"ray point {point} is not a point "
                                        f"of {inner} outside {outer}")
                return point
            if stop is None:
                break
            direction = _bent(direction, stop)
    return None


@dataclass(frozen=True)
class PolyUnion:
    disjuncts: tuple[Polyhedron, ...]

    @property
    def empty(self) -> bool:
        return not self.disjuncts

    def contains(self, point: Mapping[str, Fraction]) -> bool:
        return any(contains(d, point) for d in self.disjuncts)


def union_of(pieces: Iterable[Polyhedron]) -> PolyUnion:
    return PolyUnion(tuple(p for p in pieces if not is_empty(p)))


def difference(c: Polyhedron, d: Polyhedron) -> PolyUnion:
    """c minus d, as a union of polyhedra (one per violated face of d)."""
    if c.vars != d.vars:
        raise InternalError("universe mismatch")
    return union_of(make(c.clocks, c.params, c.ineqs + (i.negated(),))
                    for i in d.ineqs)


def union_difference(u: PolyUnion | Polyhedron, v: PolyUnion) -> PolyUnion:
    pieces = [u] if isinstance(u, Polyhedron) else list(u.disjuncts)
    for b in v.disjuncts:
        pieces = [q for p in pieces for q in difference(p, b).disjuncts]
    return union_of(pieces)


# ---------------------------------------------------------------------------
# Parametric-zone checks and integer points


def zone_violation(c: Polyhedron) -> str | None:
    """None if every constraint is rectangular/diagonal with unit clock
    coefficients; otherwise a description of the offending inequality."""
    clockset = set(c.clocks)
    for i in c.ineqs:
        cc = [(n, cf) for n, cf in i.coeffs if n in clockset]
        if not cc:
            continue
        if len(cc) == 1:
            if abs(cc[0][1]) != 1:
                return f"non-unit clock coefficient in {i.render()}"
        elif len(cc) == 2:
            if {cc[0][1], cc[1][1]} != {1, -1}:
                return f"non-difference clock pair in {i.render()}"
        else:
            return f"more than two clocks in {i.render()}"
    return None


def has_integer_point(c: Polyhedron, bounds: Mapping[str, Interval]) -> bool:
    """True iff c contains a point with all-integer clock and parameter
    coordinates, for some integer parameter valuation in the bounds box.
    Each valuation is one exact LP.  It leaves zone rows x - y + k or +-x + k
    (<|<=) 0 with k an integer, and at integer points a strict one is the
    closed row t + k + 1 <= 0.  Closed difference rows over the orthant are
    totally unimodular (Schrijver, Theory of Linear and Integer Programming,
    1986, ch. 19), so they hold an integer point iff they hold a real one."""
    viol = zone_violation(c)
    if viol is not None:
        raise NotAZoneError(viol)
    for p in c.params:
        if p not in bounds:
            raise UnboundedError(f"parameter {p!r} has no bounds")
    if _ineqs_empty(c.ineqs):
        return False
    ranges = [bounds[p].integers() for p in c.params]
    for combo in itertools.product(*ranges):
        rows = _fixed(c.ineqs, dict(zip(c.params, combo)))
        # Not the cached _ineqs_empty: the slices would only fill its cache.
        if _satisfiable(tuple(LinIneq(i.coeffs, i.constant + i.strict, False)
                              for i in rows)):
            return True
    return False


def _fixed(ineqs: Iterable[LinIneq], values: Mapping[str, int]) -> list[LinIneq]:
    """The inequalities with some variables fixed to integers, less the
    trivially true."""
    out = []
    for i in ineqs:
        if any(name in values for name, _ in i.coeffs):
            i = lin({name: cf for name, cf in i.coeffs if name not in values},
                    i.constant + sum(cf * values[name] for name, cf in i.coeffs
                                     if name in values), i.strict)
        if not i.trivially_true:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Deterministic sampling


def sample_point(c: Polyhedron) -> dict[str, Fraction] | None:
    """A rational point of c, or None when empty.  Each coordinate sits at
    the midpoint of its feasible interval (lower bound + 1 when unbounded
    above; the boundary when the interval is a single point).
    Fourier-Motzkin eliminates the variables once, last first, and keeps
    each projection: proj[k] is c projected on the first k + 1 variables.
    Coordinate k's interval is read from proj[k] with the earlier
    coordinates substituted as integer numerators over one common
    denominator (den, num); projection commutes with substitution, so it is
    exactly the set of values that extend the point within c.  Emptiness
    needs no LP: c is empty iff proj[0] is, iff a row of it is false or its
    interval is empty."""
    proj = [list(make(c.clocks, c.params, c.ineqs).ineqs)]
    if any(i.trivially_false for i in proj[0]):
        return None
    for v in reversed(c.vars[1:]):
        proj.append(_eliminate(proj[-1], v))
    proj.reverse()
    den, num = 1, {}
    point: dict[str, Fraction] = {}
    for k, v in enumerate(c.vars):
        lo, hi = (0, 1, False), None
        for i in proj[k]:
            a, s = 0, i.constant * den
            for name, cf in i.coeffs:
                if name == v:
                    a = cf
                else:
                    s += cf * num[name]
            # a*v + s/den (<|<=) 0 bounds v by the ratio -s / (a*den),
            # kept as (n, d, strict) with d > 0.
            if a > 0:
                n, d = -s, a * den
                if hi is None or n * hi[1] < hi[0] * d or (
                        n * hi[1] == hi[0] * d and i.strict):
                    hi = (n, d, i.strict)
            elif a < 0:
                n, d = s, -a * den
                if n * lo[1] > lo[0] * d or (
                        n * lo[1] == lo[0] * d and i.strict):
                    lo = (n, d, i.strict)
        gap = None if hi is None else hi[0] * lo[1] - lo[0] * hi[1]
        if k == 0 and (any(i.trivially_false for i in proj[0]) or (
                gap is not None and (gap < 0 or (
                    gap == 0 and (hi[2] or lo[2]))))):
            return None
        if gap is None:
            value = Fraction(lo[0] + lo[1], lo[1])
        elif gap == 0:
            value = Fraction(lo[0], lo[1])
        else:
            value = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
        point[v] = value
        scale = math.lcm(den, value.denominator)
        num = {name: x * (scale // den) for name, x in num.items()}
        num[v] = value.numerator * (scale // value.denominator)
        den = scale
    if not probe_holds(c.ineqs, (den, num)):
        raise InternalError(f"sample point {point} lies outside its polyhedron")
    return point
