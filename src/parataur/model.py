"""Model types for parametric timed automata.

A PTA here is a finite automaton over clocks and parameters whose guards and
invariants are conjunctions of atoms ``clock op (p1 + ... + pk + d)`` with
parameter coefficients in {0, 1} and an integer constant d.  Equality atoms
are expanded into a <= / >= pair when parsing, so stored models only carry
the four strict/non-strict comparison operators.

The module also provides the two instantiation maps (at a concrete rational
valuation, and at the lower/upper extreme valuations of an L/U model) and the
syntactic classification used to dispatch decision procedures.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import (
    InternalError,
    MalformedBoundsError,
    ModelSyntaxError,
    NotLUError,
    OpenBoundsError,
    UnboundedUniversalityError,
    UnknownIdentifierError,
)

OPS = ("<", "<=", ">=", ">")
UPPER_OPS = ("<", "<=")
LOWER_OPS = (">=", ">")

MIN_LOWER_MAX_UPPER = "min_lower_max_upper"
MAX_LOWER_MIN_UPPER = "max_lower_min_upper"

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_INT_RE = re.compile(r"-?\d+")
_ATOM_RE = re.compile(r"^\s*(\S+)\s*(<=|>=|=|<|>)\s*(.*?)\s*$")


@dataclass(frozen=True)
class GuardAtom:
    """One conjunct ``clock op (sum of params + constant)``."""

    clock: str
    op: str
    params: frozenset[str] = frozenset()
    constant: int = 0

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"bad operator {self.op!r}")

    @property
    def is_strict(self) -> bool:
        return self.op in ("<", ">")

    @property
    def is_upper(self) -> bool:
        return self.op in UPPER_OPS


Guard = tuple[GuardAtom, ...]


def eq_atoms(clock: str, params: Iterable[str] = (), constant: int = 0) -> Guard:
    """Expansion of an equality atom into its <= / >= pair."""
    ps = frozenset(params)
    return (
        GuardAtom(clock, "<=", ps, constant),
        GuardAtom(clock, ">=", ps, constant),
    )


def atom(clock: str, op: str, params: Iterable[str] = (), constant: int = 0) -> GuardAtom:
    return GuardAtom(clock, op, frozenset(params), constant)


@dataclass(frozen=True)
class Location:
    name: str
    invariant: Guard = ()


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    action: str
    guard: Guard = ()
    resets: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Interval:
    """Bounds interval with natural endpoints; openness per endpoint."""

    inf: int
    sup: int
    inf_open: bool = False
    sup_open: bool = False

    def __post_init__(self):
        if self.inf < 0 or self.sup < self.inf:
            raise MalformedBoundsError(f"bad interval [{self.inf}, {self.sup}]")
        if self.inf == self.sup and (self.inf_open or self.sup_open):
            raise MalformedBoundsError("interval is empty")

    @property
    def closed(self) -> bool:
        return not (self.inf_open or self.sup_open)

    def integers(self) -> range:
        lo = self.inf + 1 if self.inf_open else self.inf
        hi = self.sup - 1 if self.sup_open else self.sup
        return range(lo, hi + 1)


@dataclass(frozen=True)
class ParamValuation:
    """Map from parameter names to nonnegative rationals."""

    items: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        for name, value in self.items:
            if value < 0:
                raise ValueError(f"negative value for {name}")

    @classmethod
    def of(cls, mapping: Mapping[str, Fraction | int]) -> "ParamValuation":
        return cls(tuple(sorted((k, Fraction(v)) for k, v in mapping.items())))

    def __getitem__(self, name: str) -> Fraction:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.items)

    def names(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.items)


@dataclass(frozen=True, eq=True)
class Pta:
    """A parametric timed automaton with optional parameter bounds."""

    name: str
    clocks: tuple[str, ...]
    parameters: tuple[str, ...]
    locations: tuple[Location, ...]
    init: str
    edges: tuple[Edge, ...]
    bounds: tuple[tuple[str, Interval], ...] | None = None

    def __post_init__(self):
        names = list(self.clocks) + list(self.parameters)
        if not all(isinstance(n, str) and _IDENT_RE.fullmatch(n) for n in names):
            raise ModelSyntaxError("clocks and parameters must be identifiers")
        if len(set(names)) != len(names):
            raise ModelSyntaxError("clock/parameter names not distinct")
        loc_names = [loc.name for loc in self.locations]
        if len(set(loc_names)) != len(loc_names):
            raise ModelSyntaxError("duplicate location names")
        if self.init not in set(loc_names):
            raise UnknownIdentifierError(f"unknown initial location {self.init!r}")
        if self.bounds is not None:
            if tuple(p for p, _ in self.bounds) != self.parameters:
                raise MalformedBoundsError(
                    "bounds must cover all parameters or none"
                )
        clocks = set(self.clocks)
        params = set(self.parameters)
        for loc in self.locations:
            self._check_guard(loc.invariant, clocks, params, f"invariant of {loc.name}")
        for idx, e in enumerate(self.edges):
            where = f"edge #{idx}"
            if e.source not in set(loc_names):
                raise UnknownIdentifierError(f"unknown source {e.source!r} in {where}")
            if e.target not in set(loc_names):
                raise UnknownIdentifierError(f"unknown target {e.target!r} in {where}")
            if not e.resets <= clocks:
                raise UnknownIdentifierError(f"reset of non-clock in {where}")
            self._check_guard(e.guard, clocks, params, where)

    @staticmethod
    def _check_guard(guard: Guard, clocks: set, params: set, where: str):
        for a in guard:
            if a.clock not in clocks:
                raise UnknownIdentifierError(f"unknown clock {a.clock!r} in {where}")
            if not a.params <= params:
                bad = sorted(a.params - params)
                raise UnknownIdentifierError(f"unknown parameter {bad[0]!r} in {where}")

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

    def invariant(self, name: str) -> Guard:
        return self.location(name).invariant

    def bounds_map(self) -> dict[str, Interval] | None:
        return None if self.bounds is None else dict(self.bounds)

    def all_atoms(self) -> Iterator[GuardAtom]:
        for loc in self.locations:
            yield from loc.invariant
        for e in self.edges:
            yield from e.guard


@dataclass(frozen=True)
class Ta:
    """A (non-parametric) timed automaton: the image of a PTA under a
    parameter valuation, with constants rescaled to integers."""

    name: str
    clocks: tuple[str, ...]
    locations: tuple[Location, ...]
    init: str
    edges: tuple[Edge, ...]
    scale: int = 1

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        for loc in self.locations:
            for a in loc.invariant:
                if a.params:
                    raise ValueError("parameter left in instantiated invariant")
        for e in self.edges:
            for a in e.guard:
                if a.params:
                    raise ValueError("parameter left in instantiated guard")


@dataclass(frozen=True)
class Classification:
    """Syntactic subclass flags driving procedure dispatch."""

    lu_partition: tuple[frozenset[str], frozenset[str]] | None
    is_closed: bool
    is_bounded: bool
    bounds_all_closed: bool
    is_reset_pta: bool
    ip_sufficient: bool


# ---------------------------------------------------------------------------
# Atom grammar


def parse_atom(text: str, clocks: Iterable[str], params: Iterable[str],
               where: str = "atom") -> Guard:
    """Parse one atom string; equality expands to two atoms."""
    clocks = set(clocks)
    params = set(params)
    m = _ATOM_RE.match(text)
    if not m:
        raise ModelSyntaxError(f"cannot parse atom {text!r}", where)
    lhs, op, rhs = m.group(1), m.group(2), m.group(3)
    if not _IDENT_RE.fullmatch(lhs):
        if re.fullmatch(r"\d+[A-Za-z_]\w*", lhs):
            raise ModelSyntaxError(
                f"coefficient not in {{0,1}} at position 0 in {text!r}", where)
        raise ModelSyntaxError(f"left-hand side must be a clock in {text!r}", where)
    if lhs not in clocks:
        raise UnknownIdentifierError(f"unknown clock {lhs!r} in {where}")
    seen_params: list[str] = []
    constant: int | None = None
    for raw in rhs.split("+"):
        token = raw.strip()
        pos = text.index(raw.strip(), len(lhs)) if token else len(text)
        if not token:
            raise ModelSyntaxError(f"empty term at position {pos} in {text!r}", where)
        if _INT_RE.fullmatch(token):
            if constant is not None:
                raise ModelSyntaxError(
                    f"more than one integer constant at position {pos} in {text!r}",
                    where)
            constant = int(token)
        elif _IDENT_RE.fullmatch(token):
            if token not in params:
                raise UnknownIdentifierError(
                    f"unknown parameter {token!r} in {where}")
            if token in seen_params:
                raise ModelSyntaxError(
                    f"parameter {token!r} repeated at position {pos} in {text!r}",
                    where)
            seen_params.append(token)
        elif re.fullmatch(r"\d+\s*\*?\s*[A-Za-z_]\w*", token):
            raise ModelSyntaxError(
                f"coefficient not in {{0,1}} at position {pos} in {text!r}", where)
        else:
            raise ModelSyntaxError(
                f"cannot parse term {token!r} at position {pos} in {text!r}", where)
    ps = frozenset(seen_params)
    k = 0 if constant is None else constant
    if op == "=":
        return eq_atoms(lhs, ps, k)
    return (GuardAtom(lhs, op, ps, k),)


def render_atom(a: GuardAtom) -> str:
    terms = sorted(a.params)
    if a.constant != 0 or not terms:
        terms = terms + [str(a.constant)]
    return f"{a.clock} {a.op} {' + '.join(terms)}"


# ---------------------------------------------------------------------------
# Model JSON


def _strings(entry: dict, key: str, where: str) -> list[str]:
    """entry[key], absent meaning empty, checked to be an array of strings."""
    value = entry.get(key, [])
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ModelSyntaxError(f"{key!r} must be an array of strings", where)
    return value


def parse_model(text: str | bytes) -> Pta:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelSyntaxError("model must be a JSON object")
    for key in ("clocks", "parameters", "locations", "init", "edges"):
        if key not in doc:
            raise ModelSyntaxError(f"missing key {key!r}")
        kind = "string" if key == "init" else "array"
        if not isinstance(doc[key], str if key == "init" else list):
            raise ModelSyntaxError(f"{key!r} must be a JSON {kind}")
    name = doc.get("name", "model")
    if not isinstance(name, str):
        raise ModelSyntaxError("'name' must be a JSON string")
    clocks = tuple(doc["clocks"])
    if not all(isinstance(c, str) and _IDENT_RE.fullmatch(c) for c in clocks):
        raise ModelSyntaxError("clocks must be identifiers")

    params: list[str] = []
    bounds: list[tuple[str, Interval]] = []
    bounded_flags: list[bool] = []
    for entry in doc["parameters"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ModelSyntaxError("parameter entries must be objects with a name")
        pname = entry["name"]
        if not (isinstance(pname, str) and _IDENT_RE.fullmatch(pname)):
            raise ModelSyntaxError(f"bad parameter name {pname!r}")
        params.append(pname)
        has_min = "min" in entry
        has_max = "max" in entry
        if has_min != has_max:
            raise MalformedBoundsError(f"parameter {pname!r} needs both min and max")
        bounded_flags.append(has_min)
        if has_min:
            lo, hi = entry["min"], entry["max"]
            if not all(isinstance(b, int) and not isinstance(b, bool)
                       for b in (lo, hi)):
                raise MalformedBoundsError(
                    f"bounds of {pname!r} must be natural numbers")
            opens = [entry.get(key, False) for key in ("min_open", "max_open")]
            if not all(isinstance(o, bool) for o in opens):
                raise ModelSyntaxError(
                    f"'min_open' and 'max_open' of {pname!r} must be JSON booleans")
            bounds.append((pname, Interval(lo, hi, *opens)))
    if bounded_flags and any(bounded_flags) and not all(bounded_flags):
        raise MalformedBoundsError("bounds must cover all parameters or none")

    locations = []
    for entry in doc["locations"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ModelSyntaxError("location entries must be objects with a name")
        where = f"invariant of {entry['name']}"
        locations.append(Location(entry["name"], tuple(
            a for s in _strings(entry, "invariant", where)
            for a in parse_atom(s, clocks, params, where))))

    edges = []
    for idx, entry in enumerate(doc["edges"]):
        where = f"edge #{idx}"
        if not isinstance(entry, dict):
            raise ModelSyntaxError("edge entries must be objects", where)
        for key in ("from", "to"):
            if not isinstance(entry.get(key), str):
                raise ModelSyntaxError(f"{key!r} must be a location name", where)
        if not isinstance(entry.get("action", "a"), str):
            raise ModelSyntaxError("'action' must be a JSON string", where)
        guard = tuple(a for s in _strings(entry, "guard", where)
                      for a in parse_atom(s, clocks, params, where))
        edges.append(Edge(entry["from"], entry["to"], entry.get("action", "a"),
                          guard, frozenset(_strings(entry, "resets", where))))

    return Pta(name=name, clocks=clocks, parameters=tuple(params),
               locations=tuple(locations), init=doc["init"],
               edges=tuple(edges),
               bounds=tuple(bounds) if any(bounded_flags) else None)


def _automaton_doc(automaton: Pta | Ta) -> dict:
    """The name, clocks, locations and edges shared by both model formats."""
    return {
        "name": automaton.name,
        "clocks": list(automaton.clocks),
        "locations": [
            {"name": loc.name, "invariant": [render_atom(a) for a in loc.invariant]}
            for loc in automaton.locations
        ],
        "init": automaton.init,
        "edges": [
            {"from": e.source, "to": e.target, "action": e.action,
             "guard": [render_atom(a) for a in e.guard],
             "resets": sorted(e.resets)}
            for e in automaton.edges
        ],
    }


def serialize(pta: Pta) -> str:
    bounds = pta.bounds_map() or {}
    params = []
    for p in pta.parameters:
        entry: dict = {"name": p}
        if p in bounds:
            iv = bounds[p]
            entry["min"] = iv.inf
            entry["max"] = iv.sup
            if iv.inf_open:
                entry["min_open"] = True
            if iv.sup_open:
                entry["max_open"] = True
        params.append(entry)
    doc = {**_automaton_doc(pta), "parameters": params}
    return json.dumps(doc, indent=2, sort_keys=True)


def serialize_ta(ta: Ta) -> str:
    doc = {**_automaton_doc(ta), "scale": ta.scale}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Classification


def classify(pta: Pta) -> Classification:
    used_upper: set[str] = set()
    used_lower: set[str] = set()
    closed = True
    reset_shape = True
    for a in pta.all_atoms():
        if a.is_strict:
            closed = False
        if a.is_upper:
            used_upper |= a.params
        else:
            used_lower |= a.params
        if a.is_strict or len(a.params) > 1:
            reset_shape = False

    if used_upper & used_lower:
        lu = None
    else:
        lower = (set(pta.parameters) - used_upper) | used_lower
        lu = (frozenset(lower), frozenset(used_upper))

    reset_all = True
    clocks = frozenset(pta.clocks)
    for e in pta.edges:
        mentions = any(a.params for a in e.guard)
        mentions = mentions or any(a.params for a in pta.invariant(e.source))
        if mentions and e.resets != clocks:
            reset_all = False
            break
    is_reset = reset_shape and reset_all

    bounded = pta.bounds is not None or not pta.parameters
    bounds = pta.bounds_map() or {}
    all_closed = bounded and all(iv.closed for iv in bounds.values())

    return Classification(
        lu_partition=lu,
        is_closed=closed,
        is_bounded=bounded,
        bounds_all_closed=all_closed,
        is_reset_pta=is_reset,
        ip_sufficient=(closed and lu is not None) or is_reset,
    )


# ---------------------------------------------------------------------------
# Instantiation


def _scale_guard(guard: Guard, values: Iterable[Fraction | int],
                 scale: int) -> Guard:
    """The guard with each atom's value (its constant plus its parameters)
    multiplied by scale, which must leave an integer."""
    out = []
    for a, value in zip(guard, values):
        scaled = value * scale
        if scaled.denominator != 1:
            raise InternalError(f"scale {scale} leaves {scaled} in a guard")
        out.append(GuardAtom(a.clock, a.op, frozenset(), int(scaled)))
    return tuple(out)


def instantiate(pta: Pta, v: ParamValuation) -> Ta:
    """Image of the PTA under a concrete valuation, with every constant
    multiplied by the least common denominator so the result is integer."""
    if v.names() != frozenset(pta.parameters):
        raise UnknownIdentifierError(
            f"valuation domain {sorted(v.names())} != parameters")
    point = v.as_dict()
    if all(x.denominator == 1 for x in point.values()):
        point = {p: x.numerator for p, x in point.items()}
    guards = [loc.invariant for loc in pta.locations] + [e.guard for e in pta.edges]
    values = [[a.constant + sum(point[p] for p in a.params) for a in g]
              for g in guards]
    scale = math.lcm(1, *(x.denominator for vs in values for x in vs))
    scaled = [_scale_guard(g, vs, scale) for g, vs in zip(guards, values)]
    locations = tuple(Location(loc.name, g)
                      for loc, g in zip(pta.locations, scaled))
    edges = tuple(Edge(e.source, e.target, e.action, g, e.resets)
                  for e, g in zip(pta.edges, scaled[len(pta.locations):]))
    return Ta(pta.name, pta.clocks, locations, pta.init, edges, scale)


def extreme_valuation(pta: Pta, mode: str) -> dict[str, Fraction | None]:
    """Extreme L/U valuation; None marks an upper parameter sent to infinity
    (its atoms are then deleted by instantiate_extreme)."""
    if mode not in (MIN_LOWER_MAX_UPPER, MAX_LOWER_MIN_UPPER):
        raise ValueError(f"bad mode {mode!r}")
    cls = classify(pta)
    if cls.lu_partition is None:
        raise NotLUError("model has no lower/upper parameter partition")
    lower, upper = cls.lu_partition
    bounds = pta.bounds_map()
    if bounds is not None and not all(iv.closed for iv in bounds.values()):
        raise OpenBoundsError("extreme instantiation requires closed bounds")
    out: dict[str, Fraction | None] = {}
    for p in pta.parameters:
        is_lower = p in lower
        if bounds is None:
            if mode == MIN_LOWER_MAX_UPPER:
                out[p] = Fraction(0) if is_lower else None
            else:
                raise UnboundedUniversalityError(
                    "worst-case valuation needs finite bounds")
        else:
            iv = bounds[p]
            if mode == MIN_LOWER_MAX_UPPER:
                out[p] = Fraction(iv.inf if is_lower else iv.sup)
            else:
                out[p] = Fraction(iv.sup if is_lower else iv.inf)
    return out


def instantiate_extreme(pta: Pta, mode: str) -> Ta:
    """Instantiate at the extreme valuation for an L/U model.  Atoms that
    mention an unbounded upper parameter are deleted (they hold at infinity)."""
    ext = extreme_valuation(pta, mode)
    infinite = {p for p, val in ext.items() if val is None}

    def strip(guard: Guard) -> Guard:
        return tuple(a for a in guard if not (a.params & infinite))

    finite = ParamValuation.of({p: val for p, val in ext.items() if val is not None})
    stripped = Pta(
        name=pta.name, clocks=pta.clocks,
        parameters=tuple(p for p in pta.parameters if p not in infinite),
        locations=tuple(Location(l.name, strip(l.invariant)) for l in pta.locations),
        init=pta.init,
        edges=tuple(Edge(e.source, e.target, e.action, strip(e.guard), e.resets)
                    for e in pta.edges),
        bounds=None,
    )
    return instantiate(stripped, finite)
