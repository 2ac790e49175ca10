"""Clock regions for instantiated (non-parametric) timed automata.

The construction is the standard one: a region fixes, per clock, either an
integer part up to that clock's maximal constant or "above", plus the
ordering of the fractional parts of the non-above clocks (including which
are exactly integer).  Guards are evaluated "holds throughout the region",
which is exact because the per-clock maximal constants refine every atom.

The graph is built forward from the initial region in one pass, so it
holds only the regions reachable from it, in discovery order, each with
the node and edge that discovered it; no query walks it again.  A yes/no
reachability test (``ta_reach``) stops the build at the first region of a
target location.  A reachability witness (``reach_path``) needs the whole
graph: it follows the parents back from the target region that comes
first in location order, then ``_shape_rank`` order.  Lasso and deadlock
queries build only through their location set.

Queries answered on the graph: location reachability (with a discrete-edge
witness), existence of a reachable cycle with at least one discrete edge,
and existence of a reachable deadlocked region (no discrete edge from it or
any delay descendant).  Delay edges never close a cycle, so the lasso test
peels the nodes without predecessors and asks whether any is left.  A
finite run is maximal iff no discrete extension exists, possibly after a
delay; time divergence is not part of the criterion.  The number of all
regions (``enumeration_size``) is counted clock by clock, not listed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .model import Guard, Ta

Ints = tuple  # per-clock integer part, None meaning "above max constant"
Fracs = tuple  # fracs[0]: indices with zero fraction; then increasing classes


def _max_constants(ta: Ta) -> tuple[int, ...]:
    maxc = {x: 0 for x in ta.clocks}
    for loc in ta.locations:
        for a in loc.invariant:
            maxc[a.clock] = max(maxc[a.clock], a.constant)
    for e in ta.edges:
        for a in e.guard:
            maxc[a.clock] = max(maxc[a.clock], a.constant)
    return tuple(maxc[x] for x in ta.clocks)


def _atom_holds(op: str, c: int, v: int | None, has_frac: bool) -> bool:
    """Truth of ``clock op c`` throughout a region, from the clock's integer
    part (None when above the max constant) and fractional-part flag."""
    if v is None:
        return op in (">=", ">")
    if op in ("<=", "<"):
        return v < c if (has_frac or op == "<") else v <= c
    if op == ">":
        return v >= c if has_frac else v > c
    return v >= c


def _guard_holds(guard: Guard, index: dict[str, int],
                 ints: Ints, zero_set: frozenset[int]) -> bool:
    for a in guard:
        i = index[a.clock]
        if not _atom_holds(a.op, a.constant, ints[i], i not in zero_set):
            return False
    return True


def _delay_successor(ints: Ints, fracs: Fracs,
                     maxc: Sequence[int]) -> tuple[Ints, Fracs] | None:
    active = [i for i, v in enumerate(ints) if v is not None]
    if not active:
        return None
    zero = fracs[0]
    if zero:
        stay = tuple(i for i in zero if ints[i] < maxc[i])
        new_ints = tuple(None if (i in zero and ints[i] == maxc[i]) else v
                         for i, v in enumerate(ints))
        new_fracs = ((),) + ((stay,) if stay else ()) + fracs[1:]
        if all(v is None for v in new_ints):
            new_fracs = ((),)
        return new_ints, new_fracs
    last = set(fracs[-1])
    new_ints = tuple(v + 1 if i in last else v for i, v in enumerate(ints))
    return new_ints, (fracs[-1],) + fracs[1:-1]


def _reset_region(ints: Ints, fracs: Fracs, resets: frozenset[int]) -> tuple[Ints, Fracs]:
    new_ints = tuple(0 if i in resets else v for i, v in enumerate(ints))
    zero = tuple(sorted(set(fracs[0]) | resets))
    positives = tuple(tuple(j for j in cls if j not in resets) for cls in fracs[1:])
    return new_ints, (zero,) + tuple(c for c in positives if c)


def _partition_code(classes: Fracs) -> tuple[int, ...]:
    """Sort key of an ordered partition.  Taking the items from the least
    up, each removed item gets a digit: k if it shares the k-th class, n + k
    if it is alone in the k-th class and n classes are left; the digits of
    greater items weigh more."""
    part = [set(c) for c in classes]
    code = []
    for first in sorted(i for c in classes for i in c):
        k = next(k for k, c in enumerate(part) if first in c)
        if len(part[k]) == 1:
            del part[k]
            code.append(len(part) + k)
        else:
            part[k].discard(first)
            code.append(k)
    return tuple(reversed(code))


def _shape_rank(maxc: Sequence[int], ints: Ints, fracs: Fracs) -> tuple:
    """Sort key that defines the order of shapes: integer parts
    lexicographically, "above" first; then the clocks below their max
    constant with a zero fraction, fewest first, then as a tuple; then the
    ``_partition_code`` of the positive fraction classes."""
    extra = tuple(i for i in fracs[0] if ints[i] != maxc[i])
    return (tuple(-1 if v is None else v for v in ints), len(extra), extra,
            _partition_code(fracs[1:]))


@dataclass
class RegionGraph:
    max_constants: tuple[int, ...]
    nodes: list[tuple[str, Ints, Fracs]]
    delay: dict[int, int]
    discrete_out: dict[int, list[tuple[int, int]]]
    parents: list[tuple[int, int | None] | None]
    _can_fire: dict[int, bool] = field(default_factory=dict)

    def successors(self, i: int) -> Iterator[tuple[int | None, int]]:
        """(edge id or None for delay, target node)."""
        if i in self.delay:
            yield None, self.delay[i]
        for edge_id, j in self.discrete_out.get(i, ()):
            yield edge_id, j

    def reachable(self) -> tuple[set[int], list[tuple[int, int | None] | None]]:
        """Every node (the build makes only reachable ones), and parents."""
        return set(range(len(self.nodes))), self.parents

    def can_fire(self, i: int) -> bool:
        """A discrete edge is available from i or some delay descendant."""
        chain = []
        cur: int | None = i
        while cur is not None and cur not in self._can_fire:
            chain.append(cur)
            cur = self.delay.get(cur)
        value = False if cur is None else self._can_fire[cur]
        for node in reversed(chain):
            value = value or bool(self.discrete_out.get(node))
            self._can_fire[node] = value
        return self._can_fire[i]


def build_region_graph(ta: Ta, targets: frozenset[str] = frozenset(),
                       within: frozenset[str] | None = None) -> RegionGraph:
    """Breadth-first from the initial region: each node adds its delay
    successor, then its discrete successors in edge-id order, and records
    the node and edge (None for a delay) that discovered it.  The build
    stops as soon as it adds a region of a target location, which is then
    the last node of a partial graph.  Under within, a region outside the
    set is added when an edge enters it, so that the edge counts for
    can_fire, but is never expanded."""
    maxc = _max_constants(ta)
    index_of_clock = {x: k for k, x in enumerate(ta.clocks)}
    invariant = {loc.name: loc.invariant for loc in ta.locations}
    edges_from: dict[str, list] = {}
    for edge_id, e in enumerate(ta.edges):
        resets = frozenset(index_of_clock[x] for x in e.resets)
        edges_from.setdefault(e.source, []).append((edge_id, e, resets))

    nodes: list[tuple[str, Ints, Fracs]] = []
    parents: list[tuple[int, int | None] | None] = []
    index: dict[tuple[str, Ints, Fracs], int] = {}
    reached = False

    def node(key: tuple[str, Ints, Fracs],
             parent: tuple[int, int | None] | None) -> int | None:
        nonlocal reached
        j = index.get(key)
        if j is None and _guard_holds(invariant[key[0]], index_of_clock,
                                      key[1], frozenset(key[2][0])):
            j = index[key] = len(nodes)
            nodes.append(key)
            parents.append(parent)
            reached = key[0] in targets
        return j

    h = len(ta.clocks)
    node((ta.init, tuple([0] * h), (tuple(range(h)),)), None)
    delay: dict[int, int] = {}
    discrete_out: dict[int, list[tuple[int, int]]] = {}
    for i, (loc, ints, fracs) in enumerate(nodes):  # nodes grows meanwhile
        if reached:
            break
        if within is not None and loc not in within:
            continue
        nxt = _delay_successor(ints, fracs, maxc)
        if nxt is not None:
            j = node((loc, *nxt), (i, None))
            if j is not None:
                delay[i] = j
        zero_set = frozenset(fracs[0])
        for edge_id, e, resets in edges_from.get(loc, ()):
            if reached:
                break
            if _guard_holds(e.guard, index_of_clock, ints, zero_set):
                j = node((e.target, *_reset_region(ints, fracs, resets)),
                         (i, edge_id))
                if j is not None:
                    discrete_out.setdefault(i, []).append((edge_id, j))
    return RegionGraph(maxc, nodes, delay, discrete_out, parents)


def _shape_count(ta: Ta, maxc: Sequence[int], invariant: Guard,
                 allowed: Sequence[Sequence[int | None]]) -> int:
    """Number of shapes, with clock i's integer part in allowed[i], on which
    the invariant holds throughout.  Each clock takes one of a values with a
    zero fraction or above, or one of b below its max constant with a
    positive fraction; it then joins one of the k ordered classes of positive
    fractions so far, or opens a new one in one of k + 1 places."""
    counts = [1]  # counts[k]: choices so far with k positive fraction classes
    for x, top, values in zip(ta.clocks, maxc, allowed):
        atoms = [a for a in invariant if a.clock == x]

        def holds(v: int | None, has_frac: bool) -> bool:
            return all(_atom_holds(a.op, a.constant, v, has_frac) for a in atoms)
        a = sum(holds(v, False) for v in values)
        b = sum(holds(v, True) for v in values if v is not None and v < top)
        counts = [(a + b * k) * c + b * k * p
                  for k, (c, p) in enumerate(zip(counts + [0], [0] + counts))]
    return sum(counts)


def enumeration_size(ta: Ta) -> tuple[int, int | None]:
    """Number of regions of every location whose invariant holds throughout,
    and the position of the initial region among them (None if absent), in
    location order, then ``_shape_rank`` order."""
    maxc = _max_constants(ta)
    every = [[None, *range(top + 1)] for top in maxc]
    counts = [_shape_count(ta, maxc, loc.invariant, every) for loc in ta.locations]
    k = next(k for k, loc in enumerate(ta.locations) if loc.name == ta.init)
    invariant = ta.locations[k].invariant
    if not all(_atom_holds(a.op, a.constant, 0, False) for a in invariant):
        return sum(counts), None
    # Before the initial shape come, for each j, the shapes with clocks
    # 0..j-1 at 0 and clock j above; then those with every integer part 0,
    # of which the initial one, all fractions zero, is the last.
    h = len(maxc)
    before = sum(_shape_count(ta, maxc, invariant,
                              [[0]] * j + [[None]] + every[j + 1:])
                 for j in range(h))
    before += _shape_count(ta, maxc, invariant, [[0]] * h) - 1
    return sum(counts), sum(counts[:k]) + before


def ta_reach(ta: Ta, targets: Iterable[str]) -> bool:
    """Some region of a target location is reachable.  Every node of the
    graph is reachable, and the build stops at the first target region, so
    the last node tells."""
    targets = frozenset(targets)
    nodes = build_region_graph(ta, targets).nodes
    return bool(nodes) and nodes[-1][0] in targets


def reach_path(ta: Ta, targets: Iterable[str]) -> list[int] | None:
    """Discrete edge ids of a run reaching the target set, or None."""
    targets = frozenset(targets)
    graph = build_region_graph(ta)
    order = {loc.name: k for k, loc in enumerate(ta.locations)}
    hits = [i for i, key in enumerate(graph.nodes) if key[0] in targets]
    if not hits:
        return None
    goal = min(hits, key=lambda i: (order[graph.nodes[i][0]], _shape_rank(
        graph.max_constants, graph.nodes[i][1], graph.nodes[i][2])))
    path: list[int] = []
    step = graph.parents[goal]
    while step is not None:
        cur, edge_id = step
        if edge_id is not None:
            path.append(edge_id)
        step = graph.parents[cur]
    path.reverse()
    return path


def _inside(ta: Ta, within: Iterable[str]) -> tuple[RegionGraph, set[int]]:
    """The graph built through the location set, and its nodes inside it:
    exactly the regions reachable by runs that stay within the set."""
    within = frozenset(within)
    graph = build_region_graph(ta, within=within)
    return graph, {i for i, key in enumerate(graph.nodes) if key[0] in within}


def ta_lasso(ta: Ta, within: Iterable[str]) -> bool:
    """A reachable cycle with at least one discrete edge, all locations
    within the given set (the path to the cycle stays within it too)."""
    graph, inside = _inside(ta, within)
    # A delay step strictly raises 2 * sum(ints) + [zero class empty], with
    # "above" counted as max + 1, so delays alone close no cycle and every
    # cycle holds a discrete edge.  Peel the nodes that no edge inside
    # enters (Kahn): a cycle is left iff some node is.
    succ = {i: [j for _, j in graph.successors(i) if j in inside] for i in inside}
    indegree = Counter(j for targets in succ.values() for j in targets)
    free = [i for i in inside if not indegree[i]]
    left = len(inside)
    while free:
        left -= 1
        for j in succ[free.pop()]:
            indegree[j] -= 1
            if not indegree[j]:
                free.append(j)
    return left > 0


def ta_deadlock(ta: Ta) -> bool:
    return deadlock_within(ta, (loc.name for loc in ta.locations))


def deadlock_within(ta: Ta, within: Iterable[str]) -> bool:
    """A region reachable through the location set from which no discrete
    edge is available, now or after any sequence of delays."""
    graph, inside = _inside(ta, within)
    return any(not graph.can_fire(i) for i in inside)
