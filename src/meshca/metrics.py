"""Interference estimation metrics over (Topology, ChannelAssignment).

Three interchangeable scoring functions:

* tid       -- total interference degree: sum over realized links of their
               conflict counts (twice the conflict-edge count). Lower is better.
* cdal_cost -- population standard deviation of the fractional per-channel
               link counts; 0 means perfectly balanced channel usage. Lower
               is better.
* cxls_wt   -- cumulative weight of all x-hop link sets: for each x-hop
               simple path, the mean (over per-hop link choices) number of
               hops operating on a channel no other hop uses. Higher is
               better.

All are pure functions of their inputs; identical inputs give bit-identical
results.

Every metric depends on an assignment only through its per-node channel
histogram h[v][ch], and an adjacent pair (u, v) has h[u][ch] * h[v][ch]
realized links on channel ch. LinkState scores from those link counts and
lets the optimizer retune one radio at a time, updating only the pairs and
paths that touch the radio's node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import ValidationError
from .topology import (
    CACHE_SIZE,
    ChannelAssignment,
    RadioId,
    Topology,
    check_assignment,
    compile_topology,
    conflict_degrees,
    links_connected,
    node_histograms,
    pair_links,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

#: canonical metric names accepted everywhere a metric is selected by name
METRICS = ("tid", "cdal", "cxls")

#: each metric's name in reports (score output, experiment columns); a
#: report name is also accepted wherever a metric is selected by name
METRIC_COLUMNS = {"tid": "tid", "cdal": "cdal_cost", "cxls": "cxls_wt"}

#: the connectivity rules a LinkState can be held to: "global" asks that the
#: linked pairs connect every node, "per-pair" that every adjacent pair keeps
#: a realized link
CONNECTIVITY_RULES = ("global", "per-pair")


@dataclass(frozen=True)
class IemScore:
    metric: str
    value: float
    direction: str

    def __post_init__(self):
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ValidationError(f"bad direction {self.direction!r}")


def better(a: IemScore, b: IemScore) -> bool:
    """True iff a strictly beats b in the metric's direction. Ties are not better."""
    if a.direction != b.direction:
        raise ValidationError(
            f"cannot compare scores with directions {a.direction} and {b.direction}"
        )
    if a.direction == MAXIMIZE:
        return a.value > b.value
    return a.value < b.value


def tid(topo: Topology, ca: ChannelAssignment) -> IemScore:
    """Sum of interference degrees of all realized links."""
    return LinkState(topo, ca, "tid").score()


def cdal_cost(topo: Topology, ca: ChannelAssignment) -> IemScore:
    """Population standard deviation of the channel loads (zero-load channels count)."""
    return LinkState(topo, ca, "cdal").score()


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_xls(topo: Topology, x: int) -> tuple[tuple[int, ...], ...]:
    """All simple x-hop paths of the potential graph, canonical, sorted."""
    if x < 1:
        raise ValidationError("x must be >= 1")
    inst = compile_topology(topo)
    ids = inst.ids
    # each node's neighbour ids, ascending as incident is; extend refers to
    # itself, so it lives until a garbage collection and must not hold inst
    nbrs = {ids[i]: [ids[w] for _, w in inc] for i, inc in enumerate(inst.incident)}
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]):
        if len(path) == x + 1:
            if path[0] < path[-1]:
                found.append(tuple(path))
            return
        for nxt in nbrs[path[-1]]:
            if nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in nbrs:
        extend([start])
    return tuple(sorted(found))


def cxls_wt(topo: Topology, ca: ChannelAssignment, x: int | None = None) -> IemScore:
    """Sum of path_weight over every x-hop path (x defaults to interference_x).

    Networks too small to contain any x-hop path score 0 (empty sum).
    """
    return LinkState(topo, ca, "cxls", x).score()


def score(
    metric: str, topo: Topology, ca: ChannelAssignment, x: int | None = None
) -> IemScore:
    """Dispatch to the named metric (one of METRICS)."""
    name = canonical_metric(metric)
    if name == "tid":
        return tid(topo, ca)
    if name == "cdal":
        return cdal_cost(topo, ca)
    return cxls_wt(topo, ca, x)


def canonical_metric(metric: str) -> str:
    if not isinstance(metric, str):
        raise ValidationError(f"unknown metric {metric!r}; expected one of {METRICS}")
    name = metric.strip().lower()
    name = {column: name for name, column in METRIC_COLUMNS.items()}.get(name, name)
    if name not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return name


def canonical_rule(rule: str) -> str:
    """The connectivity rule named case-blind, lower-cased; one of CONNECTIVITY_RULES."""
    name = rule.lower() if isinstance(rule, str) else rule
    if name not in CONNECTIVITY_RULES:
        raise ValidationError(
            f"unknown connectivity rule {rule!r}; expected one of {CONNECTIVITY_RULES}"
        )
    return name


def all_scores(topo: Topology, ca: ChannelAssignment, x: int | None = None) -> dict[str, float]:
    """Convenience: value of every metric for one assignment."""
    return {name: score(name, topo, ca, x).value for name in METRICS}


# ---------------------------------------------------------------------------
# Scoring from the per-node channel histogram
# ---------------------------------------------------------------------------

#: each metric's optimization direction
DIRECTIONS = {"tid": MINIMIZE, "cdal": MINIMIZE, "cxls": MAXIMIZE}


@lru_cache(maxsize=CACHE_SIZE)
def xls_paths(
    topo: Topology, x: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The paths of enumerate_xls in compiled form.

    Returns (hops, through): hops[i] lists the adjacent-pair indices of path
    i's hops, and through[v] the indices of the paths that pass through node
    index v (the paths whose weight a retune of node v can change).
    """
    inst = compile_topology(topo)
    paths = enumerate_xls(topo, x)
    hops = tuple(
        tuple(inst.pair_index[(a, b) if a < b else (b, a)] for a, b in zip(path, path[1:]))
        for path in paths
    )
    through: list[list[int]] = [[] for _ in inst.ids]
    for i, path in enumerate(paths):
        for node in path:
            through[inst.index[node]].append(i)
    return hops, tuple(tuple(t) for t in through)


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n / d) correctly rounded: a root of >= 54 bits rounded to odd, then to float."""
    q = (n.bit_length() - d.bit_length() - 109) // 2
    n, d = (n, d << 2 * q) if q >= 0 else (n << -2 * q, d)
    root = math.isqrt(n // d)
    root |= root * root * d != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def path_weight(links: list[list[int]], k: list[int], hops: tuple[int, ...], scale: int) -> int:
    """The x-hop link-set weight of one path times scale (hops: its adjacent-pair indices).

    The weight is the mean number of uniquely-channeled hops over all
    prod(k) per-hop link choices; a hop with no realized link makes it 0,
    and it lies in [0, x]. Hop i is on channel ch in L_i,ch of the choices
    and each other hop j avoids ch in k_j - L_j,ch, so the uniquely-channeled
    hops total sum_i sum_ch L_i,ch * prod_{j!=i}(k_j - L_j,ch). That integer
    over prod(k) is the enumeration's own total / count; scale must be a
    multiple of prod(k), such as unit ** x, so the result is exact.
    """
    count = 1
    for p in hops:
        count *= k[p]
    if not count:
        return 0
    total = 0
    for per_channel in links:
        on = [per_channel[p] for p in hops]
        for i, n in enumerate(on):
            if n:
                term = n
                for j, p in enumerate(hops):
                    if j != i:
                        term *= k[p] - on[j]
                total += term
    return total * (scale // count)


class LinkState:
    """One assignment as a per-node channel histogram, scored incrementally.

    Holds a copy of the assignment (ca), its histogram (h, see
    node_histograms), the realized-link counts derived from it (links[ch][p]
    and k[p], see pair_links) and the value of one metric (none when metric
    is None). The constructor validates the assignment and scores it in
    full, tid as the sum of L * D over conflict_degrees. cdal and cxls are
    exact integers over a power of unit = lcm(1..m^2), which every k[p]
    divides, and each score rounds once. retune() moves one radio and
    touches only the pairs incident to its node: tid changes by an exact
    integer delta, the cxls weights of the paths through the node are
    recomputed when scored and move their total by the difference, and cdal
    is recomputed from the link counts when scored. Every value is
    bit-identical to a full recompute. The state is held to one connectivity
    rule (see CONNECTIVITY_RULES), which feasible() answers; under the global
    rule connectivity is rechecked only after an incident pair lost its last
    link or gained its first.
    """

    def __init__(
        self,
        topo: Topology,
        ca: ChannelAssignment,
        metric: str | None = None,
        x: int | None = None,
        rule: str = "global",
    ):
        check_assignment(topo, ca)
        self.inst = inst = compile_topology(topo)
        self.metric = None if metric is None else canonical_metric(metric)
        self.rule = canonical_rule(rule)
        self.ca = dict(ca)
        self.h = node_histograms(inst, ca)
        self.links, self.k = pair_links(inst, self.h)
        self._unlinked = self.k.count(0)
        self._connected: bool | None = None
        self.unit = math.lcm(*range(1, topo.radios_per_node**2 + 1))
        if self.metric == "tid":
            self._tid = sum(
                n * d
                for ns, ds in zip(self.links, conflict_degrees(inst, self.links))
                for n, d in zip(ns, ds)
            )
        elif self.metric == "cxls":
            x = topo.interference_x if x is None else x
            self._hops, self._through = xls_paths(topo, x)
            self._scale = self.unit**x
            self._weights = [path_weight(self.links, self.k, p, self._scale) for p in self._hops]
            self._total = sum(self._weights)
            self._dirty: set[int] = set()

    def retune(self, radio: RadioId, ch: int) -> None:
        """Move one radio to channel ch."""
        old = self.ca[radio]
        if ch == old:
            return
        self.ca[radio] = ch
        v = self.inst.index[radio[0]]
        incident = self.inst.incident[v]
        h, k = self.h, self.k
        from_links, to_links = self.links[old], self.links[ch]
        if self.metric == "tid":
            self._tid += self._tid_delta(incident, from_links, old, -1)
            self._tid += self._tid_delta(incident, to_links, ch, 1)
        elif self.metric == "cxls":
            self._dirty.add(v)
        h[v][old] -= 1
        h[v][ch] += 1
        lost = gained = False
        for p, w in incident:
            lose, gain = h[w][old], h[w][ch]
            if lose != gain:
                before = k[p]
                after = k[p] = before - lose + gain
                if not after:
                    lost = True
                    self._unlinked += 1
                elif not before:
                    gained = True
                    self._unlinked -= 1
            from_links[p] -= lose
            to_links[p] += gain
        if (lost and self._connected) or (gained and self._connected is False):
            self._connected = None

    def _tid_delta(self, incident, per_channel: list[int], ch: int, sign: int) -> int:
        """tid change on channel ch when each incident pair p gets d_p = sign * h[w][ch] links more.

        The pairs of one node are pairwise in reach, so the quadratic form
        changes by sum_p d_p * (2 * (L_p + N_p) - 1) + (sum_p d_p)^2, where
        N_p counts the links on ch of the pairs within reach of p.
        """
        get = per_channel.__getitem__
        reach = self.inst.reach
        h = self.h
        total = dsum = 0
        for p, w in incident:
            d = sign * h[w][ch]
            if d:
                total += d * (2 * (per_channel[p] + sum(map(get, reach[p]))) - 1)
                dsum += d
        return total + dsum * dsum

    def feasible(self) -> bool:
        """Whether the current assignment meets the state's connectivity rule."""
        if self.rule == "per-pair":
            return not self._unlinked
        if self._connected is None:
            self._connected = links_connected(self.inst, self.k)
        return self._connected

    def load_numerators(self) -> list[int]:
        """Each channel's load times unit: pair p adds unit // k[p] per link."""
        shares = [self.unit // n if n else 0 for n in self.k]
        return [sum(map(mul, per_channel, shares)) for per_channel in self.links]

    def score(self) -> IemScore:
        """The tracked metric's score of the current assignment."""
        if self.metric == "tid":
            value = float(self._tid)
        elif self.metric == "cdal":
            loads = self.load_numerators()
            c, total = len(loads), sum(loads)
            value = _sqrt_ratio(c * sum(n * n for n in loads) - total**2, (c * self.unit) ** 2)
        else:
            if self._dirty:
                stale = set().union(*(self._through[v] for v in self._dirty))
                for i in stale:
                    w = path_weight(self.links, self.k, self._hops[i], self._scale)
                    self._total += w - self._weights[i]
                    self._weights[i] = w
                self._dirty.clear()
            value = self._total / self._scale
        return IemScore(self.metric, value, DIRECTIONS[self.metric])
