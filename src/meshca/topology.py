"""Mesh network model: nodes, radios, ranges and realized links.

A Topology is immutable and hashable. Its geometry (adjacent node pairs,
interference reach between pairs) comes from one sweep over the nodes in x
order. Everything derived from a topology lives on its CompiledTopology;
compile_topology keeps the CACHE_SIZE most recently used ones, so repeated
scoring of channel assignments stays cheap while memory stays bounded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    ConnectivityError,
    IncompleteAssignmentError,
    RangeConfigError,
    ValidationError,
    as_float,
    is_integer,
    positive_float,
)

# A radio is addressed as (node id, radio index); an assignment maps every
# radio to a channel index in [0, channel_count).
RadioId = tuple[int, int]
ChannelAssignment = dict[RadioId, int]


@dataclass(frozen=True)
class Node:
    """A node id (an int, not a bool) at a position stored as floats."""

    id: int
    x: float
    y: float

    def __post_init__(self):
        if not is_integer(self.id):
            raise ValidationError(f"node id {self.id!r} is not an integer")
        # floats, the usual case, are kept as they are
        if type(self.x) is not float or type(self.y) is not float:
            object.__setattr__(self, "x", as_float(self.x, "node x"))
            object.__setattr__(self, "y", as_float(self.y, "node y"))


@dataclass(frozen=True)
class Topology:
    """Node layout plus the radio/range/channel configuration.

    interference_x is the X of the 1:X transmission-to-interference ratio,
    i.e. the interference range is interference_x * tx_range. Checked once,
    when built: tx_range is stored as a float and check_topology runs.
    """

    nodes: tuple[Node, ...]
    radios_per_node: int
    tx_range: float
    interference_x: int
    channel_count: int

    def __post_init__(self):
        object.__setattr__(self, "tx_range", as_float(self.tx_range, "tx_range"))
        check_topology(self)

    @property
    def interference_range(self) -> float:
        return self.interference_x * self.tx_range

    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)


@dataclass(frozen=True)
class RealizedLink:
    """A usable link: both endpoint radios tuned to the same channel.

    Canonical orientation: node_a < node_b. Parallel links between the same
    node pair (different radio pairs) are distinct first-class links.
    """

    node_a: int
    radio_a: int
    node_b: int
    radio_b: int
    channel: int


def check_topology(topo: Topology) -> None:
    """Validate structural invariants; raise ValidationError on violation."""
    for name in ("radios_per_node", "interference_x", "channel_count"):
        value = getattr(topo, name)
        if not is_integer(value):
            raise ValidationError(f"{name} {value!r} is not an integer")
        if value < 1:
            raise ValidationError(f"{name} must be >= 1")
    if not (isinstance(topo.nodes, tuple) and all(isinstance(n, Node) for n in topo.nodes)):
        raise ValidationError(f"nodes must be a tuple of Node, got {topo.nodes!r}")
    if not (math.isfinite(topo.tx_range) and topo.tx_range > 0):
        raise ValidationError("tx_range must be finite and > 0")
    if len(topo.nodes) < 1:
        raise ValidationError("topology needs at least one node")
    for n in topo.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            raise ValidationError(f"node {n.id} has a non-finite position")
    ids = [n.id for n in topo.nodes]
    if len(set(ids)) != len(ids):
        raise ValidationError("node ids must be distinct")
    pts = {(n.x, n.y) for n in topo.nodes}
    if len(pts) != len(topo.nodes):
        raise ValidationError("node positions must be distinct")


def require_topology(value) -> None:
    """Raise ValidationError unless value is a Topology, which checked itself when built."""
    if not isinstance(value, Topology):
        raise ValidationError(f"expected a Topology, got {type(value).__name__} {value!r}")


def gen_grid(
    rows: int,
    cols: int,
    spacing: float = 250.0,
    tx_range: float = 250.0,
    interference_x: int = 2,
    radios_per_node: int = 2,
    channel_count: int = 3,
) -> Topology:
    """Build a rows x cols grid with 4-neighborhood adjacency.

    Node ids are row-major; node (r, c) sits at (c * spacing, r * spacing).
    tx_range must satisfy spacing <= tx_range < spacing * sqrt(2) so that
    exactly the orthogonal neighbors are in range.
    """
    for name, value in (("rows", rows), ("cols", cols)):
        if not (is_integer(value) and value >= 1):
            raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    spacing = positive_float(spacing, "spacing")
    tx_range = as_float(tx_range, "tx_range")
    if not (spacing <= tx_range < spacing * math.sqrt(2)):
        raise RangeConfigError(
            f"tx_range {tx_range} must lie in [spacing, spacing*sqrt(2)) = "
            f"[{spacing}, {spacing * math.sqrt(2):.6g}) for a grid layout"
        )
    nodes = [
        Node(id=r * cols + c, x=c * spacing, y=r * spacing)
        for r in range(rows)
        for c in range(cols)
    ]
    return Topology(tuple(nodes), radios_per_node, tx_range, interference_x, channel_count)


def gen_random(
    n: int,
    width: float,
    height: float,
    tx_range: float = 250.0,
    interference_x: int = 2,
    radios_per_node: int = 2,
    channel_count: int = 3,
    seed: int = 0,
    max_draws: int = 100,
) -> Topology:
    """Place n nodes uniformly at random; redraw until the potential graph connects.

    Deterministic for a given seed. Raises ConnectivityError once the retry
    budget is exhausted.
    """
    for name, value in (("n", n), ("max_draws", max_draws)):
        if not (is_integer(value) and value >= 1):
            raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    width, height = positive_float(width, "width"), positive_float(height, "height")
    rng = random.Random(seed)
    for _ in range(max_draws):
        nodes = [Node(id=i, x=rng.uniform(0, width), y=rng.uniform(0, height)) for i in range(n)]
        if len({(nd.x, nd.y) for nd in nodes}) != n:
            continue
        topo = Topology(tuple(nodes), radios_per_node, tx_range, interference_x, channel_count)
        if is_potential_connected(topo):
            return topo
    raise ConnectivityError(
        f"no connected layout for n={n} within {max_draws} draws "
        f"(area {width}x{height}, tx_range {tx_range})"
    )


# ---------------------------------------------------------------------------
# Geometry derived from a topology
# ---------------------------------------------------------------------------

#: Entries kept by each per-topology cache (compile_topology here,
#: enumerate_xls and xls_paths in metrics): enough for the few meshes one
#: computation alternates between, without keeping every mesh it ever saw.
CACHE_SIZE = 8


def _near(points: list[tuple[float, float]], dist: float) -> list[list[int]]:
    """near[i]: every j, ascending, with math.dist(points[i], points[j]) <= dist, for dist >= 0."""
    # One sweep in x order: each point against the later ones, up to the first
    # whose x exceeds its own by more than dist. The stop is exact: math.dist
    # rounds the norm of the float coordinate differences (sign-symmetric) with
    # an error below 1 ulp (Python >= 3.10), to a float >= the larger of them,
    # itself a float, so a point past the stop fails the test; x is sorted, so
    # every later one does too. An inf difference or dist needs no special case.
    order = sorted(range(len(points)), key=lambda i: points[i][0])
    near = [[i] for i in range(len(points))]
    for a, i in enumerate(order):
        p = points[i]
        for b in range(a + 1, len(order)):
            j = order[b]
            if points[j][0] - p[0] > dist:
                break
            if math.dist(p, points[j]) <= dist:
                near[i].append(j)
                near[j].append(i)
    return [sorted(js) for js in near]


def adjacent_pairs(topo: Topology) -> tuple[tuple[int, int], ...]:
    """Node pairs within transmission range, canonical (u < v), sorted.

    Built by a sweep in x order on every call; compile_topology keeps them
    for the topology (the keys of CompiledTopology.pair_index, in order).
    """
    nodes = sorted(topo.nodes, key=lambda n: n.id)
    near = _near([(n.x, n.y) for n in nodes], topo.tx_range)
    return tuple(
        (nodes[i].id, nodes[j].id) for i, js in enumerate(near) for j in js if j > i
    )


def interfering_pairs(topo: Topology) -> tuple[tuple[int, ...], ...]:
    """For each adjacent-pair index, the other pair indices within interference reach.

    Pair q is within reach of pair p iff some endpoint of q lies within
    interference_x * tx_range of some endpoint of p (a shared endpoint lies
    at distance 0), so reach[p] is the sorted union of the pairs incident to
    the nodes near either endpoint of p, without p. Built by a sweep in x
    order on every call; CompiledTopology.reach keeps it for the topology.
    """
    inst = compile_topology(topo)
    near = _near([(n.x, n.y) for n in topo.nodes], topo.interference_range)
    at = [[p for p, _ in inc] for inc in inst.incident]
    hits = []
    for p, (i, j) in enumerate(inst.pairs):
        found = {q for w in near[i] for q in at[w]}
        found.update(q for w in near[j] for q in at[w])
        found.discard(p)
        hits.append(tuple(sorted(found)))
    return tuple(hits)


@dataclass(frozen=True, eq=False)
class CompiledTopology:
    """Index-based form of a topology, built once and reused for every assignment.

    Nodes are numbered 0..n-1 in topology order (ids[i], index[id]).
    pairs[p] is adjacent_pairs(topo)[p] as node indices, pair_index maps the
    node-id pair adjacent_pairs(topo)[p] back to p, and incident[i] lists
    (pair index, other node index) for every adjacent pair of node i, in pair
    order, so by ascending id of the other node. radios is what radios()
    returns. reach is interfering_pairs(topo), built on first use.
    """

    topo: Topology
    ids: tuple[int, ...]
    index: dict[int, int]
    pairs: tuple[tuple[int, int], ...]
    pair_index: dict[tuple[int, int], int]
    incident: tuple[tuple[tuple[int, int], ...], ...]
    radios: tuple[RadioId, ...]

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        return interfering_pairs(self.topo)


@lru_cache(maxsize=CACHE_SIZE)
def compile_topology(topo: Topology) -> CompiledTopology:
    """The topology's CompiledTopology, kept for the CACHE_SIZE most recently used."""
    ids = topo.node_ids()
    index = {node: i for i, node in enumerate(ids)}
    id_pairs = adjacent_pairs(topo)
    pairs = tuple((index[u], index[v]) for u, v in id_pairs)
    incident: list[list[tuple[int, int]]] = [[] for _ in ids]
    for p, (i, j) in enumerate(pairs):
        incident[i].append((p, j))
        incident[j].append((p, i))
    return CompiledTopology(
        topo=topo,
        ids=ids,
        index=index,
        pairs=pairs,
        pair_index={pair: p for p, pair in enumerate(id_pairs)},
        incident=tuple(tuple(inc) for inc in incident),
        radios=tuple((n.id, r) for n in topo.nodes for r in range(topo.radios_per_node)),
    )


def radios(topo: Topology) -> tuple[RadioId, ...]:
    """All radios in (node id, radio index) order, nodes in topology order."""
    return compile_topology(topo).radios


def is_potential_connected(topo: Topology) -> bool:
    """Connectivity of the potential-communication graph (range only)."""
    inst = compile_topology(topo)
    return links_connected(inst, [1] * len(inst.pairs))


# ---------------------------------------------------------------------------
# Channel assignments and realized links
# ---------------------------------------------------------------------------

def check_assignment(topo: Topology, ca: ChannelAssignment) -> None:
    """Require exactly the topology's radios, each on an in-range int channel.

    Raises IncompleteAssignmentError naming the first inconsistency, checked
    in canonical radio order: a missing radio, then an unknown radio, then a
    channel that is not an int in [0, channel_count); a bool is not a channel.
    A topology that is not a Topology is a ValidationError.
    """
    require_topology(topo)
    rlist = radios(topo)
    for node, radio in rlist:
        if (node, radio) not in ca:
            raise IncompleteAssignmentError(f"assignment is missing radio {node}:{radio}")
    if len(ca) > len(rlist):
        known = set(rlist)
        node, radio = min(key for key in ca if key not in known)
        raise IncompleteAssignmentError(f"assignment references unknown radio {node}:{radio}")
    for node, radio in rlist:
        ch = ca[(node, radio)]
        if not is_integer(ch) or not (0 <= ch < topo.channel_count):
            raise IncompleteAssignmentError(
                f"channel {ch} out of range for radio {node}:{radio} "
                f"(channel_count {topo.channel_count})"
            )


def node_histograms(inst: CompiledTopology, ca: ChannelAssignment) -> list[list[int]]:
    """h[i][ch]: how many radios of node inst.ids[i] are tuned to channel ch.

    Every metric and both connectivity rules depend on an assignment only
    through this histogram. No validation.
    """
    m = inst.topo.radios_per_node
    c = inst.topo.channel_count
    hist = []
    for node in inst.ids:
        h = [0] * c
        for r in range(m):
            h[ca[(node, r)]] += 1
        hist.append(h)
    return hist


def pair_links(
    inst: CompiledTopology, hist: list[list[int]]
) -> tuple[list[list[int]], list[int]]:
    """Realized-link counts derived from a node histogram.

    Returns (L, K): L[ch][p] = h[u][ch] * h[v][ch] links on channel ch for
    adjacent pair p = (u, v), and K[p] = sum over channels of L[ch][p].
    """
    links = [
        [hist[u][ch] * hist[v][ch] for u, v in inst.pairs]
        for ch in range(inst.topo.channel_count)
    ]
    return links, [sum(per_channel) for per_channel in zip(*links)]


def conflict_degrees(inst: CompiledTopology, links: list[list[int]]) -> list[list[int]]:
    """Interference degree of each realized link, from the link counts.

    Two links conflict iff they share a channel and their pairs are the same
    or within reach, so each of the L[ch][p] links of pair p on channel ch
    has degree D[ch][p] = L[ch][p] - 1 + sum over q in reach[p] of L[ch][q].
    Returns D, with 0 where a pair has no link on a channel. tid is the sum
    of L * D.
    """
    reach = inst.reach
    degrees = []
    for per_channel in links:
        get = per_channel.__getitem__
        degrees.append([
            n - 1 + sum(map(get, reach[p])) if n else 0
            for p, n in enumerate(per_channel)
        ])
    return degrees


def links_connected(inst: CompiledTopology, k: list[int]) -> bool:
    """True iff the adjacent pairs with k[p] > 0 realized links connect all nodes."""
    n = len(inst.ids)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        u = stack.pop()
        for p, w in inst.incident[u]:
            if k[p] and not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == n


def is_ca_connected(topo: Topology, ca: ChannelAssignment) -> bool:
    """True iff nodes form one component under pairs with >= 1 realized link."""
    check_assignment(topo, ca)
    inst = compile_topology(topo)
    _, k = pair_links(inst, node_histograms(inst, ca))
    return links_connected(inst, k)


def uniform_assignment(topo: Topology, channel: int = 0) -> ChannelAssignment:
    """Every radio on one channel; the simplest always-connected assignment."""
    return {radio: channel for radio in radios(topo)}
