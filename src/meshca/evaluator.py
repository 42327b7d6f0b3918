"""Flow-level performance estimation for a channel assignment.

This is a deterministic, comparative estimator -- not a packet simulator.
Airtime on a link is shared as 1/(1 + number of active conflicting links),
and flows split a link's share evenly. All outputs are labeled estimates;
packet loss, delay and SINR have no honest flow-level analog and are not
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import NonGridTopologyError, ValidationError
from .topology import (
    ChannelAssignment,
    RealizedLink,
    Topology,
    check_assignment,
    compile_topology,
    conflict_degrees,
    node_histograms,
    pair_links,
)

#: 5 MB datafile, binary megabytes (5 MB at 54 Mbps ~= 0.777 s)
DEFAULT_PAYLOAD_BYTES = 5 * 1024 * 1024


@dataclass(frozen=True)
class FlowSpec:
    source: int
    destination: int
    path: tuple[int, ...]
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES

    @property
    def hops(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class FlowPerf:
    flow: FlowSpec
    throughput_mbps: float
    transfer_time_s: float | None
    bottleneck: RealizedLink | None
    contention: int


@dataclass(frozen=True)
class PerfReport:
    phy_rate_mbps: float
    flows: tuple[FlowPerf, ...]
    disconnected: tuple[int, ...]

    @property
    def aggregate_throughput_mbps(self) -> float:
        return sum(f.throughput_mbps for f in self.flows)


def grid_layout(topo: Topology) -> list[list[int]]:
    """Recover the row-major lattice of node ids from positions.

    Rows are grouped by y ascending, nodes within a row by x ascending.
    Raises NonGridTopologyError if positions do not form a full lattice with
    adjacent lattice neighbors in transmission range.
    """
    by_y: dict[float, list] = {}
    for node in topo.nodes:
        by_y.setdefault(round(node.y, 9), []).append(node)
    rows = [sorted(by_y[y], key=lambda n: n.x) for y in sorted(by_y)]
    xs = [round(n.x, 9) for n in rows[0]]
    for row in rows:
        if [round(n.x, 9) for n in row] != xs:
            raise NonGridTopologyError("node positions do not form a grid lattice")
    layout = [[n.id for n in row] for row in rows]
    pos = {n.id: (n.x, n.y) for n in topo.nodes}

    def in_range(a: int, b: int) -> bool:
        return math.dist(pos[a], pos[b]) <= topo.tx_range

    for row in layout:
        for a, b in zip(row, row[1:]):
            if not in_range(a, b):
                raise NonGridTopologyError("grid row neighbors out of transmission range")
    for col in zip(*layout):
        for a, b in zip(col, col[1:]):
            if not in_range(a, b):
                raise NonGridTopologyError("grid column neighbors out of transmission range")
    return layout


def build_grid_flows(
    topo: Topology, payload_bytes: int = DEFAULT_PAYLOAD_BYTES
) -> list[FlowSpec]:
    """One flow along every row and every column of a grid topology.

    Row flows run leftmost to rightmost, column flows topmost to bottommost.
    Degenerate rows/columns of a single node produce no flow.
    """
    layout = grid_layout(topo)
    flows = []
    for row in layout:
        if len(row) >= 2:
            flows.append(FlowSpec(row[0], row[-1], tuple(row), payload_bytes))
    for col in zip(*layout):
        if len(col) >= 2:
            flows.append(FlowSpec(col[0], col[-1], tuple(col), payload_bytes))
    return flows


def check_phy_rate(phy_rate: float) -> None:
    """Require a PHY rate (Mbps) that is a finite real number > 0, not a bool."""
    if (
        isinstance(phy_rate, bool)
        or not isinstance(phy_rate, Real)
        or not (math.isfinite(phy_rate) and phy_rate > 0)
    ):
        raise ValidationError(f"phy_rate must be a finite number > 0, got {phy_rate!r}")


def estimate_performance(
    topo: Topology,
    ca: ChannelAssignment,
    flows: list[FlowSpec],
    phy_rate: float,
) -> PerfReport:
    """Deterministic contention estimate for a set of flows.

    Per hop the realized link with the fewest conflicts is selected (ties:
    lowest channel, then first in canonical link order); a hop with no link
    disconnects its flow. Each active link's airtime share is
    phy_rate / (1 + active conflicting links), split evenly over the flows
    using it; a flow runs at the minimum over its hops. A flow whose path
    has fewer than two nodes has no hop and is a ValidationError, as is a
    phy_rate check_phy_rate rejects.
    """
    check_phy_rate(phy_rate)
    check_assignment(topo, ca)
    for flow in flows:
        if len(flow.path) < 2:
            raise ValidationError(f"flow path {flow.path!r} has no hop; it needs >= 2 nodes")
    inst = compile_topology(topo)
    links, k = pair_links(inst, node_histograms(inst, ca))
    degrees = conflict_degrees(inst, links)
    # every link of one pair on one channel has the same degree, so a hop
    # picks a (pair, channel); its link is the first such radio pair
    best: dict[int, int] = {}

    def pick(u: int, v: int) -> int | None:
        p = inst.pair_index.get((u, v) if u < v else (v, u))
        if p is None or not k[p]:
            return None
        if p not in best:
            best[p] = min((d[p], ch) for ch, d in enumerate(degrees) if links[ch][p])[1]
        return p

    selections: list[list[int] | None] = []
    for flow in flows:
        chosen: list[int] | None = []
        for a, b in zip(flow.path, flow.path[1:]):
            p = pick(a, b)
            if p is None:
                chosen = None
                break
            chosen.append(p)
        selections.append(chosen)

    # a pair carries at most one active link, so an active link's active
    # conflicts are the active pairs within reach on its channel
    active = {p: best[p] for sel in selections if sel for p in sel}
    contention = {
        p: sum(1 for q in inst.reach[p] if active.get(q) == ch) for p, ch in active.items()
    }
    load = dict.fromkeys(active, 0)
    for sel in selections:
        if sel:
            for p in set(sel):
                load[p] += 1

    perf = []
    disconnected = []
    for fi, (flow, sel) in enumerate(zip(flows, selections)):
        if sel is None:
            perf.append(FlowPerf(flow, 0.0, None, None, 0))
            disconnected.append(fi)
            continue
        rates = [phy_rate / (1 + contention[p]) / load[p] for p in sel]
        throughput = min(rates)
        p = sel[rates.index(throughput)]
        u, v = inst.pairs[p]
        ch = active[p]
        bottleneck = RealizedLink(
            inst.ids[u], _first_radio(ca, inst.ids[u], ch),
            inst.ids[v], _first_radio(ca, inst.ids[v], ch), ch,
        )
        transfer = flow.payload_bytes * 8 / (throughput * 1e6)
        perf.append(FlowPerf(flow, throughput, transfer, bottleneck, contention[p]))
    return PerfReport(
        phy_rate_mbps=phy_rate, flows=tuple(perf), disconnected=tuple(disconnected)
    )


def _first_radio(ca: ChannelAssignment, node: int, ch: int) -> int:
    """The lowest radio index of node tuned to channel ch (one must be)."""
    r = 0
    while ca[(node, r)] != ch:
        r += 1
    return r
