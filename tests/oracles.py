"""Independent brute-force reference implementations for the three metrics,
the channel loads, the per-pair rule, the co-located radio count and the
flow estimator.

Everything here recomputes from first principles with plain nested loops --
no reuse of the package's derivation helpers -- so the optimized
implementations can be checked against these on small instances. Only the
package's result types are imported.
"""

import itertools
import math
from fractions import Fraction

from meshca.evaluator import FlowPerf, PerfReport
from meshca.topology import RealizedLink


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def adjacency(topo):
    pts = {n.id: (n.x, n.y) for n in topo.nodes}
    ids = sorted(pts)
    pairs = []
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if _dist(pts[u], pts[v]) <= topo.tx_range:
                pairs.append((u, v))
    return pairs


def pair_reach(topo, pairs, i):
    """Indices j != i of the pairs with an endpoint within interference_x *
    tx_range of an endpoint of pairs[i] (a shared endpoint is at distance 0)."""
    pts = {n.id: (n.x, n.y) for n in topo.nodes}
    reach = topo.interference_x * topo.tx_range
    return tuple(
        j
        for j, q in enumerate(pairs)
        if j != i and min(_dist(pts[a], pts[b]) for a in pairs[i] for b in q) <= reach
    )


def reach(topo):
    """pair_reach of every adjacency pair, in adjacency order."""
    pairs = adjacency(topo)
    return tuple(pair_reach(topo, pairs, i) for i in range(len(pairs)))


def links(topo, ca):
    """Every (u, ru, v, rv, channel) with matching channels, u < v."""
    out = []
    for u, v in adjacency(topo):
        for ru in range(topo.radios_per_node):
            for rv in range(topo.radios_per_node):
                if ca[(u, ru)] == ca[(v, rv)]:
                    out.append((u, ru, v, rv, ca[(u, ru)]))
    return out


def conflicting(topo, la, lb):
    if la[4] != lb[4]:
        return False
    pts = {n.id: (n.x, n.y) for n in topo.nodes}
    reach = topo.interference_x * topo.tx_range
    dmin = min(
        _dist(pts[a], pts[b]) for a in (la[0], la[2]) for b in (lb[0], lb[2])
    )
    return dmin <= reach


def interference_degrees(topo, ca):
    lks = links(topo, ca)
    degs = [0] * len(lks)
    for i in range(len(lks)):
        for j in range(i + 1, len(lks)):
            if conflicting(topo, lks[i], lks[j]):
                degs[i] += 1
                degs[j] += 1
    return lks, degs


def tid_value(topo, ca):
    _, degs = interference_degrees(topo, ca)
    return float(sum(degs))


def all_pairs_linked(topo, ca):
    """The per-pair rule: every adjacency pair has at least one link."""
    linked = {(u, v) for u, _, v, _, _ in links(topo, ca)}
    return all(pair in linked for pair in adjacency(topo))


def colocated_pairs(topo, ca):
    """Same-node radio pairs on one channel."""
    m = topo.radios_per_node
    return sum(
        ca[(n.id, r1)] == ca[(n.id, r2)]
        for n in topo.nodes
        for r1 in range(m)
        for r2 in range(r1 + 1, m)
    )


def channel_loads(topo, ca):
    """The exact load of each channel: a pair with k links adds 1/k per link."""
    per_pair = {}
    for u, _, v, _, ch in links(topo, ca):
        per_pair.setdefault((u, v), []).append(ch)
    loads = [Fraction(0)] * topo.channel_count
    for chans in per_pair.values():
        for ch in chans:
            loads[ch] += Fraction(1, len(chans))
    return loads


def _odd(v):
    """Whether the float v >= 0 has an odd last significand bit."""
    return v / math.ulp(v) % 2 == 1


def sqrt_rounded(q):
    """sqrt of a Fraction q >= 0, correctly rounded to a float (ties to even).

    From math.sqrt(float(q)), step to a neighbouring float until the
    midpoints between v and its two neighbours bracket sqrt(q), checked by
    squaring them exactly.
    """
    v = math.sqrt(float(q))
    while True:
        down, up = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
        lo, hi = (Fraction(v) + Fraction(down)) / 2, (Fraction(v) + Fraction(up)) / 2
        if hi * hi < q or (hi * hi == q and _odd(v)):
            v = up
        elif v > 0 and (lo * lo > q or (lo * lo == q and _odd(v))):
            v = down
        else:
            return v


def cdal_value(topo, ca):
    """The population standard deviation of the exact channel loads, rounded once."""
    loads = channel_loads(topo, ca)
    mean = sum(loads) / len(loads)
    return sqrt_rounded(sum((load - mean) ** 2 for load in loads) / len(loads))


def paths(topo, x):
    """All simple x-hop paths (first id < last id) via permutation filtering."""
    adj = set(adjacency(topo))

    def adjacent(a, b):
        return (a, b) in adj or (b, a) in adj

    ids = [n.id for n in topo.nodes]
    found = set()
    for perm in itertools.permutations(ids, x + 1):
        if perm[0] < perm[-1] and all(
            adjacent(a, b) for a, b in zip(perm, perm[1:])
        ):
            found.add(perm)
    return sorted(found)


def xls_weight_value(topo, ca, path):
    """The exact mean unique-channel hop count over all link choices (a Fraction)."""
    options = []
    for a, b in zip(path, path[1:]):
        u, v = min(a, b), max(a, b)
        chans = [
            ca[(u, ru)]
            for ru in range(topo.radios_per_node)
            for rv in range(topo.radios_per_node)
            if ca[(u, ru)] == ca[(v, rv)]
        ]
        if not chans:
            return Fraction(0)
        options.append(chans)
    weights = []
    for combo in itertools.product(*options):
        weights.append(sum(1 for ch in combo if combo.count(ch) == 1))
    return Fraction(sum(weights), len(weights))


def cxls_value(topo, ca, x):
    """The exact sum of the path weights, rounded once."""
    return float(sum(xls_weight_value(topo, ca, p) for p in paths(topo, x)))


def estimate_performance(topo, ca, flows, phy_rate):
    """The flow estimate over individual radio-pair links.

    Per hop the link with the fewest conflicts (then lowest channel, then
    first in links() order) is chosen; a hop without a link disconnects its
    flow. An active link's airtime share is phy_rate / (1 + its active
    conflicting links), split evenly over the flows using it.
    """
    lks = links(topo, ca)
    nbrs = [set() for _ in lks]
    for i in range(len(lks)):
        for j in range(i + 1, len(lks)):
            if conflicting(topo, lks[i], lks[j]):
                nbrs[i].add(j)
                nbrs[j].add(i)

    def pick(a, b):
        u, v = min(a, b), max(a, b)
        cands = [i for i, lk in enumerate(lks) if (lk[0], lk[2]) == (u, v)]
        if not cands:
            return None
        return min(cands, key=lambda i: (len(nbrs[i]), lks[i][4], i))

    selections = []
    for flow in flows:
        chosen = [pick(a, b) for a, b in zip(flow.path, flow.path[1:])]
        selections.append(None if None in chosen else chosen)
    active = {i for sel in selections if sel for i in sel}
    load = {i: sum(1 for sel in selections if sel and i in sel) for i in active}

    perf, disconnected = [], []
    for fi, (flow, sel) in enumerate(zip(flows, selections)):
        if sel is None:
            perf.append(FlowPerf(flow, 0.0, None, None, 0))
            disconnected.append(fi)
            continue
        rates = [phy_rate / (1 + len(nbrs[i] & active)) / load[i] for i in sel]
        throughput = min(rates)
        b = sel[rates.index(throughput)]
        perf.append(FlowPerf(
            flow, throughput, flow.payload_bytes * 8 / (throughput * 1e6),
            RealizedLink(*lks[b]), len(nbrs[b] & active),
        ))
    return PerfReport(phy_rate, tuple(perf), tuple(disconnected))
