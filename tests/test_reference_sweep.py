"""The optimizer's decisions equal those of full per-candidate rescoring.

The reference schemes below keep the assignment in a plain dict, score every
candidate retune with the public score() and check it with is_ca_connected /
oracles.all_pairs_linked, the definitional form of each sweep. ref_run_scheme
composes them into pio, ko and ho on its own, counting moves by dict
difference, and must return the same assignment, score and trace as
run_scheme, so any drift in candidate order, tie-breaking, feasibility or
phase orchestration shows up here.
"""

import itertools
import random
import statistics

import pytest

import oracles
from conftest import line_with_stray_node
from meshca import (
    Node,
    SchemeConfig,
    Topology,
    TraceRecord,
    better,
    bio_assign,
    gen_grid,
    gen_random,
    is_ca_connected,
    radios,
    rci_mitigate,
    run_scheme,
    score,
)
from meshca.metrics import LinkState
from meshca.topology import adjacent_pairs


def rule_ok(topo, ca, rule):
    if rule == "per-pair":
        return oracles.all_pairs_linked(topo, ca)
    return is_ca_connected(topo, ca)


def ref_repair(topo, ca, rule):
    ca = dict(ca)
    if rule_ok(topo, ca, rule):
        return ca, True
    m = topo.radios_per_node
    nbrs = {n.id: [] for n in topo.nodes}
    for u, v in oracles.adjacency(topo):
        nbrs[u].append(v)
        nbrs[v].append(u)

    def have_link(u, v):
        return any(ca[(v, r)] in {ca[(u, q)] for q in range(m)} for r in range(m))

    seen = set()
    for root in sorted(nbrs):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(nbrs[u]):
                if v not in seen:
                    seen.add(v)
                    if not have_link(u, v):
                        ca[(v, 0)] = ca[(u, 0)]
                    queue.append(v)
    if rule == "per-pair":
        retune_idx = {}
        for u, v in adjacent_pairs(topo):
            if not have_link(u, v):
                idx = retune_idx.get(v, 0) % m
                retune_idx[v] = idx + 1
                ca[(v, idx)] = ca[(u, 0)]
    return ca, rule_ok(topo, ca, rule)


def ref_initial_assignment(topo, seed, connectivity_rule="global"):
    c = topo.channel_count
    ca = {(v, r): (v + r) % c for (v, r) in radios(topo)}
    ca, feasible = ref_repair(topo, ca, connectivity_rule)
    if seed > 0:
        rng = random.Random(seed)
        rlist = radios(topo)
        for _ in range(len(rlist)):
            radio = rlist[rng.randrange(len(rlist))]
            new_ch = rng.randrange(c)
            old_ch = ca[radio]
            if new_ch == old_ch:
                continue
            ca[radio] = new_ch
            if rule_ok(topo, ca, connectivity_rule):
                feasible = True
            else:
                ca[radio] = old_ch
    return ca, feasible


def ref_improve_sweep(topo, ca, metric, order, connectivity_rule="global", x=None):
    work = dict(ca)
    cur_feasible = rule_ok(topo, work, connectivity_rule)
    cur_score = score(metric, topo, work, x)
    improved = False
    for radio in order:
        cur_ch = work[radio]
        best_ch = cur_ch if cur_feasible else None
        best_score = cur_score if cur_feasible else None
        for ch in range(topo.channel_count):
            if ch == cur_ch:
                continue
            work[radio] = ch
            if rule_ok(topo, work, connectivity_rule):
                cand = score(metric, topo, work, x)
                if not better(cur_score, cand):
                    if best_score is None or better(cand, best_score):
                        best_ch, best_score = ch, cand
            work[radio] = cur_ch
        if best_ch is not None and best_ch != cur_ch:
            work[radio] = best_ch
            cur_score = best_score
            cur_feasible = True
            improved = True
    return work, improved


def ref_rci_mitigate(topo, ca, metric, connectivity_rule="global", x=None):
    work = dict(ca)
    m = topo.radios_per_node
    cur_score = score(metric, topo, work, x)
    for n in sorted(nd.id for nd in topo.nodes):
        stuck = set()
        while True:
            chans = [work[(n, r)] for r in range(m)]
            dup = next((r for r in range(1, m) if chans[r] in chans[:r] and r not in stuck),
                       None)
            if dup is None:
                break
            best_ch = best_score = None
            old_ch = work[(n, dup)]
            for ch in range(topo.channel_count):
                if ch in chans:
                    continue
                work[(n, dup)] = ch
                if rule_ok(topo, work, connectivity_rule):
                    cand = score(metric, topo, work, x)
                    if not better(cur_score, cand):
                        if best_score is None or better(cand, best_score):
                            best_ch, best_score = ch, cand
                work[(n, dup)] = old_ch
            if best_ch is None:
                stuck.add(dup)
            else:
                work[(n, dup)] = best_ch
                cur_score = best_score
    return work


def ref_bio_assign(topo, cfg):
    rlist = radios(topo)
    best = best_score = fallback = fallback_score = None
    for combo in itertools.product(range(topo.channel_count), repeat=len(rlist)):
        work = dict(zip(rlist, combo))
        s = score(cfg.metric, topo, work, cfg.x)
        if rule_ok(topo, work, cfg.connectivity_rule):
            if best_score is None or better(s, best_score):
                best, best_score = work, s
        elif best is None and (fallback_score is None or better(s, fallback_score)):
            fallback, fallback_score = work, s
    if best is not None:
        return best, best_score, True
    return fallback, fallback_score, False


def ref_eiz_detect(topo, ca):
    lks, degs = oracles.interference_degrees(topo, ca)
    sums = {n.id: 0 for n in topo.nodes}
    for (u, _, v, _, _), d in zip(lks, degs):
        sums[u] += d
        sums[v] += d
    vals = list(sums.values())
    threshold = statistics.mean(vals) + statistics.pstdev(vals)
    return sorted((n for n, v in sums.items() if v > threshold), key=lambda n: (-sums[n], n))


def ref_run_scheme(topo, cfg):
    """pio: one sweep; ko: sweeps to a fixpoint; ho: ko, rci, then hot-first sweeps."""
    metric, rule, x = cfg.metric, cfg.connectivity_rule, cfg.x
    ca, _ = ref_initial_assignment(topo, cfg.seed, rule)
    initial = score(metric, topo, ca, x).value
    records = []
    asc_order = radios(topo)

    def record(new_ca):
        nonlocal ca
        moves = sum(1 for r in ca if ca[r] != new_ca[r])
        value = score(metric, topo, new_ca, x).value
        records.append(TraceRecord(len(records) + 1, value, moves))
        ca = new_ca

    def sweep_to_fixpoint(order_fn, budget):
        used = 0
        while used < budget:
            new_ca, improved = ref_improve_sweep(topo, ca, metric, order_fn(), rule, x)
            record(new_ca)
            used += 1
            if not improved:
                break
        return used

    if cfg.scheme == "pio":
        record(ref_improve_sweep(topo, ca, metric, asc_order, rule, x)[0])
    elif cfg.scheme == "ko":
        sweep_to_fixpoint(lambda: asc_order, cfg.max_iterations)
    else:
        used = sweep_to_fixpoint(lambda: asc_order, cfg.max_iterations)
        record(ref_rci_mitigate(topo, ca, metric, rule, x))

        def hot_first_order():
            hot = ref_eiz_detect(topo, ca)
            prioritized = [(n, r) for n in hot for r in range(topo.radios_per_node)]
            return prioritized + [radio for radio in asc_order if radio[0] not in hot]

        sweep_to_fixpoint(hot_first_order, cfg.max_iterations - used)
    final = score(metric, topo, ca, x)
    return ca, final, initial, records, rule_ok(topo, ca, rule)


def outcome(result):
    ca, final, trace = result
    return (ca, final, trace.initial_score, trace.records, trace.feasible)


def permuted_grid() -> Topology:
    """A 3x3 grid (2 radios, 4 channels) whose node ids are shuffled, so node
    order is not id order and the round-robin start breaks both rules."""
    grid = gen_grid(3, 3, 250, 250, 2, 2, 4)
    ids = list(range(len(grid.nodes)))
    random.Random(5).shuffle(ids)
    nodes = tuple(Node(ids[n.id], n.x, n.y) for n in grid.nodes)
    return Topology(nodes, grid.radios_per_node, grid.tx_range, grid.interference_x,
                    grid.channel_count)


TOPOLOGIES = {
    "grid4x4": gen_grid(4, 4, 250, 250, 2, 2, 3),
    "grid3x3-permuted": permuted_grid(),
    "random8": gen_random(8, 500, 500, 250, 2, 2, 3, seed=3),
    "random9x3": gen_random(9, 600, 600, 250, 2, 3, 4, seed=11),
}


@pytest.mark.parametrize("rule", ["global", "per-pair"])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_schemes_match_full_rescoring(name, rule):
    topo = TOPOLOGIES[name]
    for metric in ("tid", "cdal", "cxls"):
        for seed in (0, 1, 2):
            for scheme in ("pio", "ko", "ho"):
                cfg = SchemeConfig(scheme=scheme, metric=metric, seed=seed,
                                   connectivity_rule=rule)
                expected = ref_run_scheme(topo, cfg)
                assert outcome(run_scheme(topo, cfg)) == expected, (metric, seed, scheme)


@pytest.mark.parametrize("metric, seed, rule", [("tid", 2, "global"), ("cxls", 7, "per-pair")])
def test_hot_first_sweeps_match_full_rescoring(metric, seed, rule):
    # on TOPOLOGIES the hot-first sweeps start from a fixpoint that no order
    # leaves; on this 3-radio grid the co-location cleanup moves radios first,
    # so the order eiz_detect gives decides the outcome
    topo = gen_grid(5, 5, 250, 250, 2, 3, 4)
    cfg = SchemeConfig(scheme="ho", metric=metric, seed=seed, connectivity_rule=rule)
    assert outcome(run_scheme(topo, cfg)) == ref_run_scheme(topo, cfg)


def _stayed_put(topo, ca):
    """Whether some radio still shares its node's channel with a lower radio
    although the node leaves a channel unused."""
    m = topo.radios_per_node
    for n in topo.nodes:
        chans = [ca[(n.id, r)] for r in range(m)]
        if len(set(chans)) < min(m, topo.channel_count):
            return True
    return False


@pytest.mark.parametrize("rule", ["global", "per-pair"])
@pytest.mark.parametrize("m", [3, 4])
def test_rci_mitigate_matches_full_rescoring(m, rule):
    # c <= m + 1 leaves a duplicate few unused channels, so some find none
    # acceptable and stay put while a later radio of their node still moves
    rng = random.Random(m)
    stayed = moved = 0
    for _ in range(60):
        topo = gen_grid(rng.randint(1, 2), rng.randint(3, 4), 100, 100, rng.randint(1, 2), m,
                        rng.randint(2, m + 1))
        ca = {radio: rng.randrange(topo.channel_count) for radio in radios(topo)}
        for metric in ("tid", "cdal", "cxls"):
            state = LinkState(topo, ca, metric, rule=rule)
            moves = rci_mitigate(state)
            expected = ref_rci_mitigate(topo, ca, metric, rule)
            assert state.ca == expected, metric
            assert moves == sum(ca[radio] != expected[radio] for radio in ca)
            assert state.score() == score(metric, topo, expected)
            stayed += _stayed_put(topo, expected)
            moved += moves > 0
    assert stayed and moved


@pytest.mark.parametrize("rule", ["global", "per-pair"])
def test_bio_matches_full_rescoring(rule):
    # the last one is a line plus an out-of-range node: no assignment meets
    # the global rule, so bio returns its best infeasible assignment
    topos = [gen_grid(1, 4, 100, 100, 2, 2, 2), gen_grid(1, 3, 100, 100, 1, 2, 3),
             gen_random(4, 300, 300, 250, 2, 1, 3, seed=5), line_with_stray_node()]
    for topo in topos:
        for metric in ("tid", "cdal", "cxls"):
            cfg = SchemeConfig(scheme="bio", metric=metric, connectivity_rule=rule)
            assert bio_assign(topo, cfg) == ref_bio_assign(topo, cfg), metric
    feasible = {bio_assign(topos[-1], SchemeConfig(scheme="bio", metric=metric,
                                                   connectivity_rule=rule))[2]
                for metric in ("tid", "cdal", "cxls")}
    assert feasible == {rule == "per-pair"}
