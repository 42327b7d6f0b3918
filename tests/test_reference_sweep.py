"""The optimizer's decisions equal those of full per-candidate rescoring.

The reference schemes below score every candidate retune with the public
score() and check it with is_ca_connected / preserves_all_pairs, the
definitional form of each sweep. run_scheme with these swapped in must
return the same assignment, score and trace as run_scheme itself, so any
drift in candidate order, tie-breaking or feasibility shows up here.
"""

import itertools
import random

import pytest

from meshca import (
    SchemeConfig,
    better,
    bio_assign,
    gen_grid,
    gen_random,
    is_ca_connected,
    optimizer,
    radios,
    run_scheme,
    score,
)
from meshca.topology import adjacent_pairs, potential_neighbors, preserves_all_pairs


def rule_ok(topo, ca, rule):
    if rule == "per-pair":
        return preserves_all_pairs(topo, ca)
    return is_ca_connected(topo, ca)


def ref_repair(topo, ca, rule):
    ca = dict(ca)
    if rule_ok(topo, ca, rule):
        return ca, True
    m = topo.radios_per_node
    nbrs = potential_neighbors(topo)

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
            for v in nbrs[u]:
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


def run_reference(topo, cfg, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "initial_assignment", ref_initial_assignment)
        patch.setattr(optimizer, "improve_sweep", ref_improve_sweep)
        patch.setattr(optimizer, "rci_mitigate", ref_rci_mitigate)
        return run_scheme(topo, cfg)


def outcome(result):
    ca, final, trace = result
    return (ca, final, trace.initial_score, trace.records, trace.feasible)


TOPOLOGIES = {
    "grid4x4": gen_grid(4, 4, 250, 250, 2, 2, 3),
    "random8": gen_random(8, 500, 500, 250, 2, 2, 3, seed=3),
    "random9x3": gen_random(9, 600, 600, 250, 2, 3, 4, seed=11),
}


@pytest.mark.parametrize("rule", ["global", "per-pair"])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_schemes_match_full_rescoring(name, rule, monkeypatch):
    topo = TOPOLOGIES[name]
    for metric in ("tid", "cdal", "cxls"):
        for seed in (0, 1, 2):
            for scheme in ("pio", "ko", "ho"):
                cfg = SchemeConfig(scheme=scheme, metric=metric, seed=seed,
                                   connectivity_rule=rule)
                expected = outcome(run_reference(topo, cfg, monkeypatch))
                assert outcome(run_scheme(topo, cfg)) == expected, (metric, seed, scheme)


@pytest.mark.parametrize("rule", ["global", "per-pair"])
def test_bio_matches_full_rescoring(rule):
    topos = [gen_grid(1, 4, 100, 100, 2, 2, 2), gen_grid(1, 3, 100, 100, 1, 2, 3),
             gen_random(4, 300, 300, 250, 2, 1, 3, seed=5)]
    for topo in topos:
        for metric in ("tid", "cdal", "cxls"):
            cfg = SchemeConfig(scheme="bio", metric=metric, connectivity_rule=rule)
            assert bio_assign(topo, cfg) == ref_bio_assign(topo, cfg), metric
