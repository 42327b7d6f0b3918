"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and
runtime budget is pinned here; nothing is deferred to later calibration.
Estimated-throughput trend checks are recorded as information only -- the
guarantees are on the optimized metrics themselves.
"""

import csv
import random
import time

import pytest

import oracles
from conftest import make_random_assignment, make_random_topology
from meshca import (
    SchemeConfig,
    better,
    bio_assign,
    cdal_cost,
    cxls_wt,
    gen_grid,
    is_ca_connected,
    rci_mitigate,
    run_scheme,
    score,
    tid,
    uniform_assignment,
)
from meshca.cli import main as cli_main
from meshca.metrics import LinkState

E1 = gen_grid(1, 3, 100, 100, 2, 1, 2)
E2 = gen_grid(1, 3, 100, 100, 2, 2, 2)
E2C3 = gen_grid(1, 3, 100, 100, 2, 2, 3)
E2_CA = {(n, r): r for n in range(3) for r in range(2)}
E2C3_OPT = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}

DOMINANCE_GRID = gen_grid(4, 4, 250, 250, 2, 2, 3)
DOMINANCE_SEEDS = range(1, 51)


def _sample_feasible(topo, rng, count):
    out = []
    while len(out) < count:
        ca = make_random_assignment(rng, topo)
        if is_ca_connected(topo, ca):
            out.append(ca)
    return out


@pytest.fixture(scope="module")
def dominance_runs():
    """All (metric, seed, scheme) runs on the 4x4 grid, shared by criteria 4 and 5."""
    start = time.perf_counter()
    runs = {}
    for metric in ("tid", "cdal", "cxls"):
        for seed in DOMINANCE_SEEDS:
            for scheme in ("pio", "ko", "ho"):
                cfg = SchemeConfig(scheme=scheme, metric=metric, seed=seed)
                _, final, trace = run_scheme(DOMINANCE_GRID, cfg)
                runs[(metric, seed, scheme)] = (final, trace)
    return runs, time.perf_counter() - start


def test_criterion_1_metric_oracles():
    """Hand-derived metric values, exact, runtime < 1 s."""
    start = time.perf_counter()
    e1_ca = uniform_assignment(E1)

    assert tid(E1, e1_ca).value == 2.0
    assert cdal_cost(E1, e1_ca).value == 1.0
    assert cxls_wt(E1, e1_ca).value == 0.0

    assert tid(E2, E2_CA).value == 4.0
    assert cdal_cost(E2, E2_CA).value == 0.0
    assert cxls_wt(E2, E2_CA).value == 1.0

    assert cxls_wt(E2C3, E2C3_OPT).value == 2.0

    # the same nine values re-derived by the independent brute-force oracle
    assert oracles.tid_value(E1, e1_ca) == 2.0
    assert oracles.cdal_value(E1, e1_ca) == 1.0
    assert oracles.cxls_value(E1, e1_ca, 2) == 0.0
    assert oracles.tid_value(E2, E2_CA) == 4.0
    assert oracles.cdal_value(E2, E2_CA) == 0.0
    assert oracles.cxls_value(E2, E2_CA, 2) == 1.0
    assert oracles.cxls_value(E2C3, E2C3_OPT, 2) == 2.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: metric oracles exact in {elapsed:.3f}s")


def test_criterion_2_bruteforce_equivalence():
    """200 random small instances match the naive oracle exactly, < 30 s."""
    start = time.perf_counter()
    rng = random.Random(2024)
    for i in range(200):
        topo = make_random_topology(rng, max_nodes=6, max_radios=2, max_channels=3)
        ca = make_random_assignment(rng, topo)
        x = topo.interference_x
        assert tid(topo, ca).value == oracles.tid_value(topo, ca), i
        assert cdal_cost(topo, ca).value == oracles.cdal_value(topo, ca), i
        assert cxls_wt(topo, ca, x).value == oracles.cxls_value(topo, ca, x), i
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 200 random instances match the oracle in {elapsed:.1f}s")


def test_criterion_3_bio_optimality():
    """BIO beats 1000 random feasible CAs and every scheme output, < 5 s."""
    start = time.perf_counter()

    _, bio_tid_e2, _ = bio_assign(E2, SchemeConfig(scheme="bio", metric="tid"))
    assert bio_tid_e2.value == 4.0
    _, bio_cxls_e2c3, _ = bio_assign(E2C3, SchemeConfig(scheme="bio", metric="cxls"))
    assert bio_cxls_e2c3.value == 2.0

    rng = random.Random(99)
    for topo in (E1, E2, E2C3):
        samples = _sample_feasible(topo, rng, 1000)
        for metric in ("tid", "cdal", "cxls"):
            _, best, feasible = bio_assign(topo, SchemeConfig(scheme="bio", metric=metric))
            assert feasible
            for ca in samples:
                assert not better(score(metric, topo, ca), best)
            for scheme in ("pio", "ko", "ho"):
                _, s, _ = run_scheme(
                    topo, SchemeConfig(scheme=scheme, metric=metric, seed=1))
                assert not better(s, best)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: BIO optimality on all in-budget instances in {elapsed:.1f}s")


def test_criterion_4_scheme_dominance(dominance_runs):
    """HO >= KO >= PIO per metric over 50 seeds, monotone traces, < 2 min."""
    runs, elapsed = dominance_runs
    violations = 0
    for metric in ("tid", "cdal", "cxls"):
        for seed in DOMINANCE_SEEDS:
            pio, _ = runs[(metric, seed, "pio")]
            ko, _ = runs[(metric, seed, "ko")]
            ho, _ = runs[(metric, seed, "ho")]
            if better(pio, ko) or better(ko, ho):
                violations += 1
            for scheme in ("pio", "ko", "ho"):
                final, trace = runs[(metric, seed, scheme)]
                seq = trace.scores()
                for prev, cur in zip(seq, seq[1:]):
                    ok = cur >= prev if final.direction == "maximize" else cur <= prev
                    if not ok:
                        violations += 1
    assert violations == 0
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: zero dominance/monotonicity violations "
          f"(450 runs in {elapsed:.1f}s)")


def test_criterion_5_self_metric_monotonicity(dominance_runs):
    """Final optimized-metric value never worse than the initial assignment's."""
    runs, _ = dominance_runs
    for (metric, seed, scheme), (final, trace) in runs.items():
        if final.direction == "maximize":
            assert trace.final_score >= trace.initial_score, (metric, seed, scheme)
        else:
            assert trace.final_score <= trace.initial_score, (metric, seed, scheme)
        assert final.value == trace.final_score
    print(f"\nPASS criterion 5: end-to-end self-metric monotonicity on {len(runs)} runs")


def test_criterion_6_desk_scale_matrix(tmp_path):
    """Default 90-run matrix completes < 5 min with a well-formed report."""
    start = time.perf_counter()
    outdir = tmp_path / "matrix"
    code = cli_main(["experiment", "--out", str(outdir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 300.0

    with open(outdir / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    members = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert len(members) == 90   # 3 schemes x 3 metrics x 2 rates x 5 seeds
    assert len(means) == 18
    assert list(rows[0].keys()) == [
        "scheme", "metric", "phy_rate_mbps", "seed", "tid", "cdal_cost",
        "cxls_wt", "est_aggregate_throughput_mbps", "iterations", "wall_ms",
        "error",
    ]
    assert all(r["error"] == "" for r in members)
    cells = {(r["scheme"], r["metric"], r["phy_rate_mbps"], r["seed"]) for r in members}
    assert len(cells) == 90

    # informative, non-gating: does the throughput estimate reproduce the
    # expected qualitative trends?
    import json

    summary = json.loads((outdir / "summary.json").read_text())
    print(f"\nPASS criterion 6: default matrix in {elapsed:.1f}s; informative trends:")
    print(f"  ho>=ko>=pio by estimated throughput: {summary['ho_ge_ko_ge_pio_by_throughput']}")
    print(f"  cxls-vs-tid estimated-throughput change %: "
          f"{summary['cxls_vs_tid_throughput_change_pct']}")


def test_criterion_7_rci_postcondition():
    """RCI cleanup never adds co-located duplicates nor worsens the metric."""
    topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
    rng = random.Random(7)
    checked = 0
    for ca in _sample_feasible(topo, rng, 100):
        before_pairs = oracles.colocated_pairs(topo, ca)
        for metric in ("tid", "cdal", "cxls"):
            state = LinkState(topo, ca, metric)
            rci_mitigate(state)
            out = state.ca
            assert oracles.colocated_pairs(topo, out) <= before_pairs
            assert not better(score(metric, topo, ca), score(metric, topo, out))
            checked += 1
    print(f"\nPASS criterion 7: RCI postconditions hold on {checked} (CA, metric) cases")


def test_criterion_8_label_permutation_invariance():
    """All three metrics are bit-exact under channel relabeling, 100 trials."""
    rng = random.Random(44)
    for trial in range(100):
        topo = make_random_topology(rng, max_nodes=6, max_radios=2, max_channels=3)
        ca = make_random_assignment(rng, topo)
        perm = list(range(topo.channel_count))
        rng.shuffle(perm)
        relabeled = {radio: perm[ch] for radio, ch in ca.items()}
        assert tid(topo, ca).value == tid(topo, relabeled).value, trial
        assert cdal_cost(topo, ca).value == cdal_cost(topo, relabeled).value, trial
        assert cxls_wt(topo, ca).value == cxls_wt(topo, relabeled).value, trial
    print("\nPASS criterion 8: label-permutation invariance over 100 trials")
