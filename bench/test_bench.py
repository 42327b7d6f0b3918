"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MESHCA, ORACLES = run.load_program()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_errors(name):
    phase = run.run_phase(name, seed=7, n_ops=2, tiny=True)
    assert len(phase["latencies"]) == len(phase["scaled"]) == 2
    assert all(t > 0 for t in phase["scaled"])
    assert phase["failures"] == {}
    assert len(phase["digests"]) == 2


def _workload(name, tmp_path):
    w = workloads.WORKLOADS[name](MESHCA, ORACLES, 5, tmp_path, tiny=True)
    w.setup()
    inp = w.make_input(0)
    return w, inp, w.run(inp)


def test_matrix_check_catches_a_worsened_ho(tmp_path):
    w, inp, rc = _workload("matrix", tmp_path)
    rows = w.read_rows(inp)
    assert w.check_rows(rows) == []
    pio = {r["phy_rate_mbps"]: float(r["tid"])
           for r in rows if r["scheme"] == "pio" and r["metric"] == "tid"}
    for r in rows:
        if r["scheme"] == "ho" and r["metric"] == "tid":
            r["tid"] = repr(pio[r["phy_rate_mbps"]] + 1.0)
    assert any("ho worse than pio" in b for b in w.check_rows(rows))


def test_matrix_check_catches_rates_that_disagree(tmp_path):
    w, inp, rc = _workload("matrix", tmp_path)
    rows = w.read_rows(inp)
    rows[0]["iterations"] = str(int(rows[0]["iterations"]) + 1)
    assert any("differs between rates" in b for b in w.check_rows(rows))


def test_survey_check_catches_a_relabeling_mismatch(tmp_path):
    w, inp, out = _workload("survey", tmp_path)
    assert w.check(0, inp, out) == []
    out["scores"]["cdal_cost"] += 1e-12
    assert "scores changed under channel relabeling" in w.check(1, inp, out)


def test_survey_check_catches_flow_bounds(tmp_path):
    w, inp, out = _workload("survey", tmp_path)
    thr, disconnected = out["reports"][9.0]
    thr[0] = 9.5
    assert any("out of bounds" in b for b in w.check(1, inp, out))


def test_bio_check_catches_a_wrong_score(tmp_path):
    w, inp, out = _workload("bio", tmp_path)
    assert w.check(0, inp, out) == []
    ca, final, trace = out
    worse = MESHCA.metrics.IemScore(final.metric, final.value + 1.0, final.direction)
    assert any("oracle" in b for b in w.check(0, inp, (ca, worse, trace)))


def test_corrupted_output_counts_as_failed_op(monkeypatch):
    honest = workloads.Survey.run

    def corrupt(self, inp):
        out = honest(self, inp)
        out["scores"]["tid"] += 2.0
        return out

    monkeypatch.setattr(workloads.Survey, "run", corrupt)
    phase = run.run_phase("survey", seed=2, n_ops=2, tiny=True)
    assert sorted(phase["failures"]) == [0, 1]


def test_self_time_on_a_synthetic_span_tree():
    # A[0,10] has children B[1,4] (child C[2,3]), B[3.5,6] overlapping the
    # first B by 0.5, and D[9,12] reaching past A's end, clipped to [9,10]
    names = ["A", "B", "C", "D"]
    name_id = array("H", [0, 1, 2, 1, 3])
    parent = array("l", [-1, 0, 1, 0, 0])
    start = array("d", [0.0, 1.0, 2.0, 3.5, 9.0])
    end = array("d", [10.0, 4.0, 3.0, 6.0, 12.0])
    calls, incl, own = tracing.span_stats(name_id, parent, start, end, len(names))
    assert calls == [1, 2, 1, 1]
    assert incl == pytest.approx([10.0, 5.5, 1.0, 3.0])
    # A: 10 - |[1,6] u [9,10]| = 4; B: (3 - 1) + 2.5 = 4.5
    assert own == pytest.approx([4.0, 4.5, 1.0, 3.0])


def test_tracer_nests_spans_and_reports_absent_functions(monkeypatch):
    monkeypatch.delattr(MESHCA.optimizer, "eiz_detect")
    topo = MESHCA.topology.gen_grid(1, 3, spacing=100, tx_range=100)
    ca = MESHCA.topology.uniform_assignment(topo)
    tracer = tracing.Tracer(MESHCA)
    tracer.install()
    try:
        MESHCA.metrics.all_scores(topo, ca)
    finally:
        tracer.uninstall()
    assert MESHCA.metrics.score.__module__ == "meshca.metrics"  # bindings restored
    values, bases = tracing.layer_metrics(tracer, n_ops=1)
    assert "optimizer.eiz_detect" in bases["absent"]
    assert values["optimizer.eiz_detect.calls"] == 0
    assert values["metrics.all_scores.calls"] == 1
    assert values["metrics.score.calls"] == 3
    assert values["metrics.tid.calls"] == 1
    assert values["metrics.all_scores.s"] >= values["metrics.score.s"]
    assert set(values) == set(tracing.per_layer_units()) - {"trace.overhead_frac"}


def test_tail_needs_ten_samples_beyond():
    t = run.tail([float(i) for i in range(1, 101)])
    assert (t["value"], t["beyond"], t["samples"]) == (90.0, 10, 100)
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0
