import csv
import re
import time

import pytest

from meshca import (
    ExperimentConfig,
    SchemeConfig,
    ValidationError,
    all_scores,
    better,
    build_grid_flows,
    estimate_performance,
    experiment,
    gen_grid,
    optimizer,
    run_experiment,
    run_scheme,
)
from meshca.experiment import METRIC_COLUMNS, REPORT_COLUMNS, write_plot_data, write_report_csv


@pytest.fixture(scope="module")
def small_report():
    topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
    cfg = ExperimentConfig(
        topology=topo,
        schemes=("pio", "ko"),
        metrics=("tid", "cxls"),
        phy_rates=(9.0,),
        seeds=(1, 2, 3),
    )
    return run_experiment(cfg)


class TestConfig:
    def test_rejects_empty_lists(self):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError):
            ExperimentConfig(topology=topo, schemes=())

    def test_rejects_unknown_scheme(self):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError):
            ExperimentConfig(topology=topo, schemes=("pio", "magic"))

    def test_rejects_non_string_scheme(self):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match="unknown scheme"):
            ExperimentConfig(topology=topo, schemes=("pio", None))

    @pytest.mark.parametrize("rule", ["global", "Global", "per-pair", "PER-PAIR"])
    def test_names_lower_cased(self, rule):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        cfg = ExperimentConfig(topology=topo, schemes=("PIO", "Ko"), connectivity_rule=rule)
        assert (cfg.schemes, cfg.connectivity_rule) == (("pio", "ko"), rule.lower())

    def test_rejects_unknown_rule(self):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match="connectivity rule"):
            ExperimentConfig(topology=topo, connectivity_rule="loose")

    @pytest.mark.parametrize("x", [2.0, 0, "2"])
    def test_rejects_bad_x_before_any_cell(self, x):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match="x must be"):
            ExperimentConfig(topology=topo, x=x)


    @pytest.mark.parametrize("seed", [1.9, True, "1", None])
    def test_rejects_non_integer_seed_before_any_cell(self, seed):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            ExperimentConfig(topology=topo, seeds=(1, seed))

    @pytest.mark.parametrize("rate", [0, -9.0, float("nan"), float("inf"), True, "9"])
    def test_rejects_bad_rate_before_any_cell(self, rate):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match="phy_rate"):
            ExperimentConfig(topology=topo, phy_rates=(9.0, rate))

    @pytest.mark.parametrize("name, items, repeated", [
        ("schemes", ("pio", "PIO"), "'pio'"),
        ("metrics", ("cdal", "cdal_cost"), "'cdal'"),
        ("phy_rates", (9, 9.0), "9.0"),
        ("seeds", (1, 2, 1), "1"),
    ])
    def test_rejects_repeated_item(self, name, items, repeated):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        with pytest.raises(ValidationError, match=re.escape(f"{repeated} is repeated in {name}")):
            ExperimentConfig(topology=topo, **{name: items})

    def test_integer_rates_become_floats(self):
        topo = gen_grid(2, 2, 100, 100, 2, 1, 2)
        assert ExperimentConfig(topology=topo, phy_rates=(9, 54.0)).phy_rates == (9.0, 54.0)


class TestMatrix:
    def test_row_counts(self, small_report):
        assert len(small_report.rows) == 2 * 2 * 1 * 3
        assert len(small_report.mean_rows) == 2 * 2 * 1
        assert len(small_report.all_rows()) == 12 + 4

    def test_rows_sorted_with_trailing_means(self, small_report):
        rows = small_report.all_rows()
        groups = []
        for row in rows:
            key = (row["scheme"], row["metric"], row["phy_rate_mbps"])
            if row["seed"] == "mean":
                assert key == groups[-1]
            else:
                if not groups or groups[-1] != key:
                    groups.append(key)
        assert groups == sorted(groups)

    def test_means_consistent_with_members(self, small_report):
        for mean in small_report.mean_rows:
            members = [
                r
                for r in small_report.rows
                if (r["scheme"], r["metric"], r["phy_rate_mbps"])
                == (mean["scheme"], mean["metric"], mean["phy_rate_mbps"])
            ]
            for col in ("tid", "cdal_cost", "cxls_wt", "est_aggregate_throughput_mbps"):
                expected = sum(r[col] for r in members) / len(members)
                assert mean[col] == pytest.approx(expected)

    def test_no_errors_on_clean_run(self, small_report):
        assert not small_report.failed
        assert all(r["error"] == "" for r in small_report.rows)

    def test_single_cell_mean_equals_row(self):
        topo = gen_grid(1, 3, 100, 100, 2, 2, 2)
        cfg = ExperimentConfig(
            topology=topo, schemes=("pio",), metrics=("tid",),
            phy_rates=(9.0,), seeds=(1,),
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 1 and len(report.mean_rows) == 1
        row, mean = report.rows[0], report.mean_rows[0]
        for col in ("tid", "cdal_cost", "cxls_wt", "est_aggregate_throughput_mbps"):
            assert mean[col] == row[col]

    def test_failed_cell_recorded_not_raised(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)  # 3^12 > tiny budget
        cfg = ExperimentConfig(
            topology=topo, schemes=("bio", "pio"), metrics=("tid",),
            phy_rates=(9.0,), seeds=(1,), bio_budget=100,
        )
        report = run_experiment(cfg)
        assert report.failed
        bio_row = next(r for r in report.rows if r["scheme"] == "bio")
        assert "BudgetExceededError" in bio_row["error"]
        assert bio_row["tid"] is None
        pio_row = next(r for r in report.rows if r["scheme"] == "pio")
        assert pio_row["error"] == "" and pio_row["tid"] is not None

    def test_non_grid_topology_skips_throughput(self):
        from meshca import gen_random

        topo = gen_random(5, 200, 200, 250, 2, 2, 3, seed=1)
        cfg = ExperimentConfig(
            topology=topo, schemes=("pio",), metrics=("tid",),
            phy_rates=(9.0,), seeds=(1,),
        )
        report = run_experiment(cfg)
        assert not report.failed
        assert report.rows[0]["est_aggregate_throughput_mbps"] is None


def two_rate_config(**overrides) -> ExperimentConfig:
    settings = dict(
        topology=gen_grid(2, 3, 100, 100, 2, 2, 3), schemes=("pio", "ko"),
        metrics=("tid", "cxls"), phy_rates=(54.0, 9.0), seeds=(2, 1),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def without_wall_ms(rows) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def rows_by_cell(report) -> dict:
    cells = {}
    for row in report.rows:
        cells.setdefault((row["scheme"], row["metric"], row["seed"]), []).append(row)
    return cells


class TestOncePerCell:
    def test_one_trajectory_per_metric_seed(self, monkeypatch):
        calls = []
        for name in ("initial_assignment", "bio_assign"):
            real = getattr(optimizer, name)

            def counting(topo, cfg, _real=real, _name=name):
                calls.append((_name, cfg.metric, cfg.seed))
                return _real(topo, cfg)

            monkeypatch.setattr(optimizer, name, counting)
        cfg = two_rate_config(topology=gen_grid(1, 3, 100, 100, 2, 2, 2),
                              schemes=("bio", "pio", "ko", "ho"))
        report = run_experiment(cfg)
        # pio, ko and ho share one trajectory per (metric, seed); bio runs per cell
        runs = [(metric, seed) for metric in cfg.metrics for seed in sorted(cfg.seeds)]
        assert sorted(calls) == sorted(
            [("bio_assign", *run) for run in runs] + [("initial_assignment", *run) for run in runs]
        )
        assert len(report.rows) == 4 * len(runs) * len(cfg.phy_rates)
        assert not report.failed

    def test_rates_of_a_cell_share_its_optimization(self):
        cells = rows_by_cell(run_experiment(two_rate_config()))
        assert len(cells) == 2 * 2 * 2
        for rows in cells.values():
            assert [r["phy_rate_mbps"] for r in rows] == [9.0, 54.0]
            for col in ("tid", "cdal_cost", "cxls_wt", "iterations", "error"):
                assert len({r[col] for r in rows}) == 1, col
            assert rows[0]["tid"] is not None and rows[0]["error"] == ""
            assert all(r["est_aggregate_throughput_mbps"] is not None for r in rows)

    def test_optimization_error_in_every_rate_row(self):
        report = run_experiment(two_rate_config(schemes=("bio", "pio"), bio_budget=100))
        for (scheme, _, _), rows in rows_by_cell(report).items():
            errors = {r["error"] for r in rows}
            assert len(rows) == 2 and len(errors) == 1
            if scheme == "bio":
                assert errors.pop().startswith("BudgetExceededError: ")
                assert all(r["tid"] is None and r["est_aggregate_throughput_mbps"] is None
                           for r in rows)
            else:
                assert errors == {""}

    def test_evaluation_error_stays_in_its_row(self, monkeypatch):
        real = experiment.estimate_performance

        def failing_at_54(topo, ca, flows, rate):
            if rate == 54.0:
                raise RuntimeError("no estimate at 54")
            return real(topo, ca, flows, rate)

        monkeypatch.setattr(experiment, "estimate_performance", failing_at_54)
        report = run_experiment(two_rate_config())
        for row in report.rows:
            assert row["tid"] is not None
            if row["phy_rate_mbps"] == 54.0:
                assert row["error"] == "RuntimeError: no estimate at 54"
                assert row["est_aggregate_throughput_mbps"] is None
            else:
                assert row["error"] == ""
                assert row["est_aggregate_throughput_mbps"] is not None
        for mean in report.mean_rows:
            assert (mean["tid"] is None) == (mean["phy_rate_mbps"] == 54.0)


class TestSharedTrajectory:
    def test_rows_match_standalone_runs(self):
        cfg = two_rate_config(schemes=("pio", "ko", "ho"), metrics=("tid", "cdal", "cxls"),
                              seeds=(1, 2, 3))
        report = run_experiment(cfg)
        flows = build_grid_flows(cfg.topology)
        for row in report.rows:
            ca, _, trace = run_scheme(cfg.topology, SchemeConfig(
                scheme=row["scheme"], metric=row["metric"], seed=row["seed"]))
            values = all_scores(cfg.topology, ca)
            expected = {col: values[metric] for metric, col in METRIC_COLUMNS.items()}
            expected.update(
                iterations=len(trace.records), error="",
                est_aggregate_throughput_mbps=estimate_performance(
                    cfg.topology, ca, flows, row["phy_rate_mbps"]
                ).aggregate_throughput_mbps,
            )
            assert {col: row[col] for col in expected} == expected, row

    def test_identical_snapshots_are_scored_once(self, monkeypatch):
        cfg = two_rate_config(schemes=("pio", "ko", "ho"), metrics=("tid", "cdal", "cxls"),
                              seeds=(1, 2, 3))
        scored = []
        real = experiment.all_scores

        def counting(topo, ca, x=None):
            scored.append(dict(ca))
            return real(topo, ca, x)

        monkeypatch.setattr(experiment, "all_scores", counting)
        run_experiment(cfg)
        distinct = []
        for metric in cfg.metrics:
            for seed in cfg.seeds:
                cas = [run_scheme(cfg.topology, SchemeConfig(scheme=s, metric=metric, seed=seed))[0]
                       for s in ("pio", "ko", "ho")]
                distinct += [ca for i, ca in enumerate(cas) if i == 0 or ca != cas[i - 1]]
        # on this grid some snapshots repeat the one before and some do not
        assert 9 < len(distinct) < 27
        assert sorted(map(sorted, map(dict.items, scored))) == sorted(
            map(sorted, map(dict.items, distinct)))

    def test_rci_error_only_in_ho_rows(self, monkeypatch):
        cfg = two_rate_config(schemes=("pio", "ko", "ho"))
        clean = run_experiment(cfg)

        def failing(state):
            raise RuntimeError("no cleanup")

        monkeypatch.setattr(optimizer, "rci_mitigate", failing)
        report = run_experiment(cfg)
        assert len(report.rows) == len(clean.rows)
        ho = [r for r in report.rows if r["scheme"] == "ho"]
        assert len(ho) == len(cfg.metrics) * len(cfg.seeds) * len(cfg.phy_rates)
        for row in ho:
            assert row["error"] == "RuntimeError: no cleanup"
            assert all(row[col] is None for col in (
                "tid", "cdal_cost", "cxls_wt", "est_aggregate_throughput_mbps", "iterations"))
        assert without_wall_ms(r for r in report.rows if r["scheme"] != "ho") == without_wall_ms(
            r for r in clean.rows if r["scheme"] != "ho")

    def test_optimization_error_before_any_snapshot_in_every_row(self, monkeypatch):
        def failing(topo, cfg):
            raise RuntimeError("no start")

        monkeypatch.setattr(optimizer, "initial_assignment", failing)
        report = run_experiment(two_rate_config(schemes=("pio", "ko", "ho")))
        assert len(report.rows) == 3 * 2 * 2 * 2
        assert {r["error"] for r in report.rows} == {"RuntimeError: no start"}

    def test_wall_ms_grows_along_the_trajectory(self, monkeypatch):
        real = optimizer.rci_mitigate

        def slow(state):
            time.sleep(0.2)
            return real(state)

        monkeypatch.setattr(optimizer, "rci_mitigate", slow)
        report = run_experiment(two_rate_config(schemes=("pio", "ko", "ho"), seeds=(1,)))
        for row in report.rows:
            assert (row["wall_ms"] >= 200) == (row["scheme"] == "ho")


class TestOutputs:
    def test_report_csv_layout(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(small_report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 1 + 12 + 4
        seeds = [r[3] for r in rows[1:]]
        assert seeds.count("mean") == 4

    def test_plot_data_files(self, small_report, tmp_path):
        written = write_plot_data(small_report, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "plot_cdal_cost.csv",
            "plot_cxls_wt.csv",
            "plot_est_aggregate_throughput_mbps.csv",
            "plot_tid.csv",
        ]
        with open(tmp_path / "plot_tid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scheme", "metric", "phy_rate_mbps", "mean_tid"]
        assert len(rows) == 1 + len(small_report.mean_rows)

    def test_summary_keys(self, small_report):
        assert set(small_report.summary) == {
            "ho_ge_ko_ge_pio_by_throughput",
            "cxls_vs_tid_throughput_change_pct",
            "cdal_vs_tid_throughput_change_pct",
            "seeds_ho_beats_ko",
            "seeds_ko_beats_pio",
        }
        # pio+ko only: the three-scheme ordering cannot be evaluated
        assert small_report.summary["ho_ge_ko_ge_pio_by_throughput"] == {}
        assert small_report.summary["cxls_vs_tid_throughput_change_pct"]
        # no cdal and no ho: nothing to compare
        assert small_report.summary["cdal_vs_tid_throughput_change_pct"] == {}
        assert small_report.summary["seeds_ho_beats_ko"] == {}
        assert set(small_report.summary["seeds_ko_beats_pio"]) == {"tid", "cxls"}

    def test_summary_pinned_on_a_small_matrix(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        report = run_experiment(ExperimentConfig(topology=topo, seeds=(1, 2, 3), phy_rates=(9.0,)))
        assert report.summary == {
            "ho_ge_ko_ge_pio_by_throughput": {
                "cdal@9Mbps": True, "cxls@9Mbps": True, "tid@9Mbps": False},
            "cxls_vs_tid_throughput_change_pct": {
                "ho@9Mbps": 26.67, "ko@9Mbps": 16.67, "pio@9Mbps": 9.38},
            "cdal_vs_tid_throughput_change_pct": {
                "ho@9Mbps": 6.67, "ko@9Mbps": 6.67, "pio@9Mbps": 0.0},
            "seeds_ho_beats_ko": {"cdal": 0, "cxls": 2, "tid": 0},
            "seeds_ko_beats_pio": {"cdal": 0, "cxls": 1, "tid": 2},
        }
        # built like the cxls change, from the mean throughput rows
        means = {(m["scheme"], m["metric"]): m["est_aggregate_throughput_mbps"]
                 for m in report.mean_rows}
        for scheme in ("pio", "ko", "ho"):
            t, c = means[scheme, "tid"], means[scheme, "cdal"]
            assert report.summary["cdal_vs_tid_throughput_change_pct"][f"{scheme}@9Mbps"] == round(
                (c - t) / t * 100, 2)
        # the seed counts follow from standalone runs' scores
        for strong, weak in (("ho", "ko"), ("ko", "pio")):
            for metric in ("tid", "cdal", "cxls"):
                wins = sum(
                    better(*(run_scheme(topo, SchemeConfig(scheme=s, metric=metric, seed=seed))[1]
                             for s in (strong, weak)))
                    for seed in (1, 2, 3)
                )
                assert report.summary[f"seeds_{strong}_beats_{weak}"][metric] == wins
