import csv

import pytest

from meshca import ExperimentConfig, ValidationError, gen_grid, run_experiment
from meshca.experiment import REPORT_COLUMNS, write_plot_data, write_report_csv


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
        }
        # pio+ko only: the three-scheme ordering cannot be evaluated
        assert small_report.summary["ho_ge_ko_ge_pio_by_throughput"] == {}
        assert small_report.summary["cxls_vs_tid_throughput_change_pct"]
