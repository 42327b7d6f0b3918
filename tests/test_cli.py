import csv
import json

import pytest

from meshca.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def line3_m2_files(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    code, _, _ = run_cli(
        capsys, "gen", "grid", "--rows", "1", "--cols", "3", "--spacing", "100",
        "--tx-range", "100", "--radios", "2", "--channels", "2", "-o", str(topo),
    )
    assert code == 0
    return topo


class TestGen:
    def test_grid_reports_counts(self, tmp_path, capsys):
        out_file = tmp_path / "g.json"
        code, out, _ = run_cli(
            capsys, "gen", "grid", "--rows", "5", "--cols", "5", "-o", str(out_file))
        assert code == 0
        assert "25 nodes" in out and "40 potential adjacencies" in out
        data = json.loads(out_file.read_text())
        assert len(data["nodes"]) == 25 and data["channel_count"] == 3

    def test_invalid_rows_names_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "grid", "--rows", "0", "--cols", "3"])
        assert info.value.code == 1
        assert "--rows" in capsys.readouterr().err

    def test_bad_range_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "grid", "--rows", "2", "--cols", "2",
            "--tx-range", "50", "-o", str(tmp_path / "g.json"))
        assert code == 1
        assert "tx_range" in err

    def test_random_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "gen", "random", "--n", "10", "--width", "500",
                "--height", "500", "--seed", "7", "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestAssign:
    def test_bio_prints_optimum(self, line3_m2_files, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "assign", "-t", str(line3_m2_files), "--scheme", "bio",
            "--metric", "tid", "-o", str(tmp_path / "ca.json"))
        assert code == 0
        assert "optimized tid=4.0" in out
        assert (tmp_path / "ca.json").exists()
        assert (tmp_path / "ca.json.trace.json").exists()

    def test_deterministic_outputs(self, line3_m2_files, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            ca = tmp_path / f"{name}.json"
            trace = tmp_path / f"{name}.trace.json"
            code, _, _ = run_cli(
                capsys, "assign", "-t", str(line3_m2_files), "--scheme", "ho",
                "--metric", "cxls", "--seed", "3", "-o", str(ca), "--trace", str(trace))
            assert code == 0
            outs.append((ca.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        topo = tmp_path / "big.json"
        run_cli(capsys, "gen", "grid", "--rows", "5", "--cols", "5", "-o", str(topo))
        code, _, err = run_cli(
            capsys, "assign", "-t", str(topo), "--scheme", "bio",
            "-o", str(tmp_path / "ca.json"))
        assert code == 2
        assert "budget" in err


class TestScore:
    def test_single_radio_line_triple(self, tmp_path, capsys):
        topo = tmp_path / "line.json"
        run_cli(capsys, "gen", "grid", "--rows", "1", "--cols", "3", "--spacing",
                "100", "--tx-range", "100", "--radios", "1", "--channels", "2",
                "-o", str(topo))
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps({"0:0": 0, "1:0": 0, "2:0": 0}))
        code, out, _ = run_cli(capsys, "score", "-t", str(topo), "-a", str(ca_path))
        assert code == 0
        assert "tid=2.0" in out and "cdal_cost=1.0" in out and "cxls_wt=0.0" in out

    def test_metric_triple(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps(
            {f"{n}:{r}": r for n in range(3) for r in range(2)}))
        code, out, _ = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path))
        assert code == 0
        assert "tid=4.0" in out and "cdal_cost=0.0" in out and "cxls_wt=1.0" in out

    def test_json_output(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps(
            {f"{n}:{r}": r for n in range(3) for r in range(2)}))
        code, out, _ = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path), "--json")
        assert code == 0
        assert json.loads(out) == {"tid": 4.0, "cdal_cost": 0.0, "cxls_wt": 1.0}

    def test_csv_output(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps(
            {f"{n}:{r}": r for n in range(3) for r in range(2)}))
        code, out, _ = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path), "--csv")
        assert code == 0
        assert out.splitlines() == ["tid,cdal_cost,cxls_wt", "4.0,0.0,1.0"]

    def test_out_of_range_channel_rejected(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps(
            {f"{n}:{r}": 5 for n in range(3) for r in range(2)}))
        code, _, err = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path))
        assert code == 1
        assert "channel 5 out of range for radio 0:0" in err

    @pytest.mark.parametrize("channel", [1.9, True, "2"])
    def test_non_integer_channel_exit_one(self, line3_m2_files, tmp_path, capsys, channel):
        ca_path = tmp_path / "ca.json"
        ca = {f"{n}:{r}": 0 for n in range(3) for r in range(2)}
        ca["1:1"] = channel
        ca_path.write_text(json.dumps(ca))
        code, _, err = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path))
        assert code == 1
        assert "not an integer" in err

    def test_non_utf8_file_exit_one(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path))
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_radio_named(self, line3_m2_files, tmp_path, capsys):
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps({"0:0": 0}))
        code, _, err = run_cli(
            capsys, "score", "-t", str(line3_m2_files), "-a", str(ca_path))
        assert code == 1
        assert "missing radio 0:1" in err


class TestEval:
    def test_grid_eval_json(self, tmp_path, capsys):
        topo = tmp_path / "g.json"
        run_cli(capsys, "gen", "grid", "--rows", "1", "--cols", "2", "--spacing",
                "100", "--tx-range", "100", "--radios", "1", "--channels", "2",
                "-o", str(topo))
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps({"0:0": 0, "1:0": 0}))
        code, out, _ = run_cli(
            capsys, "eval", "-t", str(topo), "-a", str(ca_path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["aggregate_throughput_mbps"] == 54.0
        assert data["flows"][0]["transfer_time_s"] == pytest.approx(0.777, abs=5e-4)

    def test_eval_csv_rows(self, tmp_path, capsys):
        topo = tmp_path / "g.json"
        run_cli(capsys, "gen", "grid", "--rows", "1", "--cols", "2", "--spacing",
                "100", "--tx-range", "100", "--radios", "1", "--channels", "2",
                "-o", str(topo))
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps({"0:0": 0, "1:0": 0}))
        out_csv = tmp_path / "perf.csv"
        code, _, _ = run_cli(
            capsys, "eval", "-t", str(topo), "-a", str(ca_path),
            "--csv", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 1
        assert rows[0]["throughput_mbps"] == "54.0"
        assert rows[0]["bottleneck"] == "0:0-1:0@0"


    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf"])
    def test_bad_phy_rate_exit_one(self, tmp_path, capsys, rate):
        topo = tmp_path / "g.json"
        run_cli(capsys, "gen", "grid", "--rows", "1", "--cols", "2", "--spacing",
                "100", "--tx-range", "100", "--radios", "1", "--channels", "2",
                "-o", str(topo))
        ca_path = tmp_path / "ca.json"
        ca_path.write_text(json.dumps({"0:0": 0, "1:0": 0}))
        code, out, err = run_cli(
            capsys, "eval", "-t", str(topo), "-a", str(ca_path), f"--phy-rate={rate}")
        assert code == 1
        assert out == ""
        assert "meshca: error: phy_rate must be a finite number > 0" in err
        assert "Traceback" not in err


class TestExperiment:
    def test_single_cell(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code, out, _ = run_cli(
            capsys, "experiment", "--rows", "1", "--cols", "3",
            "--radios", "2", "--channels", "2",
            "--schemes", "pio", "--metrics", "tid", "--rates", "9",
            "--seeds", "1", "--out", str(outdir))
        assert code == 0
        with open(outdir / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + 1 member + 1 mean
        header, member, mean = rows
        assert header == [
            "scheme", "metric", "phy_rate_mbps", "seed", "tid", "cdal_cost",
            "cxls_wt", "est_aggregate_throughput_mbps", "iterations", "wall_ms",
            "error",
        ]
        assert member[0:4] == ["pio", "tid", "9.0", "1"]
        assert mean[3] == "mean"
        assert member[4:8] == mean[4:8]  # single member: mean equals the row

    def test_bio_rows_never_worse_than_ho(self, tmp_path, capsys):
        topo = tmp_path / "line.json"
        run_cli(capsys, "gen", "grid", "--rows", "1", "--cols", "3", "--spacing",
                "100", "--tx-range", "100", "--radios", "2", "--channels", "2",
                "-o", str(topo))
        outdir = tmp_path / "exp"
        code, _, _ = run_cli(
            capsys, "experiment", "-t", str(topo), "--schemes", "bio,ho",
            "--metrics", "tid,cxls", "--rates", "9", "--seeds", "1,2",
            "--out", str(outdir))
        assert code == 0
        with open(outdir / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        for metric, column, sign in (("tid", "tid", -1), ("cxls", "cxls_wt", 1)):
            bio = [float(r[column]) for r in rows
                   if r["scheme"] == "bio" and r["metric"] == metric and r["seed"] != "mean"]
            ho = [float(r[column]) for r in rows
                  if r["scheme"] == "ho" and r["metric"] == metric and r["seed"] != "mean"]
            assert bio and ho
            for b, h in zip(bio, ho):
                assert sign * b >= sign * h

    def test_partial_failure_exit_three(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code, _, err = run_cli(
            capsys, "experiment", "--rows", "2", "--cols", "3",
            "--schemes", "bio,pio", "--metrics", "tid", "--rates", "9",
            "--seeds", "1", "--bio-budget", "100", "--out", str(outdir))
        assert code == 3
        assert "FAILED bio" in err
        with open(outdir / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        bio_rows = [r for r in rows if r["scheme"] == "bio" and r["seed"] != "mean"]
        assert "BudgetExceededError" in bio_rows[0]["error"]

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schemes": ["pio"], "metrics": ["cdal"], "phy_rates": [9],
            "seeds": [1], "output_dir": str(tmp_path / "from-config"),
        }))
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(config),
            "--rows", "1", "--cols", "2", "--radios", "1", "--channels", "2")
        assert code == 0
        assert (tmp_path / "from-config" / "report.csv").exists()
        assert (tmp_path / "from-config" / "summary.json").exists()

    def test_config_file_inline_topology_and_formats(self, tmp_path, capsys):
        from meshca import gen_grid
        from meshca.fileio import topology_to_dict

        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "topology": topology_to_dict(topo),
            "schemes": ["ko"], "metrics": ["tid"], "phy_rates": [54],
            "seeds": [1], "formats": ["json"],
            "output_dir": str(tmp_path / "json-only"),
        }))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 0
        outdir = tmp_path / "json-only"
        assert (outdir / "report.json").exists()
        assert not (outdir / "report.csv").exists()
        data = json.loads((outdir / "report.json").read_text())
        assert len(data["rows"]) == 2  # one member + one mean

    @pytest.mark.parametrize("flag, value, message", [
        ("--rates", "abc", "--rates item 'abc' is not a number"),
        ("--rates", "0", "phy_rate must be a finite number > 0, got 0.0"),
        ("--rates", "-9", "phy_rate must be a finite number > 0, got -9.0"),
        ("--rates", "nan", "phy_rate must be a finite number > 0, got nan"),
        ("--seeds", "1.5", "--seeds item '1.5' is not an integer"),
    ])
    def test_bad_flag_item_exit_one_before_any_cell(self, tmp_path, capsys, flag, value,
                                                    message):
        outdir = tmp_path / "exp"
        code, out, err = run_cli(
            capsys, "experiment", "--rows", "1", "--cols", "2", "--radios", "1",
            "--channels", "2", "--schemes", "pio", "--metrics", "tid",
            "--rates", "9", "--seeds", "1", flag, value, "--out", str(outdir))
        assert code == 1
        assert out == ""
        assert f"meshca: error: {message}" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_config_file_fractional_seed_exit_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        outdir = tmp_path / "from-config"
        config.write_text(json.dumps({
            "schemes": ["pio"], "metrics": ["tid"], "phy_rates": [9],
            "seeds": [1.9], "output_dir": str(outdir),
        }))
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(config),
            "--rows", "1", "--cols", "2", "--radios", "1", "--channels", "2")
        assert code == 1
        assert out == ""
        assert "meshca: error: seed must be an integer, got 1.9" in err
        assert not outdir.exists()

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MESHCA_OUTPUT_DIR", str(tmp_path / "env-out"))
        code, _, _ = run_cli(
            capsys, "experiment", "--rows", "1", "--cols", "2", "--radios", "1",
            "--channels", "2", "--schemes", "pio", "--metrics", "tid",
            "--rates", "9", "--seeds", "1")
        assert code == 0
        assert (tmp_path / "env-out" / "report.csv").exists()


class TestRoundTrip:
    def test_written_files_load_back_identical(self, tmp_path, capsys):
        from meshca.fileio import load_assignment, load_topology, save_topology

        topo_path = tmp_path / "t.json"
        run_cli(capsys, "gen", "random", "--n", "6", "--width", "300", "--height",
                "300", "--seed", "11", "-o", str(topo_path))
        topo = load_topology(topo_path)
        again = tmp_path / "t2.json"
        save_topology(topo, again)
        assert topo_path.read_bytes() == again.read_bytes()

        ca_path = tmp_path / "ca.json"
        run_cli(capsys, "assign", "-t", str(topo_path), "--scheme", "ko",
                "--metric", "cdal", "--seed", "2", "-o", str(ca_path))
        ca = load_assignment(ca_path)
        from meshca.fileio import save_assignment

        again_ca = tmp_path / "ca2.json"
        save_assignment(ca, again_ca)
        assert ca_path.read_bytes() == again_ca.read_bytes()
