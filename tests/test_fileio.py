import json

import pytest

from meshca import (
    MismatchedFilesError,
    SchemeConfig,
    ValidationError,
    gen_grid,
    gen_random,
    run_scheme,
    uniform_assignment,
)
from meshca.fileio import (
    check_files_consistent,
    load_assignment,
    load_topology,
    save_assignment,
    save_topology,
    save_trace,
    trace_to_dict,
)


class TestTopologyRoundTrip:
    def test_grid(self, tmp_path):
        topo = gen_grid(3, 4, 250, 250, 2, 2, 3)
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        assert load_topology(path) == topo

    def test_random_layout_floats_survive(self, tmp_path):
        topo = gen_random(7, 321.5, 456.25, 250, 2, 2, 3, seed=13)
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        assert load_topology(path) == topo

    def test_byte_identical_writes(self, tmp_path):
        topo = gen_random(5, 100, 100, 250, 2, 1, 2, seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_topology(topo, a)
        save_topology(topo, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_topology(path)
        path.write_text('{"nodes": []}')
        with pytest.raises(ValidationError):
            load_topology(path)


class TestAssignmentRoundTrip:
    def test_round_trip(self, tmp_path):
        topo = gen_grid(2, 2, 100, 100, 2, 2, 3)
        ca, _, _ = run_scheme(topo, SchemeConfig(scheme="ko", metric="tid", seed=1))
        path = tmp_path / "ca.json"
        save_assignment(ca, path)
        assert load_assignment(path) == ca

    @pytest.mark.parametrize("channel", [1.9, True, "2"])
    def test_non_integer_channel_rejected(self, tmp_path, channel):
        path = tmp_path / "ca.json"
        path.write_text(json.dumps({"0:0": 0, "0:1": channel}))
        with pytest.raises(ValidationError, match="not an integer"):
            load_assignment(path)

    def test_malformed_key_rejected(self, tmp_path):
        path = tmp_path / "ca.json"
        path.write_text('{"zero": 1}')
        with pytest.raises(ValidationError):
            load_assignment(path)


class TestConsistency:
    def test_missing_radio_named_first(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        del ca[(1, 0)]
        del ca[(2, 1)]
        with pytest.raises(MismatchedFilesError, match="missing radio 1:0"):
            check_files_consistent(line3_m2, ca)

    def test_unknown_radio_named(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        ca[(9, 0)] = 0
        with pytest.raises(MismatchedFilesError, match="unknown radio 9:0"):
            check_files_consistent(line3_m2, ca)

    def test_out_of_range_channel_named(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        ca[(0, 1)] = 5
        with pytest.raises(MismatchedFilesError, match="channel 5 out of range"):
            check_files_consistent(line3_m2, ca)


class TestTraceFile:
    def test_structure(self, tmp_path, line3_m1):
        _, _, trace = run_scheme(line3_m1, SchemeConfig(scheme="pio", metric="tid"))
        data = trace_to_dict(trace, scheme="pio", seed=0)
        assert data["records"] == [{"iteration": 1, "score": 2.0, "moves": 0}]
        assert data["initial_score"] == 2.0 and data["final_score"] == 2.0
        assert data["feasible"] is True and data["scheme"] == "pio"
        save_trace(trace, tmp_path / "trace.json", scheme="pio")
        assert (tmp_path / "trace.json").exists()
