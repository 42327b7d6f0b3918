import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshca import (
    IncompleteAssignmentError,
    Node,
    SchemeConfig,
    Topology,
    ValidationError,
    check_assignment,
    gen_grid,
    gen_random,
    run_scheme,
    uniform_assignment,
)
from meshca.fileio import (
    assignment_from_dict,
    assignment_to_dict,
    load_assignment,
    load_topology,
    save_assignment,
    save_topology,
    save_trace,
    topology_from_dict,
    topology_to_dict,
    trace_to_dict,
)


@st.composite
def topologies(draw):
    """Valid topologies, nodes sorted by id as topology_from_dict returns them."""
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=len(points),
                        max_size=len(points), unique=True))
    return Topology(
        nodes=tuple(sorted((Node(i, x, y) for i, (x, y) in zip(ids, points)),
                           key=lambda n: n.id)),
        radios_per_node=draw(st.integers(1, 4)),
        tx_range=draw(st.floats(1e-3, 1e6)),
        interference_x=draw(st.integers(1, 4)),
        channel_count=draw(st.integers(1, 12)),
    )


def grid_dict(**changes):
    data = topology_to_dict(gen_grid(1, 3, 100, 100, 2, 2, 2))
    data.update(changes)
    return data


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

    @pytest.mark.parametrize("text", ["[]", '"abc"', "3", "null"])
    def test_non_object_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for load in (load_topology, load_assignment):
            with pytest.raises(ValidationError, match="bad.json: expected a JSON object"):
                load(path)

    def test_overlong_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"radios_per_node": ' + "9" * 5000 + "}")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_topology(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_topology(path)

    @pytest.mark.parametrize("field", ["radios_per_node", "interference_x", "channel_count"])
    @pytest.mark.parametrize("value", [2.7, 2.0, True])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} .* is not an integer"):
            topology_from_dict(grid_dict(**{field: value}))

    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_integer_node_id_rejected(self, value):
        data = grid_dict()
        data["nodes"][0]["id"] = value
        with pytest.raises(ValidationError, match="node id .* is not an integer"):
            topology_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, value):
        data = grid_dict()
        data["nodes"][1]["y"] = value
        with pytest.raises(ValidationError, match="node 1 has a non-finite position"):
            topology_from_dict(data)

    @pytest.mark.parametrize("value", ["0", "1e3", True, None, [1.0]])
    @pytest.mark.parametrize("field", ["x", "y", "tx_range"])
    def test_non_number_rejected(self, field, value):
        data = grid_dict()
        if field == "tx_range":
            data["tx_range"] = value
        else:
            data["nodes"][1][field] = value
        with pytest.raises(ValidationError, match=f"{field} .* is not a number"):
            topology_from_dict(data)

    def test_integer_coordinates_accepted(self):
        data = grid_dict(tx_range=100)
        data["nodes"][1]["x"] = 100
        assert topology_from_dict(data) == gen_grid(1, 3, 100, 100, 2, 2, 2)

    def test_oversized_integer_coordinate_rejected(self):
        data = grid_dict()
        data["nodes"][1]["x"] = 10**400
        with pytest.raises(ValidationError, match="node x .* is not a finite number"):
            topology_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tx_range_rejected(self, value):
        with pytest.raises(ValidationError, match="tx_range must be finite"):
            topology_from_dict(grid_dict(tx_range=value))

    @given(topologies())
    def test_dict_round_trip(self, topo):
        text = json.dumps(topology_to_dict(topo))
        assert topology_from_dict(json.loads(text)) == topo


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

    @pytest.mark.parametrize("key", [
        "3_0:1", " 1:0", "1:0 ", "+1:0", "1:+0", "1:-0", "1:", ":0", "1:0:0",
        "\u0661:0", "1" * 5000 + ":0",
    ])
    def test_non_canonical_key_rejected(self, tmp_path, key):
        path = tmp_path / "ca.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(ValidationError, match="malformed assignment entry"):
            load_assignment(path)

    @given(st.dictionaries(st.tuples(st.integers(-1000, 1000), st.integers(0, 8)),
                           st.integers(0, 16)))
    def test_dict_round_trip(self, ca):
        text = json.dumps(assignment_to_dict(ca))
        assert assignment_from_dict(json.loads(text)) == ca


class TestConsistency:
    def test_missing_radio_named_first(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        del ca[(1, 0)]
        del ca[(2, 1)]
        with pytest.raises(IncompleteAssignmentError, match="missing radio 1:0"):
            check_assignment(line3_m2, ca)

    def test_unknown_radio_named(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        ca[(9, 0)] = 0
        with pytest.raises(IncompleteAssignmentError, match="unknown radio 9:0"):
            check_assignment(line3_m2, ca)

    def test_out_of_range_channel_named(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        ca[(0, 1)] = 5
        with pytest.raises(IncompleteAssignmentError, match="channel 5 out of range"):
            check_assignment(line3_m2, ca)

    @pytest.mark.parametrize("channel", [True, False])
    def test_bool_channel_rejected(self, line3_m2, channel):
        # a bool is an int in Python, but never a channel
        ca = uniform_assignment(line3_m2)
        ca[(0, 1)] = channel
        with pytest.raises(IncompleteAssignmentError, match=f"channel {channel} out of range"):
            check_assignment(line3_m2, ca)


class TestTraceFile:
    def test_structure(self, tmp_path, line3_m1):
        _, _, trace = run_scheme(line3_m1, SchemeConfig(scheme="pio", metric="tid"))
        data = trace_to_dict(trace, scheme="pio", seed=0)
        assert data["records"] == [{"iteration": 1, "score": 2.0, "moves": 0}]
        assert data["initial_score"] == 2.0 and data["final_score"] == 2.0
        assert data["feasible"] is True and data["scheme"] == "pio"
        save_trace(trace, tmp_path / "trace.json", scheme="pio")
        assert (tmp_path / "trace.json").exists()
