import random

import pytest

import oracles
from conftest import make_random_assignment
from meshca import (
    FlowSpec,
    IncompleteAssignmentError,
    NonGridTopologyError,
    ValidationError,
    build_grid_flows,
    estimate_performance,
    gen_grid,
    gen_random,
    uniform_assignment,
)
from meshca.evaluator import DEFAULT_PAYLOAD_BYTES, grid_layout


class TestBuildGridFlows:
    def test_default_five_by_five_scenario(self):
        topo = gen_grid(5, 5, 250, 250, 2, 2, 3)
        flows = build_grid_flows(topo)
        assert len(flows) == 10
        assert all(f.hops == 4 for f in flows)
        assert all(f.payload_bytes == DEFAULT_PAYLOAD_BYTES for f in flows)
        # five rows left-to-right, five columns top-to-bottom
        assert flows[0].path == (0, 1, 2, 3, 4)
        assert flows[5].path == (0, 5, 10, 15, 20)

    def test_degenerate_columns_dropped(self):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        flows = build_grid_flows(topo)
        assert len(flows) == 1
        assert flows[0].path == (0, 1) and flows[0].hops == 1

    def test_three_by_three(self):
        topo = gen_grid(3, 3, 100, 100, 2, 1, 2)
        flows = build_grid_flows(topo)
        assert len(flows) == 6
        assert all(f.hops == 2 for f in flows)

    def test_non_grid_rejected(self):
        topo = gen_random(6, 400, 400, 250, 2, 2, 3, seed=3)
        with pytest.raises(NonGridTopologyError):
            build_grid_flows(topo)

    def test_layout_row_major(self):
        topo = gen_grid(2, 3, 100, 100, 2, 1, 2)
        assert grid_layout(topo) == [[0, 1, 2], [3, 4, 5]]


class TestEstimatePerformance:
    def test_uncontended_single_hop(self):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        report = estimate_performance(
            topo, uniform_assignment(topo), build_grid_flows(topo), 54.0)
        flow = report.flows[0]
        assert flow.throughput_mbps == 54.0
        assert flow.transfer_time_s == pytest.approx(0.777, abs=5e-4)
        assert report.aggregate_throughput_mbps == 54.0

    def test_two_flows_share_one_link(self):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        flow = FlowSpec(0, 1, (0, 1))
        report = estimate_performance(
            topo, uniform_assignment(topo), [flow, flow], 54.0)
        assert [f.throughput_mbps for f in report.flows] == [27.0, 27.0]

    def test_line_with_self_interference(self, line3_m1):
        report = estimate_performance(
            line3_m1, uniform_assignment(line3_m1), [FlowSpec(0, 2, (0, 1, 2))], 9.0)
        flow = report.flows[0]
        assert flow.throughput_mbps == pytest.approx(4.5)
        assert flow.contention == 1

    def test_disconnected_flow_zero(self, line3_m1):
        ca = {(0, 0): 0, (1, 0): 0, (2, 0): 1}
        report = estimate_performance(line3_m1, ca, [FlowSpec(0, 2, (0, 1, 2))], 9.0)
        assert report.flows[0].throughput_mbps == 0.0
        assert report.flows[0].transfer_time_s is None
        assert report.disconnected == (0,)

    def test_throughput_bounded_by_phy_rate(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        for seed in range(4):
            ca = make_random_assignment(random.Random(seed), topo)
            report = estimate_performance(topo, ca, build_grid_flows(topo), 54.0)
            for flow in report.flows:
                assert 0.0 <= flow.throughput_mbps <= 54.0
            assert report.aggregate_throughput_mbps == pytest.approx(
                sum(f.throughput_mbps for f in report.flows))

    def test_conflict_free_single_users_hit_phy_rate(self, line3_m2_c3):
        # AB only channel 0, BC only channel 2: active links never conflict
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        flows = [FlowSpec(0, 1, (0, 1)), FlowSpec(1, 2, (1, 2))]
        report = estimate_performance(line3_m2_c3, ca, flows, 54.0)
        assert [f.throughput_mbps for f in report.flows] == [54.0, 54.0]

    def test_added_conflict_never_helps(self):
        # a second co-channel link within interference reach of the flow's
        # bottleneck must not increase that flow's throughput
        topo = gen_grid(1, 4, 100, 100, 2, 1, 2)
        flow = FlowSpec(0, 1, (0, 1))
        other = FlowSpec(2, 3, (2, 3))
        ca_overlap = {(0, 0): 0, (1, 0): 0, (2, 0): 0, (3, 0): 0}
        ca_separate = {(0, 0): 1, (1, 0): 1, (2, 0): 0, (3, 0): 0}
        with_conflict = estimate_performance(topo, ca_overlap, [flow, other], 54.0)
        without_conflict = estimate_performance(topo, ca_separate, [flow, other], 54.0)
        assert (
            with_conflict.flows[0].throughput_mbps
            <= without_conflict.flows[0].throughput_mbps
        )
        assert with_conflict.flows[0].contention == 1
        assert without_conflict.flows[0].contention == 0

    def test_hop_picks_least_conflicted_link(self, line3_m2):
        # channels: A=(0,1), B=(0,1), C=(0,0) -> AB has links on ch0 and ch1;
        # BC only on ch0, so AB's ch1 link has fewer conflicts and is chosen
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1, (2, 0): 0, (2, 1): 0}
        report = estimate_performance(line3_m2, ca, [FlowSpec(0, 1, (0, 1))], 54.0)
        assert report.flows[0].bottleneck.channel == 1
        assert report.flows[0].throughput_mbps == 54.0

    def test_deterministic(self, line3_m2):
        flows = [FlowSpec(0, 2, (0, 1, 2))]
        ca = {(n, r): r for n in range(3) for r in range(2)}
        a = estimate_performance(line3_m2, ca, flows, 9.0)
        b = estimate_performance(line3_m2, ca, flows, 9.0)
        assert a == b

    def test_incomplete_assignment_rejected(self, line3_m1):
        flows = [FlowSpec(0, 2, (0, 1, 2))]
        with pytest.raises(IncompleteAssignmentError):
            estimate_performance(line3_m1, {(0, 0): 0}, flows, 9.0)
        with pytest.raises(IncompleteAssignmentError):
            estimate_performance(line3_m1, {(0, 0): 0, (1, 0): 0, (2, 0): 9}, flows, 9.0)

    @pytest.mark.parametrize("path", [(0,), ()])
    def test_flow_without_hop_rejected(self, path):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        flows = [FlowSpec(0, 1, (0, 1)), FlowSpec(0, 0, path)]
        with pytest.raises(ValidationError, match="no hop"):
            estimate_performance(topo, uniform_assignment(topo), flows, 9.0)

    @pytest.mark.parametrize(
        "rate", [0, 0.0, -5.0, float("nan"), float("inf"), float("-inf"), True, "54", None]
    )
    def test_bad_phy_rate_rejected(self, rate):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        flows = [FlowSpec(0, 1, (0, 1))]
        with pytest.raises(ValidationError, match="phy_rate"):
            estimate_performance(topo, uniform_assignment(topo), flows, rate)

    def test_integer_phy_rate_accepted(self):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        flows = [FlowSpec(0, 1, (0, 1))]
        report = estimate_performance(topo, uniform_assignment(topo), flows, 9)
        assert report.aggregate_throughput_mbps == 9.0

    def test_matches_radio_level_oracle(self):
        # random grids and assignments, the grid flows plus a duplicate flow
        # and flows with a non-adjacent hop (after an adjacent one, too)
        rng = random.Random(53)
        for _ in range(300):
            topo = gen_grid(rng.randint(1, 5), rng.randint(1, 5), 100, 100,
                            rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4))
            ca = make_random_assignment(rng, topo)
            flows = build_grid_flows(topo)
            if flows:
                flows.append(rng.choice(flows))
            ids = topo.node_ids()
            flows.append(FlowSpec(ids[0], ids[-1], (ids[0], ids[-1])))
            if len(ids) >= 3:
                flows.append(FlowSpec(ids[0], ids[-1], (ids[0], ids[1], ids[-1])))
            for rate in (9.0, 54.0):
                assert estimate_performance(topo, ca, flows, rate) == \
                    oracles.estimate_performance(topo, ca, flows, rate)
