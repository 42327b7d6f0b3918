import math
import random
import re
from collections import Counter

import pytest

import oracles
from conftest import make_random_assignment, make_random_topology
from meshca import (
    ConnectivityError,
    ExperimentConfig,
    Node,
    RangeConfigError,
    SchemeConfig,
    Topology,
    ValidationError,
    adjacent_pairs,
    bio_assign,
    check_assignment,
    estimate_performance,
    gen_grid,
    gen_random,
    is_ca_connected,
    run_experiment,
    run_scheme,
    score,
    uniform_assignment,
)
from meshca.optimizer import trajectory
from meshca.topology import (
    compile_topology,
    conflict_degrees,
    is_potential_connected,
    node_histograms,
    pair_links,
)


def link_counts(topo, ca):
    """(L, K) of pair_links plus the conflict degrees D of each (channel, pair)."""
    inst = compile_topology(topo)
    links, k = pair_links(inst, node_histograms(inst, ca))
    return links, k, conflict_degrees(inst, links)


def line(**changes) -> Topology:
    """A valid two-node line, with the given fields changed."""
    fields = dict(nodes=(Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)), radios_per_node=2,
                  tx_range=100.0, interference_x=2, channel_count=2)
    return Topology(**(fields | changes))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Node("1", 0, 0), "node id '1' is not an integer", id="node-id-str"),
    pytest.param(lambda: Node(True, 0, 0), "node id True is not an integer", id="node-id-bool"),
    pytest.param(lambda: Node(1, "100", 0), "node x '100' is not a number", id="node-x-str"),
    pytest.param(lambda: line(nodes=[Node(0, 0, 0), Node(1, 100, 0)]),
                 "nodes must be a tuple of Node", id="nodes-list"),
    pytest.param(lambda: line(radios_per_node=2.5), "radios_per_node 2.5 is not an integer",
                 id="radios-float"),
    pytest.param(lambda: line(radios_per_node=True), "radios_per_node True is not an integer",
                 id="radios-bool"),
    pytest.param(lambda: line(radios_per_node="2"), "radios_per_node '2' is not an integer",
                 id="radios-str"),
    pytest.param(lambda: line(nodes=(Node(0, 0, 0), Node(1, 0, 0))),
                 "node positions must be distinct", id="coincident-nodes"),
    pytest.param(lambda: gen_grid(2, 2, radios_per_node=2.7),
                 "radios_per_node 2.7 is not an integer", id="grid-radios-float"),
    pytest.param(lambda: gen_grid(2, 2, radios_per_node=True),
                 "radios_per_node True is not an integer", id="grid-radios-bool"),
    pytest.param(lambda: gen_grid(2, 2, channel_count=3.9),
                 "channel_count 3.9 is not an integer", id="grid-channels-float"),
    pytest.param(lambda: gen_grid(2, 2, interference_x=2.5),
                 "interference_x 2.5 is not an integer", id="grid-x-float"),
    pytest.param(lambda: gen_grid(2.5, 2), "rows must be an integer >= 1, got 2.5",
                 id="grid-rows-float"),
    pytest.param(lambda: gen_grid(2, 2, spacing=math.nan),
                 "spacing must be a finite number > 0, got nan", id="grid-spacing-nan"),
    pytest.param(lambda: gen_grid(2, 2, spacing=math.inf),
                 "spacing must be a finite number > 0, got inf", id="grid-spacing-inf"),
    pytest.param(lambda: gen_random(5.5, 500, 500), "n must be an integer >= 1, got 5.5",
                 id="random-n-float"),
    pytest.param(lambda: gen_random(5, math.nan, 500),
                 "width must be a finite number > 0, got nan", id="random-width-nan"),
    pytest.param(lambda: gen_random(5, 500, 500, max_draws=2.5),
                 "max_draws must be an integer >= 1, got 2.5", id="random-draws-float"),
])
def test_invalid_field_rejected_when_built(build, message):
    # a ValidationError naming the field: no TypeError later, no truncation
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        build()


@pytest.mark.parametrize("call, got", [
    pytest.param(lambda: run_experiment(ExperimentConfig(topology={"nodes": []})),
                 "dict {'nodes': []}", id="experiment"),
    pytest.param(lambda: run_scheme({"nodes": []}, SchemeConfig()), "dict {'nodes': []}",
                 id="run-scheme"),
    pytest.param(lambda: estimate_performance("grid", {(0, 0): 0}, [], 9.0), "str 'grid'",
                 id="estimate"),
    pytest.param(lambda: score("tid", None, {(0, 0): 0}), "NoneType None", id="score"),
    pytest.param(lambda: is_ca_connected({"nodes": []}, {}), "dict {'nodes': []}",
                 id="is-ca-connected"),
    pytest.param(lambda: check_assignment({"nodes": []}, {}), "dict {'nodes': []}",
                 id="check-assignment"),
    pytest.param(lambda: bio_assign({"nodes": []}, SchemeConfig(scheme="bio")),
                 "dict {'nodes': []}", id="bio-assign"),
    pytest.param(lambda: list(trajectory({"nodes": []}, SchemeConfig())), "dict {'nodes': []}",
                 id="trajectory"),
])
def test_non_topology_rejected_where_it_enters(call, got):
    # a ValidationError naming what came instead, not an AttributeError deep inside
    with pytest.raises(ValidationError, match="^" + re.escape(f"expected a Topology, got {got}")):
        call()


def test_coordinates_and_tx_range_stored_as_floats():
    topo = gen_grid(1, 2, spacing=100, tx_range=100)
    assert [type(v) for n in topo.nodes for v in (n.x, n.y)] == [float] * 4
    assert type(topo.tx_range) is float
    assert topo == gen_grid(1, 2, spacing=100.0, tx_range=100.0)


class TestGenGrid:
    def test_default_five_by_five_grid(self):
        topo = gen_grid(5, 5, 250, 250, 2, 2, 3)
        assert len(topo.nodes) == 25
        assert len(adjacent_pairs(topo)) == 40

    def test_two_node_line(self):
        topo = gen_grid(1, 2, 100, 100, 2, 1, 2)
        assert len(topo.nodes) == 2
        assert adjacent_pairs(topo) == ((0, 1),)

    def test_collinear_nodes_not_all_adjacent(self):
        topo = gen_grid(1, 3, 100, 100, 2, 2, 2)
        assert len(topo.nodes) == 3
        # ends are 200 m apart, beyond the 100 m range
        assert adjacent_pairs(topo) == ((0, 1), (1, 2))

    def test_positions_row_major(self):
        topo = gen_grid(2, 3, spacing=10, tx_range=10)
        by_id = {n.id: (n.x, n.y) for n in topo.nodes}
        assert by_id[0] == (0, 0)
        assert by_id[2] == (20, 0)
        assert by_id[3] == (0, 10)

    def test_degree_structure(self):
        topo = gen_grid(4, 5, 100, 100, 2, 1, 2)
        ends = Counter(node for pair in adjacent_pairs(topo) for node in pair)
        degs = sorted(ends[n.id] for n in topo.nodes)
        corners = [d for d in degs if d == 2]
        edges = [d for d in degs if d == 3]
        interior = [d for d in degs if d == 4]
        assert len(corners) == 4
        assert len(edges) == 2 * (4 - 2) + 2 * (5 - 2)
        assert len(interior) == (4 - 2) * (5 - 2)

    def test_rejects_bad_range(self):
        with pytest.raises(RangeConfigError):
            gen_grid(2, 2, spacing=100, tx_range=99)
        with pytest.raises(RangeConfigError):
            gen_grid(2, 2, spacing=100, tx_range=100 * math.sqrt(2))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValidationError):
            gen_grid(0, 3)


class TestGenRandom:
    def test_single_node(self):
        topo = gen_random(1, 100, 100, tx_range=50, seed=1)
        assert len(topo.nodes) == 1

    def test_deterministic(self):
        a = gen_random(10, 500, 500, 250, 2, 2, 3, seed=7)
        b = gen_random(10, 500, 500, 250, 2, 2, 3, seed=7)
        assert a == b

    def test_small_area_complete_graph(self):
        topo = gen_random(25, 100, 100, 250, 2, 2, 3, seed=1)
        assert len(adjacent_pairs(topo)) == 25 * 24 // 2

    def test_connectivity_budget_exhausted(self):
        # nodes spread over a huge area with a tiny range cannot connect
        with pytest.raises(ConnectivityError):
            gen_random(10, 1e6, 1e6, tx_range=1.0, seed=3, max_draws=10)

    def test_outputs_connected(self):
        for seed in range(5):
            topo = gen_random(8, 400, 400, tx_range=250, seed=seed)
            assert is_ca_connected(topo, uniform_assignment(topo))


class TestRealizedLinks:
    def test_line_single_radio_all_same(self, line3_m1):
        links, k, _ = link_counts(line3_m1, uniform_assignment(line3_m1))
        assert links == [[1, 1], [0, 0]] and k == [1, 1]

    def test_line_channel_break(self, line3_m1):
        ca = {(0, 0): 0, (1, 0): 0, (2, 0): 1}
        links, k, _ = link_counts(line3_m1, ca)
        assert links == [[1, 0], [0, 0]] and k == [1, 0]

    def test_parallel_links(self, line3_m2):
        ca = {(n, r): r for n in range(3) for r in range(2)}
        links, k, _ = link_counts(line3_m2, ca)
        assert links == [[1, 1], [1, 1]] and k == [2, 2]

    def test_count_matches_radio_pair_loop(self):
        rng = random.Random(42)
        for _ in range(25):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            links, k, _ = link_counts(topo, ca)
            radio_pairs = oracles.links(topo, ca)
            assert sum(k) == sum(map(sum, links)) == len(radio_pairs)
            per_pair = Counter((u, v, ch) for u, _, v, _, ch in radio_pairs)
            pairs = adjacent_pairs(topo)
            assert per_pair == Counter({
                (*pairs[p], ch): n
                for ch, per_channel in enumerate(links)
                for p, n in enumerate(per_channel)
                if n
            })


class TestConflictGraph:
    def test_line_single_conflict(self, line3_m1):
        _, _, degrees = link_counts(line3_m1, uniform_assignment(line3_m1))
        assert degrees == [[1, 1], [0, 0]]

    def test_parallel_channel_conflicts(self, line3_m2):
        # each link conflicts only with the other pair's link on its channel
        ca = {(n, r): r for n in range(3) for r in range(2)}
        _, _, degrees = link_counts(line3_m2, ca)
        assert degrees == [[1, 1], [1, 1]]

    def test_distinct_channels_no_edges(self, line3_m2_c3):
        # AB only on channel 0, BC only on channel 2
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        links, k, degrees = link_counts(line3_m2_c3, ca)
        assert sum(k) == 2
        assert degrees == [[0, 0], [0, 0], [0, 0]]

    def test_symmetric_irreflexive_same_channel(self):
        # per channel, the degrees of all links add up to twice the number
        # of conflicting pairs of distinct links on that channel
        rng = random.Random(7)
        for _ in range(30):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            links, _, degrees = link_counts(topo, ca)
            radio_pairs = oracles.links(topo, ca)
            for ch, (ns, ds) in enumerate(zip(links, degrees)):
                on_ch = [lk for lk in radio_pairs if lk[4] == ch]
                conflicts = sum(
                    oracles.conflicting(topo, on_ch[i], on_ch[j])
                    for i in range(len(on_ch))
                    for j in range(i + 1, len(on_ch))
                )
                assert sum(n * d for n, d in zip(ns, ds)) == 2 * conflicts

    def test_matches_oracle_degrees(self):
        # every link of pair p on channel ch has degree D[ch][p]
        rng = random.Random(11)
        for _ in range(20):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            links, _, degrees = link_counts(topo, ca)
            _, degs = oracles.interference_degrees(topo, ca)
            got = [
                d
                for ns, ds in zip(links, degrees)
                for n, d in zip(ns, ds)
                for _ in range(n)
            ]
            assert sorted(got) == sorted(degs)


class TestConnectivity:
    def test_uniform_line_connected(self, line3_m1):
        assert is_ca_connected(line3_m1, uniform_assignment(line3_m1))

    def test_isolated_node(self, line3_m1):
        assert not is_ca_connected(line3_m1, {(0, 0): 0, (1, 0): 0, (2, 0): 1})

    def test_single_node_trivially_connected(self):
        topo = Topology(nodes=(Node(0, 0.0, 0.0),), radios_per_node=1,
                        tx_range=10.0, interference_x=1, channel_count=1)
        assert is_ca_connected(topo, {(0, 0): 0})

    def test_potential_graph_of_grid_connected(self):
        assert is_potential_connected(gen_grid(3, 4))

    def test_potential_graph_of_two_nodes_out_of_range(self):
        topo = Topology(nodes=(Node(0, 0.0, 0.0), Node(1, 300.0, 0.0)), radios_per_node=1,
                        tx_range=250.0, interference_x=2, channel_count=2)
        assert not is_potential_connected(topo)
