"""The sweep geometry agrees exactly with the brute-force scans, and the
per-topology caches stay bounded.

adjacent_pairs and interfering_pairs compare each node only with the nodes
after it in x order, up to the first whose x is beyond range; tests/oracles.py
compares every pair of nodes and every pair of adjacent pairs. They must
agree with ==, also where a distance lands exactly on the range, where an x
difference overflows to inf and where the range itself is inf.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from meshca import Node, Topology, gen_grid, score, uniform_assignment
from meshca.topology import CACHE_SIZE, adjacent_pairs, compile_topology, interfering_pairs

coordinate = st.floats(-1e4, 1e4, allow_nan=False)
tx_ranges = st.one_of(
    st.sampled_from([0.1, 1 / 3, 1.0, 7.3, 100.0, 250.0]), st.floats(1e-3, 5e3)
)


@st.composite
def scattered(draw, tx_range):
    """Uniform points over a box a few ranges wide, negative coordinates too."""
    span = tx_range * draw(st.integers(1, 8))
    x0, y0 = draw(coordinate), draw(coordinate)
    offset = st.floats(0, span)
    return draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=30)), (x0, y0)


@st.composite
def clustered(draw, tx_range):
    """Clusters of uneven size and spread, far apart or overlapping."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = draw(coordinate), draw(coordinate)
        spread = tx_range * draw(st.sampled_from([0.05, 0.5, 2.0]))
        offset = st.floats(-spread, spread)
        size = draw(st.integers(1, 15))
        points += [(cx + dx, cy + dy) for dx, dy in draw(
            st.lists(st.tuples(offset, offset), min_size=size, max_size=size))]
    return points, (0.0, 0.0)


@st.composite
def lattice(draw, tx_range):
    """A grid with spacing == tx_range: neighbor distances land on the range,
    and the reach (interference_x spacings) lands on lattice nodes."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    points = [(c * tx_range, r * tx_range) for r in range(rows) for c in range(cols)]
    return points, (draw(coordinate), draw(coordinate))


@st.composite
def huge(draw, tx_range):
    """Points 2^49 to 1e20 ranges from the origin, where one ulp of a
    coordinate is a sizable part of the range or more; some are within
    range of each other."""
    cells = draw(st.sampled_from([2.0**50, 2.0**50 - 2, 2.0**50 + 2, 2.0**49, 2.0**53, 1e20]))
    base = tx_range * cells
    step = st.integers(-4, 4).map(lambda k: k * tx_range / 2)
    pts = draw(st.lists(st.tuples(step, step), min_size=1, max_size=12))
    return pts, (base, draw(st.sampled_from([0.0, -base, base])))


@st.composite
def topologies(draw):
    tx_range = draw(tx_ranges)
    points, (x0, y0) = draw(st.one_of(
        scattered(tx_range), clustered(tx_range), lattice(tx_range), huge(tx_range)))
    # a Topology's node positions are distinct
    points = list(dict.fromkeys((x0 + x, y0 + y) for x, y in points))
    ids = draw(st.permutations(range(len(points))))
    return Topology(
        nodes=tuple(Node(i, x, y) for i, (x, y) in zip(ids, points)),
        radios_per_node=1,
        tx_range=tx_range,
        interference_x=draw(st.integers(1, 3)),
        channel_count=1,
    )


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_geometry_matches_brute_force(topo):
    assert adjacent_pairs(topo) == tuple(oracles.adjacency(topo))
    assert interfering_pairs(topo) == oracles.reach(topo)


def test_overflowing_cell_index():
    # a range of 1e-3 next to x = 1e308: the sweep stops at the far node
    # without a distance test, and still pairs the two that share an x
    far = Topology(nodes=(Node(0, 1e308, 0.0), Node(1, 0.0, 0.0)), radios_per_node=1,
                   tx_range=1e-3, interference_x=2, channel_count=1)
    assert adjacent_pairs(far) == ()
    assert interfering_pairs(far) == ()
    close = Topology(
        nodes=(Node(0, 1e308, 0.0), Node(1, 1e308, 5e-4), Node(2, 0.0, 0.0)),
        radios_per_node=1, tx_range=1e-3, interference_x=2, channel_count=1,
    )
    assert adjacent_pairs(close) == ((0, 1),)
    assert interfering_pairs(close) == ((),) == oracles.reach(close)


def test_pair_straddling_cell_limit():
    # two nodes 0.5 apart along x, about 2^50 ranges from the origin, in
    # either id order: the x difference is exact there, and they are adjacent
    for ids in [(0, 1), (1, 0)]:
        topo = Topology(nodes=(Node(ids[0], 2.0**50 - 0.5, 0.0), Node(ids[1], 2.0**50, 0.0)),
                        radios_per_node=1, tx_range=1.0, interference_x=1, channel_count=1)
        assert adjacent_pairs(topo) == ((0, 1),)


def _nodes(*points):
    """Nodes at the given points, ids in reverse point order."""
    return tuple(Node(len(points) - 1 - i, x, y) for i, (x, y) in enumerate(points))


@pytest.mark.parametrize("nodes, tx_range, interference_x", [
    # -1.7e308 to +1.7e308 overflows to inf; pairs 4-5 and 2-3 reach by distance
    pytest.param(_nodes((1.7e308, 0.0), (1.7e308, 1.0), (1.7e308, 2.5), (1.7e308, 3.5),
                        (-1.7e308, 0.0), (-1.7e308, 1.0)),
                 1.0, 2, id="x-difference-overflows"),
    # the interference range 2 * 1e308 is inf: every pair reaches every other,
    # across x differences that overflow to inf too
    pytest.param(_nodes((-1.5e308, 0.0), (-0.6e308, 0.0), (0.5e308, 0.0), (1.5e308, 0.0),
                        (1.5e308, 1e308)),
                 1e308, 2, id="interference-range-inf"),
    # one x, nodes exactly tx_range apart in y
    pytest.param(_nodes(*((3.7, 250.0 * k) for k in range(6))), 250.0, 2,
                 id="shared-x-on-the-range"),
    # a lattice whose rows and columns are exactly tx_range apart
    pytest.param(_nodes(*((-250.0 * c, 250.0 * r) for r in range(3) for c in range(3))),
                 250.0, 1, id="lattice-on-the-range"),
])
def test_geometry_edge_cases(nodes, tx_range, interference_x):
    topo = Topology(nodes=nodes, radios_per_node=1, tx_range=tx_range,
                    interference_x=interference_x, channel_count=1)
    assert adjacent_pairs(topo) == tuple(oracles.adjacency(topo))
    assert interfering_pairs(topo) == oracles.reach(topo)


def test_thirty_by_thirty_grid():
    topo = gen_grid(30, 30)
    pairs = adjacent_pairs(topo)
    assert len(pairs) == 1740
    assert list(pairs) == oracles.adjacency(topo)
    reach = interfering_pairs(topo)
    index = compile_topology(topo).pair_index
    # corners, interior pairs (row 14, column 15) and the last pairs
    for pair in [(0, 1), (0, 30), (435, 436), (435, 465), (868, 898), (898, 899)]:
        p = index[pair]
        assert reach[p] == oracles.pair_reach(topo, pairs, p)
    assert len(reach[index[(435, 436)]]) > len(reach[index[(0, 1)]])


def test_caches_stay_bounded():
    caches = {
        f"{name}.{attr}": fn.cache_info
        for name, module in list(sys.modules.items())
        if name == "meshca" or name.startswith("meshca.")
        for attr, fn in vars(module).items()
        if hasattr(fn, "cache_info")
    }
    assert {"meshca.topology.compile_topology", "meshca.metrics.enumerate_xls",
            "meshca.metrics.xls_paths"} <= set(caches)
    for i in range(64):
        topo = gen_grid(3, 3, spacing=100 + i, tx_range=100 + i)
        ca = uniform_assignment(topo)
        for metric in ("tid", "cdal", "cxls"):
            score(metric, topo, ca)
    for name, info in caches.items():
        assert info().maxsize == CACHE_SIZE, name
        assert info().currsize <= CACHE_SIZE, name
