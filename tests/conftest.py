import random

import pytest

from meshca import Node, Topology, gen_grid


@pytest.fixture
def line3_m1():
    """3-node line, one radio per node, 2 channels (spacing = tx_range = 100)."""
    return gen_grid(1, 3, spacing=100, tx_range=100, interference_x=2,
                    radios_per_node=1, channel_count=2)


@pytest.fixture
def line3_m2():
    """3-node line, two radios per node, 2 channels."""
    return gen_grid(1, 3, spacing=100, tx_range=100, interference_x=2,
                    radios_per_node=2, channel_count=2)


@pytest.fixture
def line3_m2_c3():
    """3-node line, two radios per node, 3 channels."""
    return gen_grid(1, 3, spacing=100, tx_range=100, interference_x=2,
                    radios_per_node=2, channel_count=3)


def line_with_stray_node() -> Topology:
    """A 3-node line (spacing = tx_range = 100, 2 radios, 2 channels) plus a node
    out of range: the global connectivity rule cannot be met."""
    nodes = tuple(Node(i, x, 0.0) for i, x in enumerate((0.0, 100.0, 200.0, 1000.0)))
    return Topology(nodes, radios_per_node=2, tx_range=100.0, interference_x=2,
                    channel_count=2)


def make_random_topology(rng: random.Random, max_nodes=6, max_radios=2,
                         max_channels=3) -> Topology:
    """Small random instance; the potential graph may be disconnected."""
    n = rng.randint(2, max_nodes)
    nodes = tuple(
        Node(id=i, x=rng.uniform(0, 100), y=rng.uniform(0, 100)) for i in range(n)
    )
    return Topology(
        nodes=nodes,
        radios_per_node=rng.randint(1, max_radios),
        tx_range=rng.choice([40.0, 60.0, 90.0, 150.0]),
        interference_x=rng.choice([1, 2]),
        channel_count=rng.randint(1, max_channels),
    )


def make_random_assignment(rng: random.Random, topo: Topology):
    return {
        (n.id, r): rng.randrange(topo.channel_count)
        for n in topo.nodes
        for r in range(topo.radios_per_node)
    }
