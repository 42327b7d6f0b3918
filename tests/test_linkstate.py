"""Incremental scoring agrees exactly with a full recompute.

Random grids and random layouts get random sequences of single-radio
retunes. After every move, each incrementally maintained value must equal
the public full computation with ==, not within a tolerance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from meshca import (
    Node,
    Topology,
    ValidationError,
    gen_grid,
    is_ca_connected,
    radios,
    score,
    uniform_assignment,
)
from meshca.metrics import LinkState


@st.composite
def grids(draw, radios_per_node, channels, interference_x):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 4))
    return gen_grid(rows, cols, 100, 100, interference_x, radios_per_node, channels)


@st.composite
def layouts(draw, radios_per_node, channels, interference_x):
    points = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                           min_size=2, max_size=8, unique=True))
    return Topology(
        nodes=tuple(Node(i, float(x), float(y)) for i, (x, y) in enumerate(points)),
        radios_per_node=radios_per_node,
        tx_range=draw(st.sampled_from([60.0, 100.0, 150.0])),
        interference_x=interference_x,
        channel_count=channels,
    )


@st.composite
def instances(draw):
    """(topology, x, starting assignment, list of (radio, channel) moves)."""
    m = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    ix = draw(st.integers(1, 3))
    topo = draw(st.one_of(grids(m, c, ix), layouts(m, c, ix)))
    rlist = radios(topo)
    channel = st.integers(0, c - 1)
    ca = {radio: draw(channel) for radio in rlist}
    moves = draw(st.lists(st.tuples(st.sampled_from(rlist), channel), max_size=25))
    return topo, draw(st.integers(1, 3)), ca, moves


def feasible(topo, ca, rule):
    """The connectivity rule from its definition."""
    if rule == "per-pair":
        return oracles.all_pairs_linked(topo, ca)
    return is_ca_connected(topo, ca)


@settings(max_examples=300, deadline=None)
@given(instances())
def test_incremental_state_matches_full_recompute(instance):
    topo, x, ca, moves = instance
    states = [LinkState(topo, ca, metric, x, rule) for metric, rule in
              (("tid", "global"), ("cdal", "per-pair"), ("cxls", "global"))]
    # scored and checked only once, after all moves: stale path weights and
    # a cached connectivity flag must catch up over many moves at once
    deferred = [LinkState(topo, ca, "cxls", x, rule) for rule in ("global", "per-pair")]
    for radio, ch in moves:
        for state in deferred:
            state.retune(radio, ch)
        for state in states:
            state.retune(radio, ch)
            assert state.ca == deferred[0].ca
            assert state.score() == score(state.metric, topo, state.ca, x)
            assert state.feasible() == feasible(topo, state.ca, state.rule)
    for state in deferred:
        assert state.score() == score("cxls", topo, state.ca, x)
        assert state.feasible() == feasible(topo, state.ca, state.rule)


@pytest.mark.parametrize("rule", ["loose", "", None, 1])
def test_unknown_rule_rejected(rule):
    topo = gen_grid(1, 2, 100, 100)
    with pytest.raises(ValidationError, match="unknown connectivity rule"):
        LinkState(topo, uniform_assignment(topo), rule=rule)
