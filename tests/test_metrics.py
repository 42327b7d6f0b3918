import random
from fractions import Fraction

import pytest

import oracles
from conftest import make_random_assignment, make_random_topology
from meshca import (
    MAXIMIZE,
    MINIMIZE,
    IemScore,
    ValidationError,
    better,
    cdal_cost,
    cxls_wt,
    enumerate_xls,
    gen_grid,
    score,
    tid,
    uniform_assignment,
)
from meshca.metrics import LinkState, path_weight, xls_paths

E2_CA = {(n, r): r for n in range(3) for r in range(2)}


def path_weights(topo, ca, x):
    """path_weight of every enumerate_xls path, in path order, as exact Fractions."""
    state = LinkState(topo, ca)
    hops, _ = xls_paths(topo, x)
    scale = state.unit**x
    return [
        Fraction(path_weight(state.links, state.k, path_hops, scale), scale)
        for path_hops in hops
    ]


def channel_loads(topo, ca):
    """LinkState's load numerators over unit, as exact Fractions."""
    state = LinkState(topo, ca)
    return [Fraction(n, state.unit) for n in state.load_numerators()]


class TestHandDerivedValues:
    """Frozen expectations, each independently recomputed in oracles.py."""

    def test_line_all_one_channel(self, line3_m1):
        ca = uniform_assignment(line3_m1)
        assert tid(line3_m1, ca).value == 2.0
        assert cdal_cost(line3_m1, ca).value == 1.0
        assert cxls_wt(line3_m1, ca).value == 0.0
        assert oracles.tid_value(line3_m1, ca) == 2.0
        assert oracles.cdal_value(line3_m1, ca) == 1.0
        assert oracles.cxls_value(line3_m1, ca, 2) == 0.0

    def test_line_two_radios_split(self, line3_m2):
        assert tid(line3_m2, E2_CA).value == 4.0
        assert cdal_cost(line3_m2, E2_CA).value == 0.0
        assert cxls_wt(line3_m2, E2_CA).value == 1.0

    def test_line_three_channels_optimal(self, line3_m2_c3):
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        assert cxls_wt(line3_m2_c3, ca).value == 2.0

    def test_conflict_free_tid_zero(self, line3_m2_c3):
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        assert tid(line3_m2_c3, ca).value == 0.0

    def test_channel_loads(self, line3_m1, line3_m2):
        ca = uniform_assignment(line3_m1)
        assert channel_loads(line3_m1, ca) == oracles.channel_loads(line3_m1, ca) == [2, 0]
        assert channel_loads(line3_m2, E2_CA) == oracles.channel_loads(line3_m2, E2_CA) == [1, 1]

    def test_nine_parallel_links_exact(self):
        # each of the 9 links carries 1/9: float shares summed to 1.0000000000000002
        topo = gen_grid(1, 2, 100, 100, 2, 3, 2)
        ca = {(n, r): 0 for n in range(2) for r in range(3)}
        assert channel_loads(topo, ca) == oracles.channel_loads(topo, ca) == [1, 0]
        assert cdal_cost(topo, ca).value == 0.5
        assert oracles.cdal_value(topo, ca) == 0.5

    def test_three_radio_cxls_rounded_once(self):
        # the exact sum is 41/25; path-order float sums gave 1.6400000000000001
        topo = gen_grid(1, 4, 100, 100, 2, 3, 2)
        chans = {0: (0, 0, 1), 1: (1, 1, 0), 2: (1, 1, 0), 3: (1, 0, 1)}
        ca = {(n, r): ch for n, row in chans.items() for r, ch in enumerate(row)}
        assert sum(path_weights(topo, ca, 2)) == Fraction(41, 25)
        assert cxls_wt(topo, ca).value == 1.64
        assert oracles.cxls_value(topo, ca, 2) == 1.64


class TestEnumerateXls:
    def test_line_two_hops(self, line3_m1):
        assert enumerate_xls(line3_m1, 2) == ((0, 1, 2),)

    def test_line_one_hop(self, line3_m1):
        assert enumerate_xls(line3_m1, 1) == ((0, 1), (1, 2))

    def test_square_corner_turns(self):
        grid = gen_grid(2, 2, 100, 100, 2, 1, 2)
        assert len(enumerate_xls(grid, 2)) == 4

    def test_no_paths_beyond_diameter(self, line3_m1):
        assert enumerate_xls(line3_m1, 5) == ()

    def test_matches_permutation_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            topo = make_random_topology(rng)
            for x in (1, 2):
                assert list(enumerate_xls(topo, x)) == oracles.paths(topo, x)

    def test_rejects_nonpositive(self, line3_m1):
        with pytest.raises(ValidationError):
            enumerate_xls(line3_m1, 0)


class TestXlsWeight:
    def test_common_channel_floor(self, line3_m1):
        assert path_weights(line3_m1, uniform_assignment(line3_m1), 2) == [0.0]

    def test_all_distinct_max(self, line3_m2_c3):
        # AB only on channel 0, BC only on channel 2
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        assert path_weights(line3_m2_c3, ca, 2) == [2.0]

    def test_mixed_realizations_mean(self, line3_m2):
        # both hops have one link on each of channels 0 and 1
        state = LinkState(line3_m2, E2_CA)
        assert state.links == [[1, 1], [1, 1]] and state.k == [2, 2]
        assert path_weights(line3_m2, E2_CA, 2) == [1]

    def test_broken_hop_weight_zero(self, line3_m1):
        ca = {(0, 0): 0, (1, 0): 0, (2, 0): 1}
        assert path_weights(line3_m1, ca, 2) == [0.0]

    def test_bounds(self):
        rng = random.Random(13)
        for _ in range(50):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            x = topo.interference_x
            for w in path_weights(topo, ca, x):
                assert 0.0 <= w <= x

    def test_closed_form_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(60):
            topo = make_random_topology(rng, max_nodes=6, max_radios=3, max_channels=4)
            ca = make_random_assignment(rng, topo)
            for x in (1, 2, 3):
                for path, w in zip(enumerate_xls(topo, x), path_weights(topo, ca, x)):
                    assert w == oracles.xls_weight_value(topo, ca, path)

    def test_single_radio_degenerate_realization(self):
        # with one radio per node each hop has at most one link, so the mean
        # collapses to the unique-channel count of the only realization
        rng = random.Random(29)
        for _ in range(20):
            topo = make_random_topology(rng, max_radios=1)
            ca = make_random_assignment(rng, topo)
            x = topo.interference_x
            for path, w in zip(enumerate_xls(topo, x), path_weights(topo, ca, x)):
                combo = [ca[(a, 0)] for a, b in zip(path, path[1:]) if ca[(a, 0)] == ca[(b, 0)]]
                if len(combo) < x:
                    assert w == 0.0
                    continue
                assert w == sum(1 for ch in combo if combo.count(ch) == 1)


class TestScoreDispatch:
    def test_directions(self, line3_m1):
        ca = uniform_assignment(line3_m1)
        assert score("tid", line3_m1, ca) == IemScore("tid", 2.0, MINIMIZE)
        assert score("cxls", line3_m1, ca) == IemScore("cxls", 0.0, MAXIMIZE)

    def test_aliases(self, line3_m1):
        ca = uniform_assignment(line3_m1)
        assert score("CDAL_cost", line3_m1, ca).metric == "cdal"
        assert score("CXLS_WT", line3_m1, ca).metric == "cxls"

    def test_unknown_metric(self, line3_m1):
        with pytest.raises(ValidationError):
            score("sinr", line3_m1, uniform_assignment(line3_m1))

    def test_better_honors_direction_and_ties(self):
        a3 = IemScore("tid", 3.0, MINIMIZE)
        b3 = IemScore("tid", 3.0, MINIMIZE)
        assert not better(a3, b3)
        assert better(IemScore("tid", 2.0, MINIMIZE), a3)
        assert better(IemScore("cxls", 4.0, MAXIMIZE), IemScore("cxls", 3.0, MAXIMIZE))
        assert not better(IemScore("cxls", 3.0, MAXIMIZE), IemScore("cxls", 3.0, MAXIMIZE))
        with pytest.raises(ValidationError):
            better(a3, IemScore("cxls", 3.0, MAXIMIZE))


class TestInvariants:
    def test_tid_always_even(self):
        rng = random.Random(3)
        for _ in range(40):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            value = tid(topo, ca).value
            assert value == int(value) and int(value) % 2 == 0

    def test_cdal_zero_iff_balanced(self, line3_m2):
        assert cdal_cost(line3_m2, E2_CA).value == 0.0
        rng = random.Random(17)
        for _ in range(40):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            loads = oracles.channel_loads(topo, ca)
            zero = cdal_cost(topo, ca).value < 1e-12
            balanced = max(loads) - min(loads) < 1e-12
            assert zero == balanced

    def test_cxls_upper_bound(self):
        rng = random.Random(19)
        for _ in range(30):
            topo = make_random_topology(rng)
            ca = make_random_assignment(rng, topo)
            x = topo.interference_x
            assert cxls_wt(topo, ca, x).value <= x * len(enumerate_xls(topo, x)) + 1e-12

    def test_channel_relabeling_invariance(self):
        rng = random.Random(23)
        for _ in range(30):
            topo = make_random_topology(rng, max_radios=3)
            ca = make_random_assignment(rng, topo)
            perm = list(range(topo.channel_count))
            rng.shuffle(perm)
            relabeled = {radio: perm[ch] for radio, ch in ca.items()}
            assert tid(topo, ca).value == tid(topo, relabeled).value
            assert cdal_cost(topo, ca).value == cdal_cost(topo, relabeled).value
            assert cxls_wt(topo, ca).value == cxls_wt(topo, relabeled).value

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            topo = make_random_topology(rng, max_radios=3)
            ca = make_random_assignment(rng, topo)
            assert tid(topo, ca).value == oracles.tid_value(topo, ca)
            assert cdal_cost(topo, ca).value == oracles.cdal_value(topo, ca)
            x = topo.interference_x
            assert cxls_wt(topo, ca, x).value == oracles.cxls_value(topo, ca, x)
