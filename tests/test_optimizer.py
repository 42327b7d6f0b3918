import random
import statistics

import pytest

import oracles
from conftest import make_random_assignment, make_random_topology
from meshca import (
    BudgetExceededError,
    SchemeConfig,
    ValidationError,
    better,
    bio_assign,
    count_colocated_pairs,
    eiz_detect,
    gen_grid,
    improve_sweep,
    initial_assignment,
    is_ca_connected,
    radios,
    rci_mitigate,
    run_scheme,
    score,
    uniform_assignment,
)
from meshca.metrics import LinkState
from meshca.optimizer import node_interference


def random_feasible_ca(topo, rng, tries=200):
    for _ in range(tries):
        ca = make_random_assignment(rng, topo)
        if is_ca_connected(topo, ca):
            return ca
    raise AssertionError("could not sample a feasible assignment")


class TestSchemeConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValidationError):
            SchemeConfig(scheme="annealing")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValidationError):
            SchemeConfig(metric="sinr")

    def test_rejects_bad_rule(self):
        with pytest.raises(ValidationError):
            SchemeConfig(connectivity_rule="loose")

    def test_names_made_canonical(self):
        cfg = SchemeConfig(scheme="KO", metric=" CXLS_WT ")
        assert (cfg.scheme, cfg.metric) == ("ko", "cxls")

    @pytest.mark.parametrize("rule", ["global", "Global", "per-pair", "PER-PAIR"])
    def test_rule_lower_cased(self, rule):
        assert SchemeConfig(connectivity_rule=rule).connectivity_rule == rule.lower()

    @pytest.mark.parametrize("field", ["seed", "max_iterations", "bio_budget", "x"])
    @pytest.mark.parametrize("value", [2.0, True, "2"])
    def test_rejects_non_integer(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SchemeConfig(**{field: value})

    def test_rejects_x_below_one(self):
        with pytest.raises(ValidationError, match="x must be"):
            SchemeConfig(x=0)


class TestInitialAssignment:
    def test_line_repairs_to_common_channel(self, line3_m1):
        # round robin gives 0,1,0 which is fully disconnected; the repair
        # pass must restore a single shared channel
        state, feasible = initial_assignment(line3_m1, SchemeConfig(seed=0))
        assert feasible
        assert set(state.ca.values()) == {0}

    def test_single_channel(self):
        topo = gen_grid(2, 2, 100, 100, 2, 2, 1)
        state, feasible = initial_assignment(topo, SchemeConfig(seed=5))
        assert feasible
        assert set(state.ca.values()) == {0}

    def test_deterministic(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)

        def start(seed):
            state, feasible = initial_assignment(topo, SchemeConfig(seed=seed))
            return state.ca, feasible

        assert start(9) == start(9)
        assert start(9) != start(4)

    def test_respects_rule(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        for seed in range(6):
            state, feasible = initial_assignment(topo, SchemeConfig(seed=seed))
            assert feasible and is_ca_connected(topo, state.ca)


class TestImproveSweep:
    def test_local_optimum_is_fixpoint(self, line3_m1):
        ca = uniform_assignment(line3_m1)
        state = LinkState(line3_m1, ca, "tid")
        moves = improve_sweep(state, radios(line3_m1))
        assert state.ca == ca and not moves

    def test_single_channel_no_moves(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 1)
        ca = uniform_assignment(topo)
        state = LinkState(topo, ca, "tid")
        moves = improve_sweep(state, radios(topo))
        assert state.ca == ca and not moves

    def test_never_worsens(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        rng = random.Random(2)
        for metric in ("tid", "cdal", "cxls"):
            for _ in range(5):
                ca = random_feasible_ca(topo, rng)
                before = score(metric, topo, ca)
                state = LinkState(topo, ca, metric)
                moves = improve_sweep(state, radios(topo))
                out = state.ca
                assert moves == sum(out[r] != ca[r] for r in ca)
                after = score(metric, topo, out)
                assert not better(before, after)
                assert is_ca_connected(topo, out)


class TestBioAssign:
    def test_line_tie_break_lexicographic(self, line3_m1):
        ca, s, feasible = bio_assign(line3_m1, SchemeConfig(scheme="bio", metric="tid"))
        assert feasible and s.value == 2.0
        assert all(ch == 0 for ch in ca.values())

    def test_two_radio_line_optimum(self, line3_m2):
        _, s, _ = bio_assign(line3_m2, SchemeConfig(scheme="bio", metric="tid"))
        assert s.value == 4.0

    def test_three_channel_line_optimum(self, line3_m2_c3):
        _, s, _ = bio_assign(line3_m2_c3, SchemeConfig(scheme="bio", metric="cxls"))
        assert s.value == pytest.approx(2.0, abs=1e-12)

    def test_budget_error_reports_space(self):
        topo = gen_grid(5, 5)
        with pytest.raises(BudgetExceededError) as info:
            bio_assign(topo, SchemeConfig(scheme="bio", metric="tid"))
        assert info.value.search_space == 3 ** 50

    def test_beats_random_samples(self, line3_m2):
        rng = random.Random(8)
        for metric in ("tid", "cdal", "cxls"):
            _, best, _ = bio_assign(line3_m2, SchemeConfig(scheme="bio", metric=metric))
            for _ in range(50):
                ca = random_feasible_ca(line3_m2, rng)
                assert not better(score(metric, line3_m2, ca), best)


class TestEizDetect:
    def test_conflict_free_is_empty(self, line3_m2_c3):
        ca = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2, (2, 1): 1}
        assert eiz_detect(LinkState(line3_m2_c3, ca)) == []

    def test_uniform_interference_is_empty(self):
        # 2-node pair: both nodes see the same link conflicts
        topo = gen_grid(1, 2, 100, 100, 2, 2, 2)
        assert eiz_detect(LinkState(topo, uniform_assignment(topo))) == []

    def test_line_center_detected(self, line3_m1):
        assert eiz_detect(LinkState(line3_m1, uniform_assignment(line3_m1))) == [1]

    def test_matches_oracle_node_sums(self):
        rng = random.Random(61)
        for _ in range(80):
            topo = make_random_topology(rng, max_radios=3, max_channels=4)
            ca = make_random_assignment(rng, topo)
            lks, degs = oracles.interference_degrees(topo, ca)
            sums = {n.id: 0 for n in topo.nodes}
            for (u, _, v, _, _), d in zip(lks, degs):
                sums[u] += d
                sums[v] += d
            state = LinkState(topo, ca)
            assert node_interference(state) == sums
            vals = list(sums.values())
            threshold = statistics.mean(vals) + statistics.pstdev(vals)
            hot = sorted((n for n, v in sums.items() if v > threshold),
                         key=lambda n: (-sums[n], n))
            assert eiz_detect(state) == hot


class TestRciMitigate:
    def test_colocated_count_matches_radio_pair_loop(self):
        rng = random.Random(67)
        for _ in range(30):
            topo = make_random_topology(rng, max_radios=4, max_channels=3)
            ca = make_random_assignment(rng, topo)
            m = topo.radios_per_node
            expected = sum(
                ca[(n.id, r1)] == ca[(n.id, r2)]
                for n in topo.nodes
                for r1 in range(m)
                for r2 in range(r1 + 1, m)
            )
            assert count_colocated_pairs(topo, ca) == expected

    def test_no_duplicates_identity(self, line3_m1):
        ca = uniform_assignment(line3_m1)
        state = LinkState(line3_m1, ca, "tid")
        assert rci_mitigate(state) == 0
        assert state.ca == ca

    def test_single_channel_identity(self):
        topo = gen_grid(1, 2, 100, 100, 2, 2, 1)
        ca = uniform_assignment(topo)
        state = LinkState(topo, ca, "tid")
        assert rci_mitigate(state) == 0
        assert state.ca == ca

    def test_pair_duplicates_cleared(self):
        topo = gen_grid(1, 2, 100, 100, 2, 2, 2)
        ca = uniform_assignment(topo)
        assert count_colocated_pairs(topo, ca) == 2
        state = LinkState(topo, ca, "tid")
        rci_mitigate(state)
        out = state.ca
        assert count_colocated_pairs(topo, out) == 0
        assert is_ca_connected(topo, out)

    def test_never_increases_duplicates_or_worsens(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        rng = random.Random(21)
        for _ in range(20):
            ca = random_feasible_ca(topo, rng)
            for metric in ("tid", "cdal", "cxls"):
                state = LinkState(topo, ca, metric)
                moves = rci_mitigate(state)
                out = state.ca
                assert moves == sum(out[r] != ca[r] for r in ca)
                assert count_colocated_pairs(topo, out) <= count_colocated_pairs(topo, ca)
                assert not better(score(metric, topo, ca), score(metric, topo, out))


class TestRunScheme:
    def test_pio_line_trace(self, line3_m1):
        ca, s, trace = run_scheme(line3_m1, SchemeConfig(scheme="pio", metric="tid", seed=0))
        assert set(ca.values()) == {0}
        assert s.value == 2.0
        assert len(trace.records) == 1
        assert trace.feasible

    def test_ho_single_channel_unchanged(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 1)
        for metric in ("tid", "cdal", "cxls"):
            ca, _, trace = run_scheme(topo, SchemeConfig(scheme="ho", metric=metric))
            assert set(ca.values()) == {0}
            assert trace.total_moves == 0

    def test_ho_within_bio_bracket(self, line3_m2_c3):
        _, ho, _ = run_scheme(line3_m2_c3, SchemeConfig(scheme="ho", metric="cxls", seed=0))
        _, pio, _ = run_scheme(line3_m2_c3, SchemeConfig(scheme="pio", metric="cxls", seed=0))
        assert 0.0 <= ho.value <= 2.0
        assert ho.value >= pio.value

    def test_bio_scheme_routes_to_enumeration(self, line3_m2):
        ca, s, trace = run_scheme(line3_m2, SchemeConfig(scheme="bio", metric="tid"))
        assert s.value == 4.0
        assert trace.records == []
        assert trace.initial_score == 4.0

    def test_deterministic(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        cfg = SchemeConfig(scheme="ho", metric="cxls", seed=3)
        a = run_scheme(topo, cfg)
        b = run_scheme(topo, cfg)
        assert a[0] == b[0] and a[1] == b[1] and a[2].scores() == b[2].scores()

    def test_dominance_small_grid(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        for metric in ("tid", "cdal", "cxls"):
            for seed in (1, 2, 3):
                results = {}
                for scheme in ("pio", "ko", "ho"):
                    _, s, trace = run_scheme(
                        topo, SchemeConfig(scheme=scheme, metric=metric, seed=seed))
                    results[scheme] = s
                    seq = trace.scores()
                    for prev, cur in zip(seq, seq[1:]):
                        assert cur >= prev if s.direction == "maximize" else cur <= prev
                assert not better(results["pio"], results["ko"])
                assert not better(results["ko"], results["ho"])

    def test_final_no_worse_than_initial(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        for metric in ("tid", "cdal", "cxls"):
            for scheme in ("pio", "ko", "ho"):
                _, s, trace = run_scheme(
                    topo, SchemeConfig(scheme=scheme, metric=metric, seed=4))
                if s.direction == "maximize":
                    assert trace.final_score >= trace.initial_score
                else:
                    assert trace.final_score <= trace.initial_score

    def test_per_pair_rule_preserves_every_adjacency(self):
        from meshca.topology import preserves_all_pairs

        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        for scheme in ("pio", "ko", "ho"):
            cfg = SchemeConfig(scheme=scheme, metric="tid", seed=2,
                               connectivity_rule="per-pair")
            ca, _, trace = run_scheme(topo, cfg)
            assert trace.feasible
            assert preserves_all_pairs(topo, ca)

    def test_per_pair_at_least_as_strict_as_global(self, line3_m1):
        cfg = SchemeConfig(seed=0, connectivity_rule="per-pair")
        state, feasible = initial_assignment(line3_m1, cfg)
        assert feasible
        assert set(state.ca.values()) == {0}

    @pytest.mark.parametrize("metric", ["tid", "cdal", "cxls"])
    @pytest.mark.parametrize("scheme", ["pio", "ko", "ho"])
    def test_validates_once_per_run(self, scheme, metric, monkeypatch):
        from meshca import metrics

        calls = []
        check = metrics.check_assignment

        def counting(topo, ca):
            calls.append(1)
            check(topo, ca)

        monkeypatch.setattr(metrics, "check_assignment", counting)
        run_scheme(gen_grid(5, 5), SchemeConfig(scheme=scheme, metric=metric, seed=1))
        assert len(calls) == 1

    def test_x_override_changes_objective(self, line3_m2_c3):
        # with x=1 every single hop is its own link set; the optimum differs
        # from the 2-hop objective but the machinery must still converge
        cfg = SchemeConfig(scheme="ko", metric="cxls", seed=1, x=1)
        ca, s, _ = run_scheme(line3_m2_c3, cfg)
        assert s.value == score("cxls", line3_m2_c3, ca, x=1).value
        assert is_ca_connected(line3_m2_c3, ca)
