import random
import statistics
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_random_assignment, make_random_topology
from meshca import (
    BudgetExceededError,
    IncompleteAssignmentError,
    SchemeConfig,
    ValidationError,
    better,
    bio_assign,
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
from meshca import optimizer
from meshca.metrics import METRICS, LinkState
from meshca.optimizer import TRAJECTORY_SCHEMES, node_interference, trajectory


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
        state = initial_assignment(line3_m1, SchemeConfig(seed=0))
        assert state.feasible()
        assert set(state.ca.values()) == {0}

    def test_single_channel(self):
        topo = gen_grid(2, 2, 100, 100, 2, 2, 1)
        state = initial_assignment(topo, SchemeConfig(seed=5))
        assert state.feasible()
        assert set(state.ca.values()) == {0}

    def test_deterministic(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)

        def start(seed):
            state = initial_assignment(topo, SchemeConfig(seed=seed))
            return state.ca, state.feasible()

        assert start(9) == start(9)
        assert start(9) != start(4)

    def test_respects_rule(self):
        topo = gen_grid(3, 3, 100, 100, 2, 2, 3)
        for seed in range(6):
            state = initial_assignment(topo, SchemeConfig(seed=seed))
            assert state.feasible() and is_ca_connected(topo, state.ca)


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 50) | st.integers(2**53 - 4, 2**53 + 4)
                    | st.integers(0, 2**64), min_size=1, max_size=8))
    @example([2**53, 2**53 + 1])  # mean + pstdev rounds to 2**53 in floats
    def test_threshold_is_exact(self, vals):
        # v > mean + sqrt(variance) iff v > mean and (v - mean)^2 > variance
        values = dict(enumerate(vals))
        mean = Fraction(sum(vals), len(vals))
        variance = sum((v - mean) ** 2 for v in vals) / len(vals)
        hot = sorted((n for n, v in values.items() if v > mean and (v - mean) ** 2 > variance),
                     key=lambda n: (-values[n], n))
        with mock.patch.object(optimizer, "node_interference", lambda state: values):
            assert eiz_detect(None) == hot


class TestRciMitigate:
    def test_colocated_count_matches_radio_pair_loop(self):
        rng = random.Random(67)
        for _ in range(30):
            topo = make_random_topology(rng, max_radios=4, max_channels=3)
            ca = make_random_assignment(rng, topo)
            h = LinkState(topo, ca).h
            counted = sum(n * (n - 1) // 2 for row in h for n in row)
            assert counted == oracles.colocated_pairs(topo, ca)

    def test_colocated_count_names_missing_radio(self, line3_m2):
        ca = uniform_assignment(line3_m2)
        del ca[(1, 0)]
        with pytest.raises(IncompleteAssignmentError, match="missing radio 1:0"):
            LinkState(line3_m2, ca)

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
        assert oracles.colocated_pairs(topo, ca) == 2
        state = LinkState(topo, ca, "tid")
        rci_mitigate(state)
        out = state.ca
        assert oracles.colocated_pairs(topo, out) == 0
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
                assert oracles.colocated_pairs(topo, out) <= oracles.colocated_pairs(topo, ca)
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
            assert sum(r.moves for r in trace.records) == 0

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
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        for scheme in ("pio", "ko", "ho"):
            cfg = SchemeConfig(scheme=scheme, metric="tid", seed=2,
                               connectivity_rule="per-pair")
            ca, _, trace = run_scheme(topo, cfg)
            assert trace.feasible
            assert oracles.all_pairs_linked(topo, ca)

    def test_per_pair_at_least_as_strict_as_global(self, line3_m1):
        cfg = SchemeConfig(seed=0, connectivity_rule="per-pair")
        state = initial_assignment(line3_m1, cfg)
        assert state.feasible()
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

    @pytest.mark.parametrize("metric", ["tid", "cdal", "cxls"])
    def test_bio_derives_links_once_per_run(self, metric, line3_m2, monkeypatch):
        from meshca import metrics

        calls = []
        derive = metrics.pair_links

        def counting(inst, hist):
            calls.append(1)
            return derive(inst, hist)

        monkeypatch.setattr(metrics, "pair_links", counting)
        run_scheme(line3_m2, SchemeConfig(scheme="bio", metric=metric))
        assert len(calls) == 1

    def test_x_override_changes_objective(self, line3_m2_c3):
        # with x=1 every single hop is its own link set; the optimum differs
        # from the 2-hop objective but the machinery must still converge
        cfg = SchemeConfig(scheme="ko", metric="cxls", seed=1, x=1)
        ca, s, _ = run_scheme(line3_m2_c3, cfg)
        assert s.value == score("cxls", line3_m2_c3, ca, x=1).value
        assert is_ca_connected(line3_m2_c3, ca)


class TestTrajectory:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 2), cols=st.integers(2, 3), m=st.integers(2, 3),
        c=st.integers(2, 4), metric=st.sampled_from(METRICS),
        rule=st.sampled_from(["global", "per-pair"]), seed=st.integers(0, 3),
        max_iterations=st.sampled_from([1, 2, 100]),
    )
    def test_each_snapshot_equals_a_standalone_run(
        self, rows, cols, m, c, metric, rule, seed, max_iterations
    ):
        topo = gen_grid(rows, cols, 100, 100, 2, m, c)
        settings = dict(metric=metric, seed=seed, max_iterations=max_iterations,
                        connectivity_rule=rule)
        snapshots = list(trajectory(topo, SchemeConfig(scheme="ho", **settings)))
        assert [scheme for scheme, _ in snapshots] == list(TRAJECTORY_SCHEMES)
        for scheme, (ca, final, trace) in snapshots:
            alone_ca, alone_final, alone_trace = run_scheme(
                topo, SchemeConfig(scheme=scheme, **settings)
            )
            assert ca == alone_ca
            assert final == alone_final
            assert trace.records == alone_trace.records
            assert trace.feasible == alone_trace.feasible
            assert trace.initial_score == alone_trace.initial_score

    # seed 2 on this grid: ko sweeps 4 times (the last moves nothing), ho
    # adds the cleanup and one hot-first sweep that moves nothing
    @pytest.mark.parametrize("last, phases", [
        ("pio", ["sweep"]),
        ("ko", ["sweep"] * 4),
        ("ho", ["sweep"] * 4 + ["rci", "sweep"]),
    ])
    def test_stops_after_the_last_scheme_asked_for(self, monkeypatch, last, phases):
        calls = []
        for name, phase in (("improve_sweep", "sweep"), ("rci_mitigate", "rci")):
            real = getattr(optimizer, name)

            def counting(*args, _real=real, _phase=phase, **kwargs):
                calls.append(_phase)
                return _real(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, counting)
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        schemes = [s for s, _ in trajectory(topo, SchemeConfig(scheme=last, seed=2))]
        assert schemes == list(TRAJECTORY_SCHEMES[: TRAJECTORY_SCHEMES.index(last) + 1])
        assert calls == phases

    def test_snapshots_do_not_share_state(self):
        topo = gen_grid(2, 3, 100, 100, 2, 2, 3)
        snapshots = dict(trajectory(topo, SchemeConfig(scheme="ho", seed=2)))
        pio_ca, _, pio_trace = snapshots["pio"]
        _, _, ho_trace = snapshots["ho"]
        assert pio_ca == run_scheme(topo, SchemeConfig(scheme="pio", seed=2))[0]
        assert len(pio_trace.records) == 1 < len(ho_trace.records)
