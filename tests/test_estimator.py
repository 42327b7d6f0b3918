import dataclasses

import pytest

from meshca import (
    ChannelAssigner,
    SchemeConfig,
    ValidationError,
    gen_grid,
    is_ca_connected,
    score,
)


@pytest.fixture
def grid():
    return gen_grid(3, 3, 100, 100, 2, 2, 3)


class TestParamProtocol:
    def test_get_params_round_trip(self):
        est = ChannelAssigner(scheme="ko", metric="cxls", seed=7)
        params = est.get_params()
        clone = ChannelAssigner(**params)
        assert clone.get_params() == params

    def test_defaults_are_scheme_config_defaults(self):
        assert ChannelAssigner().get_params() == dataclasses.asdict(SchemeConfig())

    def test_set_params_returns_self(self):
        est = ChannelAssigner()
        assert est.set_params(scheme="pio", seed=3) is est
        assert est.scheme == "pio" and est.seed == 3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValidationError, match="invalid parameter"):
            ChannelAssigner().set_params(temperature=1.0)

    def test_repr_shows_params(self):
        assert "scheme='ko'" in repr(ChannelAssigner(scheme="ko"))


class TestFit:
    def test_fit_sets_state(self, grid):
        est = ChannelAssigner(scheme="ko", metric="tid", seed=1).fit(grid)
        assert is_ca_connected(grid, est.assignment_)
        assert est.score_.value == score("tid", grid, est.assignment_).value
        assert est.n_iter_ == len(est.trace_.records)
        assert est.feasible_

    def test_fit_predict_matches_assignment(self, grid):
        est = ChannelAssigner(scheme="pio", metric="cdal", seed=2)
        ca = est.fit_predict(grid)
        assert ca == est.assignment_

    def test_identical_params_identical_fit(self, grid):
        a = ChannelAssigner(scheme="ho", metric="cxls", seed=5).fit(grid)
        b = ChannelAssigner(scheme="ho", metric="cxls", seed=5).fit(grid)
        assert a.assignment_ == b.assignment_

    def test_score_sign_convention(self, grid):
        # score() is greater-is-better for both metric directions
        minimizer = ChannelAssigner(scheme="ko", metric="tid", seed=1).fit(grid)
        assert minimizer.score() == -minimizer.score_.value
        maximizer = ChannelAssigner(scheme="ko", metric="cxls", seed=1).fit(grid)
        assert maximizer.score() == maximizer.score_.value

    def test_score_refits_on_new_topology(self, grid):
        other = gen_grid(2, 2, 100, 100, 2, 2, 3)
        est = ChannelAssigner(scheme="pio", metric="tid", seed=1).fit(grid)
        est.score(other)
        assert est.topology_ == other

    def test_unfitted_score_raises(self):
        with pytest.raises(ValidationError, match="not fitted"):
            ChannelAssigner().score()

    def test_metric_values(self, grid):
        est = ChannelAssigner(scheme="ko", metric="cxls", seed=3).fit(grid)
        values = est.metric_values()
        assert set(values) == {"tid", "cdal", "cxls"}
        assert values["cxls"] == est.score_.value

    def test_bad_scheme_rejected(self, grid):
        with pytest.raises(ValidationError):
            ChannelAssigner(scheme="magic").fit(grid)

    @pytest.mark.parametrize("params", [
        {"seed": 2.9}, {"seed": "3"}, {"max_iterations": 2.0}, {"bio_budget": True},
        {"x": 0}, {"x": 1.5}, {"metric": None},
    ])
    def test_bad_param_values_rejected(self, grid, params):
        with pytest.raises(ValidationError):
            ChannelAssigner(**params).fit(grid)
