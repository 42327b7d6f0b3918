"""Estimator-style front end so the optimizer composes with sklearn-like tooling.

ChannelAssigner follows the scikit-learn parameter protocol (get_params /
set_params, params mirrored as attributes, fitted state in trailing-underscore
attributes) without depending on scikit-learn: the input is a Topology, not a
feature matrix.
"""

from __future__ import annotations

import dataclasses

from .errors import ValidationError
from .metrics import MAXIMIZE, all_scores
from .optimizer import SchemeConfig, run_scheme
from .topology import Topology


class ChannelAssigner:
    """Learn a channel assignment for a mesh topology.

    Parameters mirror SchemeConfig: scheme in {bio, pio, ko, ho}, metric in
    {tid, cdal, cxls}, plus seed / iteration cap / connectivity rule /
    enumeration budget / x-hop override.

    After fit(topology):
        assignment_   dict mapping (node id, radio index) -> channel
        score_        IemScore of the optimized metric
        trace_        OptimizationTrace of the run
        n_iter_       number of improvement passes recorded
        feasible_     whether the connectivity rule is satisfied
    """

    _param_names = tuple(f.name for f in dataclasses.fields(SchemeConfig))

    def __init__(
        self,
        scheme: str = SchemeConfig.scheme,
        metric: str = SchemeConfig.metric,
        seed: int = SchemeConfig.seed,
        max_iterations: int = SchemeConfig.max_iterations,
        connectivity_rule: str = SchemeConfig.connectivity_rule,
        bio_budget: int = SchemeConfig.bio_budget,
        x: int | None = SchemeConfig.x,
    ):
        self.scheme = scheme
        self.metric = metric
        self.seed = seed
        self.max_iterations = max_iterations
        self.connectivity_rule = connectivity_rule
        self.bio_budget = bio_budget
        self.x = x

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "ChannelAssigner":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValidationError(
                    f"invalid parameter {name!r} for ChannelAssigner; "
                    f"valid parameters: {self._param_names}"
                )
            setattr(self, name, value)
        return self

    def _config(self) -> SchemeConfig:
        return SchemeConfig(**self.get_params())

    def fit(self, topology: Topology, y=None) -> "ChannelAssigner":
        """Optimize an assignment for the topology; returns self."""
        cfg = self._config()
        ca, final, trace = run_scheme(topology, cfg)
        self.topology_ = topology
        self.assignment_ = ca
        self.score_ = final
        self.trace_ = trace
        self.n_iter_ = len(trace.records)
        self.feasible_ = trace.feasible
        return self

    def fit_predict(self, topology: Topology, y=None):
        """Fit and return the learned assignment."""
        return self.fit(topology).assignment_

    def score(self, topology: Topology | None = None) -> float:
        """Optimized-metric value, sign-adjusted so greater is better.

        Refits when given a topology different from the fitted one.
        """
        if topology is not None and topology != getattr(self, "topology_", None):
            self.fit(topology)
        if not hasattr(self, "score_"):
            raise ValidationError("ChannelAssigner is not fitted yet; call fit first")
        value = self.score_.value
        return value if self.score_.direction == MAXIMIZE else -value

    def metric_values(self) -> dict[str, float]:
        """All three metric values of the fitted assignment."""
        if not hasattr(self, "assignment_"):
            raise ValidationError("ChannelAssigner is not fitted yet; call fit first")
        return all_scores(self.topology_, self.assignment_, self.x)

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._param_names)
        return f"ChannelAssigner({params})"
