"""Scheme x metric x rate x seed experiment matrix with CSV reporting.

Each (scheme, metric, seed) cell optimizes an assignment once and scores it
under all three metrics; the flow-contention estimator then runs it on the
grid traffic pattern at every PHY rate, one row per rate. Rows are
sorted by (scheme, metric, rate, seed); every (scheme, metric, rate) group
is followed by a mean row whose seed column is "mean".
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NonGridTopologyError, ValidationError
from .evaluator import build_grid_flows, check_phy_rate, estimate_performance
from .metrics import METRICS, all_scores, canonical_metric
from .optimizer import SchemeConfig, run_scheme
from .topology import Topology, check_topology

REPORT_COLUMNS = (
    "scheme",
    "metric",
    "phy_rate_mbps",
    "seed",
    "tid",
    "cdal_cost",
    "cxls_wt",
    "est_aggregate_throughput_mbps",
    "iterations",
    "wall_ms",
    "error",
)

#: per-run numeric outputs that get averaged into mean rows and plot data
VALUE_COLUMNS = (
    "tid",
    "cdal_cost",
    "cxls_wt",
    "est_aggregate_throughput_mbps",
    "iterations",
    "wall_ms",
)

DEFAULT_SCHEMES = ("pio", "ko", "ho")
DEFAULT_RATES = (9.0, 54.0)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@dataclass
class ExperimentConfig:
    topology: Topology
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    metrics: tuple[str, ...] = METRICS
    phy_rates: tuple[float, ...] = DEFAULT_RATES
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    x: int | None = SchemeConfig.x
    max_iterations: int = SchemeConfig.max_iterations
    connectivity_rule: str = SchemeConfig.connectivity_rule
    bio_budget: int = SchemeConfig.bio_budget

    def __post_init__(self):
        check_topology(self.topology)
        if not (self.schemes and self.metrics and self.phy_rates and self.seeds):
            raise ValidationError("schemes, metrics, phy_rates and seeds must be non-empty")
        self.metrics = tuple(canonical_metric(m) for m in self.metrics)
        # every rate, seed and scheme and the parameters every cell shares are
        # checked as the cells check them (schemes lower-cased), before any runs
        for rate in self.phy_rates:
            check_phy_rate(rate)
        self.phy_rates = tuple(float(r) for r in self.phy_rates)
        for seed in self.seeds:
            SchemeConfig(seed=seed)
        configs = [
            SchemeConfig(
                scheme=s,
                max_iterations=self.max_iterations,
                connectivity_rule=self.connectivity_rule,
                bio_budget=self.bio_budget,
                x=self.x,
            )
            for s in self.schemes
        ]
        self.schemes = tuple(c.scheme for c in configs)
        self.connectivity_rule = configs[0].connectivity_rule
        # a repeated item (after canonicalization) would rerun identical cells
        # and weigh them twice in the mean rows
        for name in ("schemes", "metrics", "phy_rates", "seeds"):
            items = getattr(self, name)
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValidationError(f"{item!r} is repeated in {name}")


@dataclass
class ExperimentReport:
    rows: list[dict] = field(default_factory=list)       # per-run rows
    mean_rows: list[dict] = field(default_factory=list)  # per-(scheme, metric, rate)
    summary: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(r["error"] for r in self.rows)

    def all_rows(self) -> list[dict]:
        """Member rows with each group's mean row appended after it."""
        out = []
        group = None
        means = {(m["scheme"], m["metric"], m["phy_rate_mbps"]): m for m in self.mean_rows}
        for row in self.rows:
            key = (row["scheme"], row["metric"], row["phy_rate_mbps"])
            if group is not None and key != group and group in means:
                out.append(means[group])
            group = key
            out.append(row)
        if group is not None and group in means:
            out.append(means[group])
        return out


def _run_cell(cfg: ExperimentConfig, scheme, metric, seed, rates, flows) -> list[dict]:
    """Optimize and score one (scheme, metric, seed) cell once; one row per rate.

    An optimization error goes into every rate's row, an evaluation error
    only into its own. wall_ms is the shared optimization and scoring time
    plus that rate's evaluation time.
    """
    start = time.perf_counter()
    try:
        scheme_cfg = SchemeConfig(
            scheme=scheme,
            metric=metric,
            seed=seed,
            max_iterations=cfg.max_iterations,
            connectivity_rule=cfg.connectivity_rule,
            bio_budget=cfg.bio_budget,
            x=cfg.x,
        )
        ca, _, trace = run_scheme(cfg.topology, scheme_cfg)
        values = all_scores(cfg.topology, ca, cfg.x)
        shared = {"tid": values["tid"], "cdal_cost": values["cdal"], "cxls_wt": values["cxls"],
                  "iterations": len(trace.records), "error": ""}
    except Exception as exc:  # recorded in every rate's row, surfaces as exit status 3
        ca, shared = None, {"error": f"{type(exc).__name__}: {exc}"}
    optimize_s = time.perf_counter() - start

    rows = []
    for rate in rates:
        start = time.perf_counter()
        row = dict.fromkeys(REPORT_COLUMNS)
        row.update(shared, scheme=scheme, metric=metric, phy_rate_mbps=rate, seed=seed)
        if ca is not None and flows is not None:
            try:
                report = estimate_performance(cfg.topology, ca, flows, rate)
                row["est_aggregate_throughput_mbps"] = report.aggregate_throughput_mbps
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
        row["wall_ms"] = round((optimize_s + time.perf_counter() - start) * 1000, 3)
        rows.append(row)
    return rows


def _mean_row(group: tuple[dict, ...]) -> dict:
    """The seed="mean" row of one (scheme, metric, rate) group, over its error-free rows."""
    members = [r for r in group if not r["error"]]
    mean = {col: group[0][col] for col in ("scheme", "metric", "phy_rate_mbps")}
    mean.update(seed="mean", error="")
    for col in VALUE_COLUMNS:
        vals = [r[col] for r in members if r[col] is not None]
        mean[col] = statistics.fmean(vals) if vals else None
    return mean


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    try:
        flows = build_grid_flows(cfg.topology)
    except NonGridTopologyError:
        flows = None  # throughput column stays empty on non-grid layouts

    rates = sorted(cfg.phy_rates)
    rows, mean_rows = [], []
    for scheme in sorted(cfg.schemes):
        for metric in sorted(cfg.metrics):
            cells = [
                _run_cell(cfg, scheme, metric, seed, rates, flows) for seed in sorted(cfg.seeds)
            ]
            for group in zip(*cells):  # one group per rate, members in seed order
                rows.extend(group)
                mean_rows.append(_mean_row(group))

    report = ExperimentReport(rows=rows, mean_rows=mean_rows)
    report.summary = _summarize(report)
    return report


def _summarize(report: ExperimentReport) -> dict:
    """Informative (non-gating) comparisons against the expected trends.

    Checks whether mean estimated throughput orders ho >= ko >= pio for each
    (metric, rate), and the cxls-vs-tid throughput change per (scheme, rate).
    """
    means = {
        (m["scheme"], m["metric"], m["phy_rate_mbps"]): m["est_aggregate_throughput_mbps"]
        for m in report.mean_rows
    }
    schemes = sorted({m["scheme"] for m in report.mean_rows})
    metrics = sorted({m["metric"] for m in report.mean_rows})
    rates = sorted({m["phy_rate_mbps"] for m in report.mean_rows})

    ordering = {}
    if {"pio", "ko", "ho"} <= set(schemes):
        for metric in metrics:
            for rate in rates:
                pio, ko, ho = (means.get((s, metric, rate)) for s in ("pio", "ko", "ho"))
                if None in (pio, ko, ho):
                    continue
                ordering[f"{metric}@{rate:g}Mbps"] = bool(ho >= ko >= pio)

    cxls_vs_tid = {}
    if {"cxls", "tid"} <= set(metrics):
        for scheme in schemes:
            for rate in rates:
                t, c = means.get((scheme, "tid", rate)), means.get((scheme, "cxls", rate))
                if t and c is not None:
                    cxls_vs_tid[f"{scheme}@{rate:g}Mbps"] = round((c - t) / t * 100, 2)

    return {
        "ho_ge_ko_ge_pio_by_throughput": ordering,
        "cxls_vs_tid_throughput_change_pct": cxls_vs_tid,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in report.all_rows():
            writer.writerow([_fmt(row[col]) for col in REPORT_COLUMNS])


def write_plot_data(report: ExperimentReport, outdir: str | Path) -> list[Path]:
    """One grouped-bar series file per performance metric (mean values)."""
    outdir = Path(outdir)
    written = []
    for col in ("tid", "cdal_cost", "cxls_wt", "est_aggregate_throughput_mbps"):
        path = outdir / f"plot_{col}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["scheme", "metric", "phy_rate_mbps", f"mean_{col}"])
            for m in report.mean_rows:
                writer.writerow(
                    [m["scheme"], m["metric"], _fmt(m["phy_rate_mbps"]), _fmt(m[col])]
                )
        written.append(path)
    return written
