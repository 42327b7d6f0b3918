"""Scheme x metric x rate x seed experiment matrix with CSV reporting.

Each (scheme, metric, seed) cell has one optimized assignment, scored under
all three metrics; the flow-contention estimator then runs it on the grid
traffic pattern at every PHY rate, one row per rate. One optimizer
trajectory per (metric, seed) serves the pio, ko and ho cells, which are
its prefixes; bio runs on its own. Rows are sorted by (scheme, metric,
rate, seed); every (scheme, metric, rate) group is followed by a mean row
whose seed column is "mean".
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NonGridTopologyError, ValidationError
from .evaluator import build_grid_flows, check_phy_rate, estimate_performance
from .metrics import (DIRECTIONS, METRIC_COLUMNS, METRICS, IemScore, all_scores, better,
                      canonical_metric)
from .optimizer import TRAJECTORY_SCHEMES, SchemeConfig, run_scheme, trajectory
from .topology import Topology, require_topology

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
        require_topology(self.topology)
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


def _evaluate(cfg: ExperimentConfig, ca, rates, flows) -> tuple[dict, list, float]:
    """Score one optimized assignment under every metric and estimate it at every rate.

    Returns (shared, per_rate, score_s): the score and error columns its rows
    share, each rate's (throughput and error columns, seconds) and the
    scoring seconds. A scoring error goes into shared and skips the
    estimates; an estimation error goes only into its own rate's columns.
    """
    start = time.perf_counter()
    try:
        values = all_scores(cfg.topology, ca, cfg.x)
        shared = {col: values[m] for m, col in METRIC_COLUMNS.items()}
        shared["error"] = ""
    except Exception as exc:  # recorded in every rate's row, surfaces as exit status 3
        shared = {"error": f"{type(exc).__name__}: {exc}"}
    score_s = time.perf_counter() - start

    per_rate = []
    for rate in rates:
        start = time.perf_counter()
        cols = {}
        if not shared["error"] and flows is not None:
            try:
                report = estimate_performance(cfg.topology, ca, flows, rate)
                cols["est_aggregate_throughput_mbps"] = report.aggregate_throughput_mbps
            except Exception as exc:
                cols["error"] = f"{type(exc).__name__}: {exc}"
        per_rate.append((cols, time.perf_counter() - start))
    return shared, per_rate, score_s


def _cell_rows(key: tuple, rates, shared: dict, per_rate: list, elapsed_s: float) -> list[dict]:
    """The rows of one (scheme, metric, seed) cell, one per rate; wall_ms is
    elapsed_s plus that rate's estimation time."""
    scheme, metric, seed = key
    rows = []
    for rate, (cols, eval_s) in zip(rates, per_rate):
        row = dict.fromkeys(REPORT_COLUMNS)
        row.update(shared, scheme=scheme, metric=metric, phy_rate_mbps=rate, seed=seed)
        row.update(cols)
        row["wall_ms"] = round((elapsed_s + eval_s) * 1000, 3)
        rows.append(row)
    return rows


def _bio(topo: Topology, cfg: SchemeConfig):
    """A bio run in the form of optimizer.trajectory: its one (scheme, snapshot)."""
    yield "bio", run_scheme(topo, cfg)


def _run_cells(cfg: ExperimentConfig, metric, seed, rates, flows) -> dict[str, list[dict]]:
    """The rows of every requested scheme's cell for one (metric, seed).

    A bio cell is a run of its own. The pio, ko and ho cells are snapshots
    of one optimizer.trajectory, stopped after the last of them requested;
    a snapshot whose assignment equals the last one scored reuses its
    scores and estimates. An optimization error goes into every rate's row
    of each cell it leaves without a snapshot. wall_ms is what a standalone
    run would cost: the optimization time up to the cell's snapshot, plus
    its scoring, plus the row's estimation.
    """
    runs = [(["bio"], _bio)] if "bio" in cfg.schemes else []
    wanted = [s for s in TRAJECTORY_SCHEMES if s in cfg.schemes]
    if wanted:
        runs.append((wanted, trajectory))
    cells = {}
    for wanted, run in runs:
        elapsed_s, last = 0.0, None  # optimization seconds; the last scored (ca, evaluation)
        start = time.perf_counter()
        try:
            scheme_cfg = SchemeConfig(
                scheme=wanted[-1],
                metric=metric,
                seed=seed,
                max_iterations=cfg.max_iterations,
                connectivity_rule=cfg.connectivity_rule,
                bio_budget=cfg.bio_budget,
                x=cfg.x,
            )
            for scheme, (ca, _, trace) in run(cfg.topology, scheme_cfg):
                elapsed_s += time.perf_counter() - start
                if scheme in wanted:
                    if last is None or ca != last[0]:
                        last = ca, _evaluate(cfg, ca, rates, flows)
                    shared, per_rate, score_s = last[1]
                    if not shared["error"]:
                        shared = dict(shared, iterations=len(trace.records))
                    cells[scheme] = _cell_rows((scheme, metric, seed), rates, shared, per_rate,
                                               elapsed_s + score_s)
                start = time.perf_counter()
        except Exception as exc:  # recorded in every rate's row, surfaces as exit status 3
            elapsed_s += time.perf_counter() - start
            shared = {"error": f"{type(exc).__name__}: {exc}"}
            for scheme in wanted:
                if scheme not in cells:
                    cells[scheme] = _cell_rows((scheme, metric, seed), rates, shared,
                                               [({}, 0.0)] * len(rates), elapsed_s)
    return cells


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
    """Run every (scheme, metric, seed) cell and evaluate it at every rate.

    Cells run per (metric, seed) as _run_cells describes; the rows are then
    sorted by (scheme, metric, rate, seed), each (scheme, metric, rate)
    group followed by its mean row, and summarized.
    """
    try:
        flows = build_grid_flows(cfg.topology)
    except NonGridTopologyError:
        flows = None  # throughput column stays empty on non-grid layouts

    rates = sorted(cfg.phy_rates)
    seeds = sorted(cfg.seeds)
    cells = {}
    for metric in cfg.metrics:
        for seed in seeds:
            for scheme, rows in _run_cells(cfg, metric, seed, rates, flows).items():
                cells[scheme, metric, seed] = rows

    rows, mean_rows = [], []
    for scheme in sorted(cfg.schemes):
        for metric in sorted(cfg.metrics):
            # one group per rate, members in seed order
            for group in zip(*(cells[scheme, metric, seed] for seed in seeds)):
                rows.extend(group)
                mean_rows.append(_mean_row(group))

    report = ExperimentReport(rows=rows, mean_rows=mean_rows)
    report.summary = _summarize(report)
    return report


def _summarize(report: ExperimentReport) -> dict:
    """Informative (non-gating) comparisons against the expected trends.

    Checks whether mean estimated throughput orders ho >= ko >= pio for each
    (metric, rate), gives the cdal-vs-tid and cxls-vs-tid throughput change
    per (scheme, rate), and counts per metric the seeds where ho strictly
    beats ko, and ko pio, on the optimized metric.
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

    def change_vs_tid(other: str) -> dict:
        change = {}
        if {other, "tid"} <= set(metrics):
            for scheme in schemes:
                for rate in rates:
                    t, c = means.get((scheme, "tid", rate)), means.get((scheme, other, rate))
                    if t and c is not None:
                        change[f"{scheme}@{rate:g}Mbps"] = round((c - t) / t * 100, 2)
        return change

    # every rate's row of a cell holds the same scores; error rows hold none
    scores = {
        (r["scheme"], r["metric"], r["seed"]): IemScore(
            r["metric"], r[METRIC_COLUMNS[r["metric"]]], DIRECTIONS[r["metric"]]
        )
        for r in report.rows
        if r[METRIC_COLUMNS[r["metric"]]] is not None
    }

    seeds = sorted({r["seed"] for r in report.rows})

    def seeds_beating(strong: str, weak: str) -> dict:
        wins = {}
        if {strong, weak} <= set(schemes):
            for metric in metrics:
                pairs = [(scores.get((strong, metric, seed)), scores.get((weak, metric, seed)))
                         for seed in seeds]
                wins[metric] = sum(1 for a, b in pairs if a and b and better(a, b))
        return wins

    return {
        "ho_ge_ko_ge_pio_by_throughput": ordering,
        "cxls_vs_tid_throughput_change_pct": change_vs_tid("cxls"),
        "cdal_vs_tid_throughput_change_pct": change_vs_tid("cdal"),
        "seeds_ho_beats_ko": seeds_beating("ho", "ko"),
        "seeds_ko_beats_pio": seeds_beating("ko", "pio"),
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
