"""Command-line front end.

Subcommands: gen (grid | random), assign, score, eval, experiment.
Exit status: 0 success, 1 usage or validation error, 2 enumeration budget
exceeded, 3 experiment finished with failed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BudgetExceededError, MeshCAError, ValidationError
from .evaluator import build_grid_flows, estimate_performance
from .experiment import (
    DEFAULT_RATES,
    DEFAULT_SCHEMES,
    DEFAULT_SEEDS,
    ExperimentConfig,
    run_experiment,
    write_plot_data,
    write_report_csv,
)
from .fileio import (
    dump_json,
    load_assignment,
    load_json,
    load_topology,
    perf_report_to_dict,
    save_assignment,
    save_perf_report_csv,
    save_topology,
    save_trace,
    topology_from_dict,
)
from .metrics import METRICS, all_scores
from .optimizer import CONNECTIVITY_RULES, SCHEMES, SchemeConfig, run_scheme
from .topology import adjacent_pairs, check_assignment, gen_grid, gen_random

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(flag: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1, got {text}")
        return value

    return parse


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_items(flag: str, items: list[str] | None, parse, kind: str) -> list | None:
    """Convert a comma-list flag's items; one that does not parse is a ValidationError."""
    if items is None:
        return None
    values = []
    for item in items:
        try:
            values.append(parse(item))
        except ValueError:
            raise ValidationError(f"{flag} item {item!r} is not {kind}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"meshca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a topology file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    grid = gen_sub.add_parser("grid", help="rows x cols grid layout")
    grid.add_argument("--rows", type=_positive_int("--rows"), required=True)
    grid.add_argument("--cols", type=_positive_int("--cols"), required=True)
    grid.add_argument("--spacing", type=float, default=250.0)
    grid.add_argument("--tx-range", type=float, default=250.0)
    grid.add_argument("--interference-x", type=_positive_int("--interference-x"), default=2)
    grid.add_argument("--radios", type=_positive_int("--radios"), default=2)
    grid.add_argument("--channels", type=_positive_int("--channels"), default=3)
    grid.add_argument("-o", "--output", default="topology.json")

    rand = gen_sub.add_parser("random", help="uniform random connected layout")
    rand.add_argument("--n", type=_positive_int("--n"), required=True)
    rand.add_argument("--width", type=float, default=1000.0)
    rand.add_argument("--height", type=float, default=1000.0)
    rand.add_argument("--tx-range", type=float, default=250.0)
    rand.add_argument("--interference-x", type=_positive_int("--interference-x"), default=2)
    rand.add_argument("--radios", type=_positive_int("--radios"), default=2)
    rand.add_argument("--channels", type=_positive_int("--channels"), default=3)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("-o", "--output", default="topology.json")

    assign = sub.add_parser("assign", help="optimize a channel assignment")
    assign.add_argument("-t", "--topology", required=True)
    assign.add_argument("--scheme", choices=SCHEMES, default="ho")
    assign.add_argument("--metric", choices=METRICS, default="tid")
    assign.add_argument("--seed", type=int, default=0)
    assign.add_argument("--max-iterations", type=_positive_int("--max-iterations"), default=100)
    assign.add_argument("--connectivity-rule", choices=CONNECTIVITY_RULES, default="global")
    assign.add_argument("--bio-budget", type=_positive_int("--bio-budget"), default=10_000_000)
    assign.add_argument("--x", type=_positive_int("--x"), default=None)
    assign.add_argument("-o", "--output", default="assignment.json")
    assign.add_argument("--trace", default=None, help="trace file path (default: <output>.trace.json)")

    scorep = sub.add_parser("score", help="score an assignment under all three metrics")
    scorep.add_argument("-t", "--topology", required=True)
    scorep.add_argument("-a", "--assignment", required=True)
    scorep.add_argument("--x", type=_positive_int("--x"), default=None)
    fmt = scorep.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    evalp = sub.add_parser("eval", help="estimate flow performance on the grid traffic pattern")
    evalp.add_argument("-t", "--topology", required=True)
    evalp.add_argument("-a", "--assignment", required=True)
    evalp.add_argument("--phy-rate", type=float, default=54.0)
    evalp.add_argument("--json", action="store_true")
    evalp.add_argument("--csv", default=None, help="also write per-flow CSV rows to this path")

    exp = sub.add_parser("experiment", help="run the scheme x metric x rate x seed matrix")
    exp.add_argument("--config", default=None, help="JSON config file; flags override its keys")
    exp.add_argument("-t", "--topology", default=None, help="topology file (default: 5x5 grid)")
    exp.add_argument("--rows", type=_positive_int("--rows"), default=5)
    exp.add_argument("--cols", type=_positive_int("--cols"), default=5)
    exp.add_argument("--radios", type=_positive_int("--radios"), default=2)
    exp.add_argument("--channels", type=_positive_int("--channels"), default=3)
    exp.add_argument("--schemes", type=_csv_list, default=None, help="comma list (default pio,ko,ho)")
    exp.add_argument("--metrics", type=_csv_list, default=None, help="comma list (default tid,cdal,cxls)")
    exp.add_argument("--rates", type=_csv_list, default=None, help="comma list of Mbps (default 9,54)")
    exp.add_argument("--seeds", type=_csv_list, default=None, help="comma list (default 1,2,3,4,5)")
    exp.add_argument("--x", type=_positive_int("--x"), default=None)
    exp.add_argument("--max-iterations", type=_positive_int("--max-iterations"), default=100)
    exp.add_argument("--connectivity-rule", choices=CONNECTIVITY_RULES, default="global")
    exp.add_argument("--bio-budget", type=_positive_int("--bio-budget"), default=10_000_000)
    exp.add_argument("--out", default=None, help="output directory (default: $MESHCA_OUTPUT_DIR or ./meshca-out)")
    exp.add_argument("--formats", type=_csv_list, default=None, help="comma list of csv,json (default both)")
    return parser


def cmd_gen(args) -> int:
    if args.kind == "grid":
        topo = gen_grid(
            args.rows,
            args.cols,
            spacing=args.spacing,
            tx_range=args.tx_range,
            interference_x=args.interference_x,
            radios_per_node=args.radios,
            channel_count=args.channels,
        )
    else:
        topo = gen_random(
            args.n,
            args.width,
            args.height,
            tx_range=args.tx_range,
            interference_x=args.interference_x,
            radios_per_node=args.radios,
            channel_count=args.channels,
            seed=args.seed,
        )
    save_topology(topo, args.output)
    print(
        f"wrote {args.output}: {len(topo.nodes)} nodes, "
        f"{len(adjacent_pairs(topo))} potential adjacencies, "
        f"{topo.radios_per_node} radios/node, {topo.channel_count} channels"
    )
    return EXIT_OK


def cmd_assign(args) -> int:
    topo = load_topology(args.topology)
    cfg = SchemeConfig(
        scheme=args.scheme,
        metric=args.metric,
        seed=args.seed,
        max_iterations=args.max_iterations,
        connectivity_rule=args.connectivity_rule,
        bio_budget=args.bio_budget,
        x=args.x,
    )
    ca, final, trace = run_scheme(topo, cfg)
    save_assignment(ca, args.output)
    trace_path = args.trace or f"{args.output}.trace.json"
    save_trace(trace, trace_path, scheme=args.scheme, metric=args.metric, seed=args.seed)
    values = all_scores(topo, ca, args.x)
    others = " ".join(f"{name}={values[name]!r}" for name in METRICS if name != final.metric)
    print(f"wrote {args.output} and {trace_path}")
    print(f"optimized {final.metric}={final.value!r} ({final.direction})  {others}")
    if not trace.feasible:
        print("warning: connectivity rule not satisfiable; assignment flagged infeasible")
    return EXIT_OK


def cmd_score(args) -> int:
    topo = load_topology(args.topology)
    ca = load_assignment(args.assignment)
    values = all_scores(topo, ca, args.x)
    if args.json:
        print(json.dumps(
            {"tid": values["tid"], "cdal_cost": values["cdal"], "cxls_wt": values["cxls"]},
            sort_keys=True,
        ))
    elif args.csv:
        print("tid,cdal_cost,cxls_wt")
        print(f"{values['tid']!r},{values['cdal']!r},{values['cxls']!r}")
    else:
        print(f"tid={values['tid']!r} cdal_cost={values['cdal']!r} cxls_wt={values['cxls']!r}")
    return EXIT_OK


def cmd_eval(args) -> int:
    topo = load_topology(args.topology)
    ca = load_assignment(args.assignment)
    check_assignment(topo, ca)
    flows = build_grid_flows(topo)
    report = estimate_performance(topo, ca, flows, args.phy_rate)
    if args.csv:
        save_perf_report_csv(report, args.csv)
    if args.json:
        print(json.dumps(perf_report_to_dict(report), sort_keys=True))
        return EXIT_OK
    print(f"estimated aggregate throughput: {report.aggregate_throughput_mbps:.3f} Mbps "
          f"({len(flows)} flows at {args.phy_rate:g} Mbps PHY)")
    for i, fp in enumerate(report.flows):
        state = (
            f"{fp.throughput_mbps:.3f} Mbps, {fp.transfer_time_s:.3f} s"
            if fp.transfer_time_s is not None
            else "disconnected"
        )
        print(f"  flow {i} {fp.flow.source}->{fp.flow.destination}: {state}")
    return EXIT_OK


def _experiment_config(args) -> tuple[ExperimentConfig, Path, list[str]]:
    file_cfg = load_json(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    if args.topology:
        topo = load_topology(args.topology)
    elif "topology" in file_cfg:
        topo = topology_from_dict(file_cfg["topology"])
    else:
        topo = gen_grid(args.rows, args.cols, radios_per_node=args.radios,
                        channel_count=args.channels)

    cfg = ExperimentConfig(
        topology=topo,
        schemes=tuple(pick(args.schemes, "schemes", DEFAULT_SCHEMES)),
        metrics=tuple(pick(args.metrics, "metrics", METRICS)),
        phy_rates=tuple(pick(
            _parse_items("--rates", args.rates, float, "a number"), "phy_rates", DEFAULT_RATES
        )),
        seeds=tuple(pick(
            _parse_items("--seeds", args.seeds, int, "an integer"), "seeds", DEFAULT_SEEDS
        )),
        x=args.x if args.x is not None else file_cfg.get("x"),
        max_iterations=args.max_iterations,
        connectivity_rule=args.connectivity_rule,
        bio_budget=args.bio_budget,
    )
    outdir = Path(
        pick(args.out, "output_dir", os.environ.get("MESHCA_OUTPUT_DIR", "meshca-out"))
    )
    formats = [f.lower() for f in pick(args.formats, "formats", ["csv", "json"])]
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise MeshCAError(f"unknown output format {fmt!r}; expected csv or json")
    return cfg, outdir, formats


def cmd_experiment(args) -> int:
    cfg, outdir, formats = _experiment_config(args)
    outdir.mkdir(parents=True, exist_ok=True)
    report = run_experiment(cfg)
    n_runs = len(cfg.schemes) * len(cfg.metrics) * len(cfg.phy_rates) * len(cfg.seeds)
    if "csv" in formats:
        write_report_csv(report, outdir / "report.csv")
        write_plot_data(report, outdir)
    if "json" in formats:
        dump_json(
            {
                "rows": report.all_rows(),
                "summary": report.summary,
            },
            outdir / "report.json",
        )
    dump_json(report.summary, outdir / "summary.json")
    failures = [r for r in report.rows if r["error"]]
    print(f"ran {n_runs} cells ({len(failures)} failed); outputs in {outdir}/")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    if failures:
        for r in failures:
            print(
                f"  FAILED {r['scheme']}/{r['metric']}/{r['phy_rate_mbps']:g}Mbps/seed{r['seed']}: "
                f"{r['error']}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "assign": cmd_assign,
        "score": cmd_score,
        "eval": cmd_eval,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"meshca: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MeshCAError as exc:
        print(f"meshca: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"meshca: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
