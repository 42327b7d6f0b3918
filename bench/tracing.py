"""Span tracing of meshca's public functions, from outside the program.

``Tracer.install()`` replaces each traced function at every module binding
through which it is reached (``optimizer`` calls ``score`` through its own
imported name, for example), so every call records a span: name, start,
end and the span open when it began. Spans are kept in flat arrays and
written out after the run; per-function statistics and the derived
optimizer and experiment counts are computed from them afterwards.

A traced function missing from the program is reported as absent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

#: traced functions per module, in report order
TRACED = {
    "topology": ("adjacent_pairs", "interfering_pairs", "conflict_graph",
                 "is_ca_connected", "realized_links"),
    "metrics": ("score", "tid", "cdal_cost", "cxls_wt", "enumerate_xls", "all_scores"),
    "optimizer": ("run_scheme", "initial_assignment", "improve_sweep", "rci_mitigate",
                  "eiz_detect", "bio_assign"),
    "evaluator": ("build_grid_flows", "estimate_performance"),
    "experiment": ("run_experiment",),
    "fileio": ("load_topology", "load_assignment"),
    "cli": ("main",),
}
#: traced only to sum into experiment.write_s
WRITERS = ("experiment.write_report_csv", "experiment.write_plot_data", "fileio.dump_json")

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
#: spans under these make optimizer.candidates and optimizer.feasible_ratio
SEARCHES = ("optimizer.improve_sweep", "optimizer.rci_mitigate", "optimizer.bio_assign")
#: spans under these make optimizer.move_yield
MOVERS = ("optimizer.improve_sweep", "optimizer.rci_mitigate")

DERIVED_UNITS = {
    "optimizer.candidates": "count/op",
    "optimizer.feasible_ratio": "ratio",
    "optimizer.moves": "count/op",
    "optimizer.move_yield": "ratio",
    "optimizer.iterations": "count/op",
    "optimizer.infeasible_runs": "count/op",
    "experiment.run_scheme_per_cell": "ratio",
    "experiment.failed_cells": "count/op",
    "experiment.write_s": "s/op",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for full in FUNCTIONS:
        units[f"{full}.calls"] = "calls/op"
        units[f"{full}.s"] = "s/op"
        units[f"{full}.self_s"] = "s/op"
    units.update(DERIVED_UNITS)
    return units


def _moved(old: dict, new: dict) -> int:
    return sum(1 for radio, ch in old.items() if new.get(radio) != ch)


def _assignment_arg(args, kwargs) -> dict:
    return args[1] if len(args) > 1 else kwargs["ca"]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = {"moves": 0, "iterations": 0, "infeasible_runs": 0,
                       "cells": 0, "failed_cells": 0, "hook_errors": 0}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _hooks(self) -> dict:
        """Counts read from the arguments and results of traced calls."""
        c = self.counts

        def sweep(args, kwargs, result):
            c["moves"] += _moved(_assignment_arg(args, kwargs), result[0])

        def rci(args, kwargs, result):
            c["moves"] += _moved(_assignment_arg(args, kwargs), result)

        def scheme(args, kwargs, result):
            c["iterations"] += len(result[2].records)
            c["infeasible_runs"] += not result[2].feasible

        def experiment(args, kwargs, result):
            c["cells"] += len(result.rows)
            c["failed_cells"] += sum(1 for r in result.rows if r["error"])

        return {"optimizer.improve_sweep": sweep, "optimizer.rci_mitigate": rci,
                "optimizer.run_scheme": scheme, "experiment.run_experiment": experiment}

    def _wrap(self, fn, nid: int, hook):
        parent_append, name_append = self.parent.append, self.name_id.append
        start_append, end_append = self.start.append, self.end.append
        starts, ends = self.start, self.end
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            parent_append(stack[-1])
            name_append(nid)
            start_append(0.0)
            end_append(0.0)
            push(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (LookupError, TypeError, AttributeError):
                    # the function's signature or result changed: the count
                    # it feeds is no longer valid, but the program's run is
                    counts["hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in the loaded meshca modules."""
        prefix = self.package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        hooks = self._hooks()
        for full in FUNCTIONS + WRITERS:
            mod_name, fn_name = full.split(".")
            original = getattr(sys.modules.get(f"{prefix}.{mod_name}"), fn_name, None)
            if original is None:
                self.absent.append(full)
                continue
            wrapper = self._wrap(original, len(self.names), hooks.get(full))
            self.names.append(full)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, outdir: Path) -> None:
        """Write the spans as one raw column file each plus a JSON header."""
        outdir.mkdir(parents=True, exist_ok=True)
        columns = {"name_id": self.name_id, "parent": self.parent,
                   "start": self.start, "end": self.end}
        header = {"names": self.names, "absent": self.absent, "spans": len(self.start),
                  "byteorder": sys.byteorder,
                  "columns": {k: v.typecode for k, v in columns.items()}}
        (outdir / "header.json").write_text(json.dumps(header, indent=1))
        for key, col in columns.items():
            with open(outdir / f"{key}.bin", "wb") as fh:
                col.tofile(fh)


def span_stats(name_id, parent, start, end, n_names: int):
    """Calls, inclusive seconds and self seconds per name.

    Spans must be ordered by start time, as recording at entry orders them.
    Self time is a span's duration minus the part of its interval that its
    direct children cover; overlapping children count once and children
    reaching outside their parent are clipped to it.
    """
    n = len(start)
    calls = [0] * n_names
    incl = [0.0] * n_names
    own = [0.0] * n_names
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n  # end of the covered part of each span so far
    for i in range(n):
        nid = name_id[i]
        calls[nid] += 1
        incl[nid] += end[i] - start[i]
        p = parent[i]
        if p >= 0:
            lo = max(start[i], reach[p], start[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    for i in range(n):
        own[name_id[i]] += end[i] - start[i] - covered[i]
    return calls, incl, own


def _under(name_id, parent, names: list[str], ancestors) -> bytearray:
    """Per span: does some strict ancestor carry one of the given names?"""
    ids = {names.index(a) for a in ancestors if a in names}
    flags = bytearray(len(parent))
    for i, p in enumerate(parent):
        if p >= 0 and (flags[p] or name_id[p] in ids):
            flags[i] = 1
    return flags


def _count_under(name_id, flags, names: list[str], name: str) -> int:
    if name not in names:
        return 0
    nid = names.index(name)
    return sum(1 for i, f in enumerate(flags) if f and name_id[i] == nid)


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict[str, float], dict]:
    """Per-layer metric values (per op) plus the bases of every ratio."""
    names = tracer.names
    name_id, parent, start, end = tracer.name_id, tracer.parent, tracer.start, tracer.end
    calls, incl, own = span_stats(name_id, parent, start, end, len(names))
    values: dict[str, float] = {}
    for full in FUNCTIONS:
        k = names.index(full) if full in names else None
        values[f"{full}.calls"] = calls[k] / n_ops if k is not None else 0
        values[f"{full}.s"] = incl[k] / n_ops if k is not None else 0
        values[f"{full}.self_s"] = own[k] / n_ops if k is not None else 0

    in_search = _under(name_id, parent, names, SEARCHES)
    in_mover = _under(name_id, parent, names, MOVERS)
    in_experiment = _under(name_id, parent, names, ("experiment.run_experiment",))
    candidates = _count_under(name_id, in_search, names, "topology.is_ca_connected")
    search_scores = _count_under(name_id, in_search, names, "metrics.score")
    mover_scores = _count_under(name_id, in_mover, names, "metrics.score")
    cell_schemes = _count_under(name_id, in_experiment, names, "optimizer.run_scheme")
    c = tracer.counts
    values["optimizer.candidates"] = candidates / n_ops
    values["optimizer.feasible_ratio"] = _ratio(search_scores, candidates)
    values["optimizer.moves"] = c["moves"] / n_ops
    values["optimizer.move_yield"] = _ratio(c["moves"], mover_scores)
    values["optimizer.iterations"] = c["iterations"] / n_ops
    values["optimizer.infeasible_runs"] = c["infeasible_runs"] / n_ops
    values["experiment.run_scheme_per_cell"] = _ratio(cell_schemes, c["cells"])
    values["experiment.failed_cells"] = c["failed_cells"] / n_ops
    values["experiment.write_s"] = sum(
        incl[names.index(w)] for w in WRITERS if w in names) / n_ops
    bases = {
        "ops": n_ops,
        "spans": len(start),
        "optimizer.feasible_ratio": {"scores": search_scores, "candidates": candidates},
        "optimizer.move_yield": {"moves": c["moves"], "scores": mover_scores},
        "experiment.run_scheme_per_cell": {"run_scheme": cell_schemes, "cells": c["cells"]},
        "absent": tracer.absent,
        "hook_errors": c["hook_errors"],
    }
    return values, bases
