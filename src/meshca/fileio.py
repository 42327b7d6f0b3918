"""File formats: topology, assignment, trace and performance files.

Everything is self-describing JSON written with sorted keys and a trailing
newline, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

from .errors import ValidationError, is_integer
from .evaluator import PerfReport
from .optimizer import OptimizationTrace
from .topology import ChannelAssignment, Node, Topology


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path) -> dict:
    """The JSON object in a file; other JSON, or no JSON, is a ValidationError."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or UTF-8, or an int too long to convert
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# Topology files
# ---------------------------------------------------------------------------

def topology_to_dict(topo: Topology) -> dict:
    return {
        "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in topo.nodes],
        "radios_per_node": topo.radios_per_node,
        "tx_range": topo.tx_range,
        "interference_x": topo.interference_x,
        "channel_count": topo.channel_count,
    }


def topology_from_dict(data: dict) -> Topology:
    """The file object's Topology, nodes sorted by id; Node and Topology check the fields."""
    try:
        nodes = sorted((Node(n["id"], n["x"], n["y"]) for n in data["nodes"]),
                       key=lambda n: n.id)
        return Topology(
            nodes=tuple(nodes),
            radios_per_node=data["radios_per_node"],
            tx_range=data["tx_range"],
            interference_x=data["interference_x"],
            channel_count=data["channel_count"],
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed topology data: {exc}") from exc


def save_topology(topo: Topology, path: str | Path) -> None:
    dump_json(topology_to_dict(topo), path)


def load_topology(path: str | Path) -> Topology:
    return topology_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# Assignment files: {"nodeId:radioIndex": channel}
# ---------------------------------------------------------------------------

def assignment_to_dict(ca: ChannelAssignment) -> dict:
    return {f"{node}:{radio}": ch for (node, radio), ch in ca.items()}


_RADIO_KEY = re.compile(r"(-?[0-9]+):([0-9]+)")


def assignment_from_dict(data: dict) -> ChannelAssignment:
    ca: ChannelAssignment = {}
    for key, ch in data.items():
        if not is_integer(ch):
            raise ValidationError(
                f"malformed assignment entry {key!r}: channel {ch!r} is not an integer"
            )
        match = _RADIO_KEY.fullmatch(key)
        try:
            ca[(int(match[1]), int(match[2]))] = ch
        except (TypeError, ValueError) as exc:  # no match, or too many digits for int()
            raise ValidationError(
                f"malformed assignment entry {key!r}: {ch!r}"
            ) from exc
    return ca


def save_assignment(ca: ChannelAssignment, path: str | Path) -> None:
    dump_json(assignment_to_dict(ca), path)


def load_assignment(path: str | Path) -> ChannelAssignment:
    return assignment_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# Optimization traces and performance reports
# ---------------------------------------------------------------------------

def trace_to_dict(trace: OptimizationTrace, **context) -> dict:
    data = {
        "metric": trace.metric,
        "direction": trace.direction,
        "initial_score": trace.initial_score,
        "final_score": trace.final_score,
        "feasible": trace.feasible,
        "records": [asdict(r) for r in trace.records],
    }
    data.update(context)
    return data


def save_trace(trace: OptimizationTrace, path: str | Path, **context) -> None:
    dump_json(trace_to_dict(trace, **context), path)


PERF_CSV_COLUMNS = (
    "flow",
    "source",
    "destination",
    "hops",
    "throughput_mbps",
    "transfer_time_s",
    "bottleneck",
    "contention",
)


def perf_report_csv_rows(report: PerfReport) -> list[list[str]]:
    """Per-flow CSV rows (header first); disconnected flows have blank times."""
    rows = [list(PERF_CSV_COLUMNS)]
    for i, fp in enumerate(report.flows):
        link = fp.bottleneck
        rows.append([
            str(i),
            str(fp.flow.source),
            str(fp.flow.destination),
            str(fp.flow.hops),
            repr(fp.throughput_mbps),
            "" if fp.transfer_time_s is None else repr(fp.transfer_time_s),
            "" if link is None else
            f"{link.node_a}:{link.radio_a}-{link.node_b}:{link.radio_b}@{link.channel}",
            str(fp.contention),
        ])
    return rows


def save_perf_report_csv(report: PerfReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(perf_report_csv_rows(report))


def perf_report_to_dict(report: PerfReport) -> dict:
    return {
        "phy_rate_mbps": report.phy_rate_mbps,
        "aggregate_throughput_mbps": report.aggregate_throughput_mbps,
        "disconnected_flows": list(report.disconnected),
        "flows": [
            {
                "source": fp.flow.source,
                "destination": fp.flow.destination,
                "path": list(fp.flow.path),
                "payload_bytes": fp.flow.payload_bytes,
                "throughput_mbps": fp.throughput_mbps,
                "transfer_time_s": fp.transfer_time_s,
                "bottleneck": None if fp.bottleneck is None else asdict(fp.bottleneck),
                "contention": fp.contention,
            }
            for fp in report.flows
        ],
    }
