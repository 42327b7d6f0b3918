#!/usr/bin/env python3
"""meshca benchmark: the matrix, survey and bio workloads.

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop: one client, one thread, the next operation
starts when the previous one returns. With ``--trace 0`` the run measures
set-up time in fresh processes, then runs operations until their summed
wall time reaches ``--seconds``, checks every output and prints the
end-to-end metrics, whose op times are scaled to a reference speed (see
reference.py). With ``--trace 1`` it runs half as long untraced, then
repeats the same operations traced in a fresh process and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details of each run
(latencies, digests, failures, environment) go to
``.bench_out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from reference import NOMINAL_S, kernel_seconds  # noqa: E402
from tracing import Tracer, layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh processes timed from spawn to the end of set-up; setup_s is their median
SETUP_PROBES = 5
#: ops whose digests make the short digest every run can be compared on
DIGEST_PREFIX = 3
#: traced-run child limit; a traced op runs at most a few times slower
CHILD_TIMEOUT_S = 150

#: the end-to-end metrics of BENCHMARK.json, on the result line of --trace 0;
#: op times are scaled to the reference kernel's nominal speed (reference.py)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
}
#: printed and recorded with every run but not gated (see README.md)
UNGATED_UNITS = {
    "op_tail_s": "s",
    "error_rate": "ratio",
    "wall_ops_per_s": "1/s",
    "wall_op_p50_s": "s",
}
PROGRAM_MODULES = ("topology", "metrics", "optimizer", "evaluator", "experiment", "fileio", "cli")


def program_files() -> tuple[Path, Path]:
    """src/ and tests/oracles.py of the checkout around the benchmark; exit if missing."""
    src = ROOT / "src"
    oracle_file = ROOT / "tests" / "oracles.py"
    if not (src / "meshca" / "__init__.py").is_file() or not oracle_file.is_file():
        raise SystemExit(f"bench: no meshca checkout around {BENCH} (need src/meshca and tests/oracles.py)")
    return src, oracle_file


def load_program():
    """Import meshca from src/ of this checkout and the metric oracles from tests/."""
    src, oracle_file = program_files()
    sys.path.insert(0, str(src))
    meshca = importlib.import_module("meshca")
    if Path(meshca.__file__).resolve().parent != src / "meshca":
        raise SystemExit(f"bench: imported meshca from {meshca.__file__}, not from {src}")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"meshca.{name}")
    spec = importlib.util.spec_from_file_location("meshca_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return meshca, oracles


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported and ``beyond`` says how many samples lie past it (0).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n, "beyond": n - 1 - k}


def run_phase(workload: str, seed: int, seconds: float | None = None, n_ops: int | None = None,
              traced: bool = False, check: bool = True, tiny: bool = False) -> dict:
    """Set up, run ops until `seconds` of op time (or `n_ops` ops), then check them."""
    meshca, oracles = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        w = WORKLOADS[workload](meshca, oracles, seed, workdir, tiny)
        t0 = time.perf_counter()
        w.setup()
        setup_in_process = time.perf_counter() - t0

        tracer = Tracer(meshca) if traced else None
        if tracer:
            tracer.install()
        inputs, outputs, latencies, scaled, raised = [], [], [], [], {}
        busy = 0.0
        ref_before = kernel_seconds()
        while (busy < seconds) if n_ops is None else (len(latencies) < n_ops):
            i = len(latencies)
            inp = w.make_input(i)
            t = time.perf_counter()
            try:
                out = w.run(inp)
            except Exception as exc:  # counted as a failed op
                out = None
                raised[i] = [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t
            ref_after = kernel_seconds()
            busy += dt
            latencies.append(dt)
            scaled.append(dt * NOMINAL_S * 2 / (ref_before + ref_after))
            ref_before = ref_after
            inputs.append(inp)
            outputs.append(out)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failures, digests = {}, []
        for i, (inp, out) in enumerate(zip(inputs, outputs)):
            bad = raised.get(i)
            if bad is None and check:
                try:
                    bad = w.check(i, inp, out)
                except Exception as exc:  # a check that cannot run fails the op
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                failures[i] = bad
            parts = ["raised"] if i in raised else w.digest_parts(inp, out)
            digests.append(hashlib.sha256(repr(parts).encode()).hexdigest()[:16])
        return {
            "latencies": latencies,
            "scaled": scaled,
            "busy_s": busy,
            "setup_in_process_s": setup_in_process,
            "peak_rss_mb": peak_rss_mb,
            "failures": failures,
            "digests": digests,
            "tracer": tracer,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def short_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests[:DIGEST_PREFIX]).encode()).hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit(f"bench: set-up probe failed ({proc.returncode})")
        times.append(elapsed)
    return times


def setup_probe(workload: str, seed: int) -> None:
    meshca, oracles = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT))
    try:
        WORKLOADS[workload](meshca, oracles, seed, workdir).setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_child(workload: str, seed: int, n_ops: int) -> None:
    """Run n_ops traced ops (no output checks) and print per-layer values as JSON."""
    phase = run_phase(workload, seed, n_ops=n_ops, traced=True, check=False)
    tracer = phase["tracer"]
    tracer.write(OUT / f"spans-{workload}")
    values, bases = layer_metrics(tracer, n_ops)
    print(json.dumps({"values": values, "bases": bases, "scaled_busy_s": sum(phase["scaled"]),
                      "digests": phase["digests"], "failures": phase["failures"]}))


def run_traced(workload: str, seed: int, seconds: float, report: dict) -> dict:
    """Half the time untraced and checked, then the same ops traced in a fresh process."""
    phase = run_phase(workload, seed, seconds=seconds / 2)
    n = len(phase["latencies"])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--traced-ops", str(n),
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: traced run failed ({proc.returncode})")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = {int(k): v for k, v in child["failures"].items()}
    for i, (a, b) in enumerate(zip(phase["digests"], child["digests"])):
        if a != b:
            failures.setdefault(i, []).append("traced output differs from untraced output")
    for i, bad in phase["failures"].items():
        failures.setdefault(i, []).extend(bad)
    values = child["values"]
    untraced = sum(phase["scaled"])
    values["trace.overhead_frac"] = child["scaled_busy_s"] / untraced - 1
    units = per_layer_units()
    report.update(
        attempted=n,
        failed=len(failures),
        failures=failures,
        untraced_scaled_s=untraced,
        traced_scaled_s=child["scaled_busy_s"],
        bases=child["bases"],
        digests=phase["digests"],
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_measured(workload: str, seed: int, seconds: float, report: dict) -> dict:
    """Set-up probes, then the timed loop and its checks in this process."""
    setup_times = measure_setup(workload, seed)
    phase = run_phase(workload, seed, seconds=seconds)
    lat, scaled = phase["latencies"], phase["scaled"]
    t = tail(scaled)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": phase["peak_rss_mb"],
        "op_tail_s": t["value"],
        "error_rate": len(phase["failures"]) / len(lat),
        "wall_ops_per_s": len(lat) / phase["busy_s"],
        "wall_op_p50_s": statistics.median(lat),
    }
    report.update(
        attempted=len(lat),
        failed=len(phase["failures"]),
        failures=phase["failures"],
        ungated={name: {"value": values[name], "unit": unit} for name, unit in UNGATED_UNITS.items()},
        tail=t,
        setup_probe_s=setup_times,
        setup_in_process_s=phase["setup_in_process_s"],
        latencies_s=lat,
        scaled_latencies_s=scaled,
        digests=phase["digests"],
        digest=short_digest(phase["digests"]),
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **environment()}
    runner = run_traced if trace else run_measured
    metrics = runner(workload, seed, seconds, report)
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    env = ", ".join(f"{k}={report[k]}" for k in ("python", "git_sha", "nproc", "loadavg_at_start"))
    print(f"{workload} seed={seed} trace={int(trace)}: {env}")
    for name, m in {**metrics, **report.get("ungated", {})}.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {report['failed']} of {report['attempted']} ops failed")
    if not trace:
        t = report["tail"]
        print(f"  op_tail_s is p{t['percentile']:.4g} of {t['samples']} ops ({t['beyond']} beyond)")
        print(f"  digest of first {DIGEST_PREFIX} ops: {report['digest']}")
    else:
        print(f"  ratio bases: {json.dumps(report['bases'])}")
    for i, bad in sorted(report["failures"].items())[:5]:
        print(f"  FAILED op {i}: {'; '.join(bad)}")
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh process, then one summary table."""
    results, table = {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} failed ({proc.returncode})")
        results[name] = json.loads(lines[-1])
        report = json.loads((OUT / f"result-{name}-seed{seed}-trace0.json").read_text())
        table[name] = {**report["metrics"], **report["ungated"]}
    print(f"{'metric':<14}" + "".join(f"{name:>14}" for name in table) + "  unit")
    for metric, unit in {**END_TO_END_UNITS, **UNGATED_UNITS}.items():
        print(f"{metric:<14}" + "".join(f"{t[metric]['value']:>14.6g}" for t in table.values())
              + f"  {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-ops", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    program_files()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.traced_ops is not None:
        traced_child(args.workload, args.seed, args.traced_ops)
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
