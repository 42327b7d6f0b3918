"""The three benchmark workloads: matrix, survey and bio.

Each workload generates its inputs from the benchmark seed, runs one
operation at a time (closed loop, one client, one thread) and checks every
output after the timed loop. A workload exposes:

* ``setup()``        -- write the inputs op 0 needs and warm up; part of set-up time
* ``make_input(i)``  -- input of operation ``i``, a pure function of (seed, i)
* ``run(inp)``       -- the timed operation; returns its output
* ``check(i, inp, out)`` -- list of failed checks (empty when correct)
* ``digest_parts(inp, out)`` -- non-timing outputs, hashed into the run digest

The program only ever sees the generated inputs: topology and assignment
files, topology dicts and scheme configs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

RATES = (9.0, 54.0)
SCHEMES = ("pio", "ko", "ho")
METRIC_COLUMNS = {"tid": "tid", "cdal": "cdal_cost", "cxls": "cxls_wt"}
MAXIMIZED = {"cxls"}


def _not_worse(metric: str, a: float, b: float) -> bool:
    """True iff score a is at least as good as score b for the metric."""
    return a >= b if metric in MAXIMIZED else a <= b


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Input generators (benchmark-owned; they do not call the program)
# ---------------------------------------------------------------------------

def grid_dict(rows: int, cols: int, spacing: int, origin=(0, 0), radios=2, channels=3) -> dict:
    """A rows x cols lattice in the topology file format.

    Integer spacing and origin keep every coordinate exact, and tx_range =
    1.2 * spacing puts exactly the four lattice neighbours in range.
    """
    ox, oy = origin
    return {
        "nodes": [
            {"id": r * cols + c, "x": float(ox + c * spacing), "y": float(oy + r * spacing)}
            for r in range(rows)
            for c in range(cols)
        ],
        "radios_per_node": radios,
        "tx_range": 1.2 * spacing,
        "interference_x": 2,
        "channel_count": channels,
    }


def _pair_count(points, tx: float) -> int:
    n = len(points)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if math.dist(points[i], points[j]) <= tx
    )


def random_dict(n: int, rng: random.Random, pairs: tuple[int, int], tx: float = 250.0,
                radios=2, channels=3) -> dict:
    """A connected random layout with uneven density.

    Nodes are grown one at a time, each within range of an existing node.
    One in four is a "dense" node allowed as close as 0.35 * tx to others;
    the rest keep 0.8 * tx apart. Layouts whose adjacent-pair count falls
    outside the inclusive range `pairs` are redrawn, so the work per node
    count stays comparable between seeds.
    """
    lo, hi = pairs
    while True:
        pts = [(0.0, 0.0)]
        while len(pts) < n:
            frac = 0.35 if rng.random() < 0.25 else 0.8
            ax, ay = pts[rng.randrange(len(pts))]
            # 0.999: rounding to 0.1 below must not push a new node out of range
            d = tx * rng.uniform(frac, 0.999)
            a = rng.uniform(0.0, 2.0 * math.pi)
            p = (round(ax + d * math.cos(a), 1), round(ay + d * math.sin(a), 1))
            if all(math.dist(p, q) >= tx * frac for q in pts):
                pts.append(p)
        if lo <= _pair_count(pts, tx) <= hi:
            break
    return {
        "nodes": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(pts)],
        "radios_per_node": radios,
        "tx_range": tx,
        "interference_x": 2,
        "channel_count": channels,
    }


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def _cli(meshca, argv: list[str]) -> tuple[int, str]:
    """Run `meshca <argv>` in-process; return its exit status and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = meshca.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# matrix: the full `meshca experiment` path
# ---------------------------------------------------------------------------

class Matrix:
    """One op = one `meshca experiment` on a 5x5 grid: 3 schemes x 3 metrics x 2 rates."""

    name = "matrix"

    def __init__(self, meshca, oracles, seed: int, workdir: Path, tiny: bool = False):
        self.m = meshca
        self.seed = seed
        self.workdir = workdir
        self.side = 3 if tiny else 5
        self.schemes = ("pio", "ho") if tiny else SCHEMES
        self.metrics = ("tid", "cxls") if tiny else tuple(METRIC_COLUMNS)
        self.topo_path = workdir / "matrix_topology.json"

    def _experiment(self, outdir: Path, seed: int, schemes, metrics, rates) -> int:
        return _cli(self.m, [
            "experiment", "-t", str(self.topo_path), "--out", str(outdir),
            "--schemes", ",".join(schemes), "--metrics", ",".join(metrics),
            "--rates", ",".join(f"{r:g}" for r in rates), "--seeds", str(seed),
        ])[0]

    def setup(self) -> None:
        _write_json(self.topo_path, grid_dict(self.side, self.side, 250))
        # warm-up: one cell, so the geometry of the grid is cached as it is
        # for every later op (the topology file never changes)
        self._experiment(self.workdir / "warmup", 1, ("pio",), ("tid",), (9.0,))

    def make_input(self, i: int) -> dict:
        rng = random.Random(f"matrix:{self.seed}:{i}")
        return {"seed": rng.randrange(1, 2**31), "outdir": self.workdir / f"op{i}"}

    def run(self, inp: dict) -> int:
        return self._experiment(inp["outdir"], inp["seed"], self.schemes, self.metrics, RATES)

    def read_rows(self, inp: dict) -> list[dict]:
        with open(inp["outdir"] / "report.csv", newline="") as fh:
            return [r for r in csv.DictReader(fh) if r["seed"] != "mean"]

    def check(self, i: int, inp: dict, rc) -> list[str]:
        if rc != 0:
            return [f"experiment exit status {rc}"]
        return self.check_rows(self.read_rows(inp))

    def check_rows(self, rows: list[dict]) -> list[str]:
        bad = []
        expected = len(self.schemes) * len(self.metrics) * len(RATES)
        if len(rows) != expected:
            bad.append(f"{len(rows)} report rows, expected {expected}")
        cell = {}
        for r in rows:
            if r["error"]:
                bad.append(f"failed cell {r['scheme']}/{r['metric']}: {r['error']}")
                continue
            cell[(r["scheme"], r["metric"], float(r["phy_rate_mbps"]))] = r
        for metric in self.metrics:
            col = METRIC_COLUMNS[metric]
            for rate in RATES:
                vals = [cell.get((s, metric, rate)) for s in self.schemes]
                if None in vals:
                    continue
                scores = [float(v[col]) for v in vals]
                # schemes are listed weakest first: pio, (ko,) ho
                for weak, strong, a, b in zip(self.schemes, self.schemes[1:], scores, scores[1:]):
                    if not _not_worse(metric, b, a):
                        bad.append(f"{strong} worse than {weak} on {metric}@{rate:g}: {b} vs {a}")
            for s in self.schemes:
                lo, hi = cell.get((s, metric, RATES[0])), cell.get((s, metric, RATES[1]))
                if lo is None or hi is None:
                    continue
                for col in ("tid", "cdal_cost", "cxls_wt", "iterations"):
                    if lo[col] != hi[col]:
                        bad.append(f"{s}/{metric}: {col} differs between rates")
                t_lo = float(lo["est_aggregate_throughput_mbps"])
                t_hi = float(hi["est_aggregate_throughput_mbps"])
                if not _close(t_hi, t_lo * RATES[1] / RATES[0]):
                    bad.append(f"{s}/{metric}: throughput not proportional to PHY rate")
        return bad

    def digest_parts(self, inp: dict, rc) -> list:
        if rc != 0:
            return [rc]
        return [
            [v for k, v in sorted(r.items()) if k != "wall_ms"] for r in self.read_rows(inp)
        ]


# ---------------------------------------------------------------------------
# survey: cold scoring and flow estimation of many distinct meshes
# ---------------------------------------------------------------------------

# Two grids to one random layout, so the median op is always a grid op; with
# sizes spread from 10x10 to 14x14 and 80 to 120 nodes the median jumped
# between size classes as the number of ops in a run changed, and the medians
# of ten runs spread by a fifth. The random layouts have about as many
# adjacent pairs as the grid (264), which sets the cost of their geometry.
SURVEY_LADDER = (("grid", 12), ("random", 100), ("grid", 12))
TINY_SURVEY_LADDER = (("grid", 4), ("random", 12))


class Survey:
    """One op = `meshca score` of a fresh mesh and assignment, plus `meshca eval`
    at 9 and 54 Mbps when the mesh is a grid."""

    name = "survey"

    def __init__(self, meshca, oracles, seed: int, workdir: Path, tiny: bool = False):
        self.m = meshca
        self.oracles = oracles
        self.seed = seed
        self.workdir = workdir
        self.ladder = TINY_SURVEY_LADDER if tiny else SURVEY_LADDER

    def setup(self) -> None:
        self.make_input(0)
        warm = self._write_mesh("warmup", random.Random(f"survey:{self.seed}:warmup"), "grid", 3)
        self.run(warm)

    def _write_mesh(self, tag: str, rng: random.Random, kind: str, size: int) -> dict:
        if kind == "grid":
            # distinct spacing and origin per op: equal geometry, distinct
            # Topology, so nothing cached for one mesh serves another
            data = grid_dict(size, size, rng.randrange(150, 400),
                             (rng.randrange(-5000, 5000), rng.randrange(-5000, 5000)))
        else:
            data = random_dict(size, rng, (round(2.5 * size), round(2.8 * size)))
        # radio 0 of every node shares one channel, so the mesh is connected
        # and every flow is routable; the other radios are uniform
        common = rng.randrange(data["channel_count"])
        ca = {
            f"{node['id']}:{r}": common if r == 0 else rng.randrange(data["channel_count"])
            for node in data["nodes"]
            for r in range(data["radios_per_node"])
        }
        return {
            "kind": kind,
            "size": size,
            "topology": _write_json(self.workdir / f"{tag}_topology.json", data),
            "assignment": _write_json(self.workdir / f"{tag}_assignment.json", ca),
            "relabel_seed": rng.randrange(2**31),
        }

    def make_input(self, i: int) -> dict:
        kind, size = self.ladder[i % len(self.ladder)]
        return self._write_mesh(f"op{i}", random.Random(f"survey:{self.seed}:{i}"), kind, size)

    def _score(self, topology: Path, assignment: Path) -> dict:
        rc, text = _cli(self.m, ["score", "-t", str(topology), "-a", str(assignment), "--json"])
        if rc != 0:
            raise RuntimeError(f"meshca score exit status {rc}")
        return json.loads(text)

    def run(self, inp: dict) -> dict:
        out = {"scores": self._score(inp["topology"], inp["assignment"]), "reports": {}}
        if inp["kind"] == "grid":
            for rate in RATES:
                rc, text = _cli(self.m, ["eval", "-t", str(inp["topology"]), "-a",
                                         str(inp["assignment"]), "--phy-rate", f"{rate:g}", "--json"])
                if rc != 0:
                    raise RuntimeError(f"meshca eval exit status {rc}")
                rep = json.loads(text)
                out["reports"][rate] = (
                    [f["throughput_mbps"] for f in rep["flows"]], rep["disconnected_flows"]
                )
        return out

    def check(self, i: int, inp: dict, out: dict) -> list[str]:
        bad = []
        ca = json.loads(inp["assignment"].read_text())
        channels = list(range(json.loads(inp["topology"].read_text())["channel_count"]))
        perm = channels[:]
        rng = random.Random(inp["relabel_seed"])
        while perm == channels and len(channels) > 1:
            rng.shuffle(perm)
        relabeled = _write_json(inp["assignment"].with_suffix(".relabeled.json"),
                                {radio: perm[ch] for radio, ch in ca.items()})
        if self._score(inp["topology"], relabeled) != out["scores"]:
            bad.append("scores changed under channel relabeling")
        if inp["kind"] == "grid":
            bad += self.check_flows(inp["size"], out)
        if i < 2:  # the oracles are slow: check the first grid and the first layout
            topo = self.m.fileio.load_topology(inp["topology"])
            ca = self.m.fileio.load_assignment(inp["assignment"])
            if self.oracles.tid_value(topo, ca) != out["scores"]["tid"]:
                bad.append("tid disagrees with the oracle")
            if not _close(self.oracles.cdal_value(topo, ca), out["scores"]["cdal_cost"]):
                bad.append("cdal disagrees with the oracle")
        return bad

    @staticmethod
    def check_flows(side: int, out: dict) -> list[str]:
        bad = []
        for rate, (thr, disconnected) in out["reports"].items():
            if len(thr) != 2 * side:
                bad.append(f"{len(thr)} flows at {rate:g} Mbps on a {side}x{side} grid")
            for fi, t in enumerate(thr):
                if fi in disconnected:
                    ok = t == 0.0
                else:
                    ok = 0.0 < t <= rate
                if not ok:
                    bad.append(f"flow {fi} throughput {t} out of bounds at {rate:g} Mbps")
        lo, hi = (out["reports"][r][0] for r in RATES)
        if not all(_close(b, a * RATES[1] / RATES[0]) for a, b in zip(lo, hi)):
            bad.append("per-flow throughput not proportional to PHY rate")
        return bad

    def digest_parts(self, inp: dict, out: dict) -> list:
        return [sorted(out["scores"].items()), sorted(out["reports"].items())]


# ---------------------------------------------------------------------------
# bio: exhaustive search on tiny instances
# ---------------------------------------------------------------------------

# Every instance is a tree of 5 nodes x 2 radios x 3 channels: 59,049
# assignments, 4 adjacent pairs and every pair needed for connectivity, so
# ops are alike in size. Smaller instances (6,561 assignments at 4 nodes) or
# a 5-node grid with a cycle (about 1.5x the work) would spread op latency
# enough that its median flips with the mix of a run.
BIO_KINDS = ("line5", "tee5", "random5")
TINY_BIO_KINDS = ("line3", "random3")
BIO_METRICS = ("tid", "cdal", "cxls")


class Bio:
    """One op = one exhaustive `bio` search for one (instance, metric) pair.

    Op i uses kind i mod 3 and metric (i + i div 3) mod 3: every 9 ops cover
    each (kind, metric) pair once, and every 3 ops each kind and each metric.
    """

    name = "bio"

    def __init__(self, meshca, oracles, seed: int, workdir: Path, tiny: bool = False):
        self.m = meshca
        self.oracles = oracles
        self.seed = seed
        self.kinds = TINY_BIO_KINDS if tiny else BIO_KINDS

    @staticmethod
    def instance(kind: str, rng: random.Random) -> dict:
        spacing = rng.randrange(100, 400)
        if kind.startswith("line"):
            return grid_dict(1, int(kind[4:]), spacing)
        if kind == "tee5":
            # a T on a 3x3 lattice: the top row plus the middle column
            data = grid_dict(3, 3, spacing)
            data["nodes"] = [nd for nd in data["nodes"] if nd["id"] in (0, 1, 2, 4, 7)]
            return data
        n = int(kind[6:])
        return random_dict(n, rng, (n - 1, n - 1), tx=float(spacing))

    def setup(self) -> None:
        self.make_input(0)
        warm = self.m.fileio.topology_from_dict(grid_dict(1, 3, 100))
        self.m.optimizer.run_scheme(warm, self.m.optimizer.SchemeConfig(scheme="bio", metric="tid"))

    def make_input(self, i: int) -> dict:
        rng = random.Random(f"bio:{self.seed}:{i}")
        kind = self.kinds[i % len(self.kinds)]
        return {
            "kind": kind,
            "topology": self.m.fileio.topology_from_dict(self.instance(kind, rng)),
            "metric": BIO_METRICS[(i + i // 3) % len(BIO_METRICS)],
            "rival_seed": rng.randrange(1, 2**31),
        }

    def run(self, inp: dict):
        opt = self.m.optimizer
        return opt.run_scheme(inp["topology"], opt.SchemeConfig(scheme="bio", metric=inp["metric"]))

    def oracle_value(self, topo, ca, metric: str) -> float:
        if metric == "tid":
            return self.oracles.tid_value(topo, ca)
        if metric == "cdal":
            return self.oracles.cdal_value(topo, ca)
        return self.oracles.cxls_value(topo, ca, topo.interference_x)

    def check(self, i: int, inp: dict, out) -> list[str]:
        opt = self.m.optimizer
        ca, final, trace = out
        topo, metric = inp["topology"], inp["metric"]
        bad = []
        if not trace.feasible:
            bad.append("bio found no feasible assignment on a connected instance")
        expected = self.oracle_value(topo, ca, metric)
        if not (expected == final.value if metric == "tid" else _close(expected, final.value)):
            bad.append(f"bio score {final.value} != oracle {expected}")
        for scheme in SCHEMES:
            cfg = opt.SchemeConfig(scheme=scheme, metric=metric, seed=inp["rival_seed"])
            _, rival, _ = opt.run_scheme(topo, cfg)
            if not _not_worse(metric, final.value, rival.value):
                bad.append(f"{scheme} beats bio on {metric}: {rival.value} vs {final.value}")
        return bad

    def digest_parts(self, inp: dict, out) -> list:
        ca, final, trace = out
        return [inp["kind"], inp["metric"], sorted(ca.items()), final.value, trace.feasible]


WORKLOADS = {w.name: w for w in (Matrix, Survey, Bio)}
