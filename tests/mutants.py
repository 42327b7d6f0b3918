"""Source patches the test suite must catch, and a script that checks it.

Each entry of MUTANTS is (file, old text, new text, test ids): the old text
must occur exactly once in the file, and with the new text in its place
every named test must fail. pytest does not collect this file. Run it from
anywhere:

    python tests/mutants.py

Each patch is applied to its own temporary copy of the repository, and the
named tests run there, first unpatched (they must pass) and then patched
(they must all fail). Exits 0 when every mutant is caught, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        # the pass must re-read the node's channels before each retune: a
        # radio moved earlier in the pass has taken one of the unused ones
        "src/meshca/optimizer.py",
        """    for n in sorted(nd.id for nd in topo.nodes):
        for r in range(1, m):
            chans = [state.ca[(n, q)] for q in range(m)]
            if chans[r] not in chans[:r]:
                continue
            unused = [ch for ch in range(c) if ch not in chans]
""",
        """    for n in sorted(nd.id for nd in topo.nodes):
        start = [state.ca[(n, q)] for q in range(m)]
        unused = [ch for ch in range(c) if ch not in start]
        for r in range(1, m):
            chans = [state.ca[(n, q)] for q in range(m)]
            if chans[r] not in chans[:r]:
                continue
""",
        [
            "tests/test_reference_sweep.py::test_rci_mitigate_matches_full_rescoring[3-global]",
            "tests/test_reference_sweep.py::test_rci_mitigate_matches_full_rescoring[3-per-pair]",
            "tests/test_reference_sweep.py::test_rci_mitigate_matches_full_rescoring[4-global]",
            "tests/test_reference_sweep.py::test_rci_mitigate_matches_full_rescoring[4-per-pair]",
        ],
    ),
    (
        "src/meshca/topology.py",
        "if not is_integer(ch) or",
        "if not isinstance(ch, int) or",
        [
            "tests/test_fileio.py::TestConsistency::test_bool_channel_rejected[True]",
            "tests/test_fileio.py::TestConsistency::test_bool_channel_rejected[False]",
        ],
    ),
    (
        "src/meshca/cli.py",
        "if key in data and not isinstance(data[key], list):",
        'if key in data and not isinstance(data[key], (list, str) if key == "schemes" else list):',
        ["tests/test_cli.py::TestExperiment::test_config_file_wrong_type_exit_one[schemes]"],
    ),
    (
        # the ko snapshot comes before the co-location cleanup, which is ho's
        "src/meshca/optimizer.py",
        """    yield "ko", snapshot()
    if cfg.scheme == "ko":
        return
    record(rci_mitigate(state))
""",
        """    moves = record(rci_mitigate(state))
    yield "ko", snapshot()
    if cfg.scheme == "ko":
        return
""",
        [
            "tests/test_experiment.py::TestSharedTrajectory::test_rci_error_only_in_ho_rows",
            "tests/test_optimizer.py::TestTrajectory::test_stops_after_the_last_scheme_asked_for"
            "[ko-phases1]",
        ],
    ),
    (
        # scores are reused only for a snapshot equal to the last one scored
        "src/meshca/experiment.py",
        "if last is None or ca != last[0]:",
        "if last is None:",
        [
            "tests/test_experiment.py::TestSharedTrajectory::test_rows_match_standalone_runs",
            "tests/test_experiment.py::TestSharedTrajectory::test_identical_snapshots_are_scored_once",
        ],
    ),
    (
        # True and False are ints, but never a count or an id
        "src/meshca/errors.py",
        "return isinstance(value, int) and not isinstance(value, bool)",
        "return isinstance(value, int)",
        [
            f"tests/test_topology.py::test_invalid_field_rejected_when_built[{case}]"
            for case in ("node-id-bool", "radios-bool", "grid-radios-bool")
        ],
    ),
    (
        # a Topology is checked where it is built, and nowhere later
        "src/meshca/topology.py",
        "        check_topology(self)\n",
        "        pass\n",
        [
            f"tests/test_topology.py::test_invalid_field_rejected_when_built[{case}]"
            for case in ("nodes-list", "radios-float", "radios-bool", "radios-str",
                         "coincident-nodes", "grid-radios-float", "grid-radios-bool",
                         "grid-channels-float", "grid-x-float")
        ],
    ),
    (
        # the sweep stops only past dist: a point exactly dist further along
        # x, or an inf x difference under an inf range, can still be in range
        "src/meshca/topology.py",
        "if points[j][0] - p[0] > dist:",
        "if points[j][0] - p[0] >= dist:",
        [
            "tests/test_geometry.py::test_geometry_edge_cases[interference-range-inf]",
            "tests/test_geometry.py::test_geometry_edge_cases[lattice-on-the-range]",
            "tests/test_geometry.py::test_thirty_by_thirty_grid",
        ],
    ),
    (
        # each pair is found once, from the point earlier in x order, and
        # goes into both points' lists
        "src/meshca/topology.py",
        "                near[j].append(i)\n",
        "                pass\n",
        [
            f"tests/test_geometry.py::test_geometry_edge_cases[{case}]"
            for case in ("x-difference-overflows", "interference-range-inf",
                         "shared-x-on-the-range", "lattice-on-the-range")
        ],
    ),
    (
        # a state held to the per-pair rule answers that rule, not the global one
        "src/meshca/metrics.py",
        """        if self.rule == "per-pair":
            return not self._unlinked
""",
        """        if self.rule == "per-pair":
            pass
""",
        [
            "tests/test_optimizer.py::TestRunScheme::test_per_pair_rule_preserves_every_adjacency",
            "tests/test_reference_sweep.py::test_bio_matches_full_rescoring[per-pair]",
            "tests/test_reference_sweep.py::test_rci_mitigate_matches_full_rescoring[3-per-pair]",
        ],
    ),
    (
        # the repair takes its breadth-first roots in id order, which is not
        # node order when ids are permuted
        "src/meshca/optimizer.py",
        "    for _, root in sorted(inst.index.items()):\n",
        "    for root in range(len(ids)):\n",
        [f"tests/test_reference_sweep.py::test_schemes_match_full_rescoring"
         f"[grid3x3-permuted-{rule}]" for rule in ("global", "per-pair")],
    ),
]


def _failed(tree: Path, ids: list[str]) -> set[str]:
    """The ids among ids that fail when run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1: some tests failed; others: they did not run
        raise SystemExit(f"named tests did not run:\n{proc.stdout}{proc.stderr}")
    return {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}


def check(path: str, old: str, new: str, ids: list[str]) -> list[str]:
    """Problems with one mutant: a patch that does not apply, or a named
    test that fails unpatched or passes patched."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            return [f"{path}: the old text occurs {text.count(old)} times, not once"]
        problems = [f"fails unpatched: {i}" for i in sorted(_failed(tree, ids))]
        target.write_text(text.replace(old, new))
        failed = _failed(tree, ids)
        return problems + [f"survives the patch: {i}" for i in ids if i not in failed]


def main() -> int:
    caught = 0
    for path, old, new, ids in MUTANTS:
        problems = check(path, old, new, ids)
        changed = next(line for line in new.splitlines() if line not in old.splitlines())
        print(f"{'caught' if not problems else 'MISSED'}: {path}: {changed.strip()}")
        for problem in problems:
            print(f"  {problem}")
        caught += not problems
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
