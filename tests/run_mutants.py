"""Replay the planted mutants of tests/data/mutants.json.

Each listed mutant replaces the one occurrence of its old text with its new
text in a temporary copy of src/ (next to copies of tests/ and
pyproject.toml, so that pytest imports the copy), runs only its killing
test node there, and must make that node fail (pytest exit status 1; an
error, a missing node or a pass do not count). Before any mutant is
planted, the killing nodes run once together on an unmutated copy and must
all pass, so that no node kills by failing already. The replays then run
concurrently, one per CPU, each with OpenBLAS held to one thread so that
they do not oversubscribe the cores, and print in list order. Each exempt
mutant is only checked to still apply to the source, so that the list
follows the code.

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py ID [ID...] # only these

Exits 0 when every listed mutant is killed and every entry applies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "data" / "mutants.json"


def _applies(entry: dict) -> str | None:
    """Why entry cannot apply to the source, or None."""
    count = (ROOT / entry["file"]).read_text().count(entry["old"])
    return None if count == 1 else f"old text occurs {count} times in {entry['file']}"


def _pytest(tree: Path, nodes: list[str], entry: dict | None = None) -> subprocess.CompletedProcess:
    """Copy the source and tests to tree, plant entry if given, and run nodes there."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    if entry is not None:
        path = tree / entry["file"]
        path.write_text(path.read_text().replace(entry["old"], entry["new"]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def _unmutated(nodes: list[str], tree: Path) -> list[str]:
    """Run the killing nodes together on an unmutated copy at tree: why each failing one fails."""
    run = _pytest(tree, nodes)
    if run.returncode == 0:
        return []
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return [f"unmutated: {line}" for line in failed] or [f"unmutated: pytest exited {run.returncode}"]


def _replay(entry: dict, tree: Path) -> tuple[str | None, float]:
    """Plant entry in a copy at tree and run its node there: why it survived
    or cannot apply (None when killed), and the seconds it took."""
    start, why = time.monotonic(), _applies(entry)
    if why is None:
        status = _pytest(tree, [entry["test"]], entry).returncode
        why = None if status == 1 else f"{entry['test']} exited {status}, not 1"
    return why, time.monotonic() - start


def main(argv: list[str]) -> int:
    spec = json.loads(MUTANTS.read_text())
    failures = [f"{entry['id']} (exempt): {why}" for entry in spec["exempt"] if (why := _applies(entry))]
    mutants = [entry for entry in spec["mutants"] if not argv or entry["id"] in argv]
    with tempfile.TemporaryDirectory() as scratch:
        start, nodes = time.monotonic(), sorted({entry["test"] for entry in mutants})
        broken = _unmutated(nodes, Path(scratch) / "unmutated") if nodes else []
        print(f"unmutated: {len(nodes)} killing nodes, {len(broken) or 'none'} failing"
              f" ({time.monotonic() - start:.1f}s)")
        failures += broken
        replayed = mutants if not broken else []    # a node that fails already kills nothing
        start, workers = time.monotonic(), os.cpu_count() or 1
        with ThreadPoolExecutor(workers) as pool:   # map yields in list order
            results = pool.map(_replay, replayed, [Path(scratch) / entry["id"] for entry in replayed])
            for entry, (why, seconds) in zip(replayed, results):
                print(f"{entry['id']}: {'killed' if why is None else 'SURVIVED, ' + why} ({seconds:.1f}s)")
                if why is not None:
                    failures.append(f"{entry['id']}: {why}")
        print(f"replays: {len(replayed)} on {workers} workers ({time.monotonic() - start:.1f}s)")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
