"""Replay the planted mutants of tests/data/mutants.json.

Each listed mutant replaces the one occurrence of its old text with its new
text in a temporary copy of src/ (next to copies of tests/ and
pyproject.toml, so that pytest imports the copy), runs only its killing
test node there, and must make that node fail (pytest exit status 1; an
error, a missing node or a pass do not count). Before any mutant is
planted, the killing nodes run once together on an unmutated copy and must
all pass, so that no node kills by failing already. Each exempt mutant is
only checked to still apply to the source, so that the list follows the code.

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py ID [ID...] # only these

Exits 0 when every listed mutant is killed and every entry applies.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
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
                          cwd=tree, capture_output=True, text=True)


def _unmutated(nodes: list[str], tree: Path) -> list[str]:
    """Run the killing nodes together on an unmutated copy at tree: why each failing one fails."""
    run = _pytest(tree, nodes)
    if run.returncode == 0:
        return []
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return [f"unmutated: {line}" for line in failed] or [f"unmutated: pytest exited {run.returncode}"]


def _killed(entry: dict, tree: Path) -> str | None:
    """Plant entry in a copy at tree and run its node there: why it survived, or None."""
    status = _pytest(tree, [entry["test"]], entry).returncode
    return None if status == 1 else f"{entry['test']} exited {status}, not 1"


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
        for entry in mutants if not broken else ():    # a node that fails already kills nothing
            start = time.monotonic()
            why = _applies(entry) or _killed(entry, Path(scratch) / entry["id"])
            print(f"{entry['id']}: {'killed' if why is None else 'SURVIVED, ' + why}"
                  f" ({time.monotonic() - start:.1f}s)")
            if why is not None:
                failures.append(f"{entry['id']}: {why}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
