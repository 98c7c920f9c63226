"""Generate the single-operator mutants of named functions and run Tier-1 on each.

A mutant swaps one operator inside one named function of a source file
(nested functions and lambdas included): + and -, * and /, < and <=, > and
>=, in binary operations, augmented assignments and comparisons. Each
mutant is planted in a temporary copy of src/, tests/, perfbench/ and
pyproject.toml (tests/run_mutants.py's copy) and runs the whole Tier-1
suite there with -x, the test module named after the mutated file first.
The suite first runs once unmutated and must pass. Mutants run
concurrently, one per CPU, each with OpenBLAS held to one thread.

Progress goes to stderr. The survivors go to stdout as a JSON list of
tests/data/mutants.json entries (id, file, old, new), where old is the
mutated source line, extended to the following lines until it occurs once
in its file (an operator whose text never does is skipped). Each needs a
killing test (its "test") or a measured "reason" under "exempt" before it
joins the list. A sweep takes minutes, so CI
replays only the curated list (tests/run_mutants.py).

    python tests/mutant_sweep.py FILE:FUNCTION[,FUNCTION...] [...]
    python tests/mutant_sweep.py src/chancompat/witness.py:rising_segments,teleport_fidelity
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run_mutants import ROOT, _pytest, _unmutated

SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _operators(tree: ast.AST):
    """(op, end of the left operand, start of the right one) for every swappable operator under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node.op, node.left, node.right
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield node.op, node.target, node.value
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield op, operands[k], operands[k + 1]


def mutants(file: str, functions: set[str]) -> list[dict]:
    """The mutants of the named functions of file, as mutants.json entries."""
    text = (ROOT / file).read_text()
    data = text.encode()
    lines = data.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:   # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    entries, found = [], set()
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name not in functions:
            continue
        found.add(fn.name)
        for op, left, right in sorted(_operators(fn), key=lambda o: (o[1].end_lineno, o[1].end_col_offset)):
            token, swapped = SWAPS[type(op)]
            lo, hi = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
            rest = data[lo:hi].lstrip(b" ()\t\n\\")
            if not rest.startswith(token.encode()):
                print(f"skipped {file}:{left.end_lineno}: {token!r} is not next in {data[lo:hi]!r}", file=sys.stderr)
                continue
            at = hi - len(rest)
            first = last = next(k for k in range(len(lines)) if starts[k + 1] > at)
            while True:
                begin = starts[first] + len(lines[first]) - len(lines[first].lstrip())
                end = starts[last] + len(lines[last].rstrip(b"\n"))
                old = data[begin:end].decode()
                if text.count(old) == 1 or last + 1 == len(lines):
                    break
                last += 1
            if text.count(old) != 1:   # a replace would mutate every occurrence
                print(f"skipped {file}:{first + 1}: no text from there on occurs once", file=sys.stderr)
                continue
            new = (data[begin:at] + swapped.encode() + data[at + len(token):end]).decode()
            entries.append({"id": f"{Path(file).stem}-{fn.name}-L{first + 1}-{NAMES[token]}-to-{NAMES[swapped]}",
                            "file": file, "old": old, "new": new})
    missing = functions - found
    if missing:
        raise SystemExit(f"{file} defines no function named {', '.join(sorted(missing))}")
    seen = {}
    for entry in entries:   # one line can hold two operators of one kind
        seen[entry["id"]] = seen.get(entry["id"], 0) + 1
        if seen[entry["id"]] > 1:
            entry["id"] += f"-{seen[entry['id']]}"
    return entries


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="FILE:FUNCTION[,FUNCTION...]")
    args = parser.parse_args(argv)
    entries = []
    for target in args.targets:
        file, _, names = target.partition(":")
        entries += mutants(file, set(filter(None, names.split(","))))
    print(f"{len(entries)} mutants", file=sys.stderr)
    with tempfile.TemporaryDirectory() as scratch:
        start = time.monotonic()
        broken = _unmutated(["-x", "tests"], Path(scratch) / "unmutated")
        if broken:
            print("\n".join(broken), file=sys.stderr)
            return 1
        print(f"unmutated Tier-1 passes ({time.monotonic() - start:.1f}s)", file=sys.stderr)

        def run(entry: dict) -> tuple[int, float]:
            began, first = time.monotonic(), f"tests/test_{Path(entry['file']).stem}.py"
            modules = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "tests").glob("test_*.py"))
            nodes = ["-x", *sorted(modules, key=lambda module: module != first)]   # a stable sort
            return _pytest(Path(scratch) / entry["id"], nodes, entry).returncode, time.monotonic() - began

        survivors = []
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:   # map yields in list order
            for entry, (status, seconds) in zip(entries, pool.map(run, entries)):
                verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exited {status}")
                print(f"{entry['id']}: {verdict} ({seconds:.1f}s)", file=sys.stderr)
                if status == 0:
                    survivors.append(entry)
        print(f"{len(survivors)} of {len(entries)} survived ({time.monotonic() - start:.1f}s)", file=sys.stderr)
    print(json.dumps(survivors, indent=1, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
