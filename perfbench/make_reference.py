"""Write reference.json: every value one cycle of each workload produces.

    python3 perfbench/make_reference.py

The stored values are what the program computed when the benchmark was
defined. Regenerate only in a change that means to move values, and say so.
"""

import json
import os
import shutil

import check
import run
import workloads


def main() -> None:
    api = run.load_program()
    values = {}
    for name in workloads.NAMES:
        workload = workloads.make(name)
        workdir = run.OUT / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.prepare(0, workdir, api)
            cycle = workload.cycle(api)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        errors = [v.key for v in cycle if v.error is not None]
        if errors:
            raise SystemExit(f"{name}: values raised, no reference written: {errors}")
        for v in cycle:
            aux = {k: x for k, x in v.aux.items() if k != "q_plus"}
            values[v.key] = {"r": v.r, "aux": aux} if aux else {"r": v.r}
        print(f"{name}: {len(cycle)} values")
    check.REFERENCE.write_text(dump(values))


def dump(values: dict) -> str:
    """JSON with one value per line, so a changed value is a one-line diff."""
    lines = [f"  {json.dumps(k)}: {json.dumps(values[k], sort_keys=True)}" for k in sorted(values)]
    return f'{{"dr": {workloads.DR!r}, "values": {{\n' + ",\n".join(lines) + "\n}}\n"


if __name__ == "__main__":
    main()
