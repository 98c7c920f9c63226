"""Set-up probe: import chancompat from ../src, make one workload's first
program calls, exit. run.py times this process from spawn to exit.

    python3 perfbench/probe.py sweep-light
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chancompat  # noqa: E402
import chancompat.cli  # noqa: E402,F401 - the CLI import is part of what users pay for

import workloads  # noqa: E402

workloads.warm(sys.argv[1], chancompat)
