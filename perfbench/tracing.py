"""Spans around the calls into each layer, recorded from outside the program.

The wrappers replace the names that callers actually look up at call time:
`cli` imported `sweep`, `teleport_fidelity` and `default_t_grid` by name;
`robustness` calls its own module globals (`robustness`, the problem
builders, `trace_distance`) and `sdp.solve`; `sdp.solve` calls
`numpy.linalg.eigh`; the benchmark itself calls the package-level names.
`numpy.linalg.eigh` is counted, not spanned, and only while `sdp.solve` is
the innermost span.

Spans are (name, start, end, parent index), kept in memory per cycle.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable

import numpy

REPLAY_EVERY = 16       # every n-th solve is replayed with max_iters=0 after the cycle
MAX_REPLAYS = 64

# spans whose self time is the robustness layer's own work (search, prober, sweep loop)
ROBUSTNESS_SPANS = {
    "robustness.sweep",
    "robustness.robustness",
    "robustness.feasibility_q",
    "robustness.measurement_robustness",
}

EXPECTED = {
    "sweep-light": {
        "cli.main", "figures.default_t_grid", "robustness.sweep", "robustness.robustness",
        "robustness.build", "sdp.solve", "numpy.eigh", "channels.evaluate",
        "linalg.trace_distance", "witness.teleport_fidelity",
    },
    "sweep-heavy": {
        "cli.main", "figures.default_t_grid", "robustness.sweep", "robustness.robustness",
        "robustness.build", "sdp.solve", "numpy.eigh", "channels.evaluate",
        "linalg.trace_distance",
    },
    "pairs-refine": {
        "robustness.robustness", "robustness.feasibility_q", "robustness.measurement_robustness",
        "robustness.build", "sdp.solve", "numpy.eigh", "channels.evaluate",
    },
}


def _targets(cc) -> list[tuple[object, str, str]]:
    mods = sys.modules
    cli = mods["chancompat.cli"]
    rob = mods["chancompat.robustness"]
    sdp = mods["chancompat.sdp"]
    channels = mods["chancompat.channels"]
    return [
        (cli, "main", "cli.main"),
        (cli, "default_t_grid", "figures.default_t_grid"),
        (cli, "sweep", "robustness.sweep"),
        (cli, "teleport_fidelity", "witness.teleport_fidelity"),
        (rob, "robustness", "robustness.robustness"),
        (cc, "robustness", "robustness.robustness"),
        (cc, "feasibility_q", "robustness.feasibility_q"),
        (cc, "measurement_robustness", "robustness.measurement_robustness"),
        (rob, "channel_feasibility_problem", "robustness.build"),
        (rob, "measurement_feasibility_problem", "robustness.build"),
        (rob, "trace_distance", "linalg.trace_distance"),
        (sdp, "solve", "sdp.solve"),
        (channels.DynamicalMap, "evaluate", "channels.evaluate"),
    ]


class Tracer:
    def __init__(self, cc):
        self.cc = cc
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.iterations: list[int] = []
        self._replays: list[object] = []
        self.reset()

    def reset(self) -> None:
        """Forget the previous cycle; the wrappers keep their references."""
        self.spans.clear()
        self._stack.clear()
        self.iterations.clear()
        self._replays.clear()
        self.eigh_calls = 0
        self.eigh_s = 0.0
        self.nonoptimal = 0
        self.indeterminate = 0
        self._solves = 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            start = time.perf_counter()
            spans.append((name, start, start, parent))   # end filled in below
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_solve(self, args, sol) -> None:
        self.iterations.append(sol.iterations)
        self.nonoptimal += sol.status != "optimal"
        self._solves += 1
        if self._solves % REPLAY_EVERY == 0 and len(self._replays) < MAX_REPLAYS:
            self._replays.append(args[0])

    def _after_value(self, args, result) -> None:
        self.indeterminate += bool(result.indeterminate)

    def _eigh(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def eigh(*args, **kwargs):
            if not stack or spans[stack[-1]][0] != "sdp.solve":
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.eigh_s += time.perf_counter() - start
            self.eigh_calls += 1
            return out

        return eigh

    def install(self) -> None:
        """Patch every target; a missing one is an error, not a silent zero."""
        hooks = {
            "sdp.solve": self._after_solve,
            "robustness.robustness": self._after_value,
            "robustness.measurement_robustness": self._after_value,
        }
        for owner, attr, name in _targets(self.cc):
            fn = getattr(owner, attr)      # AttributeError names the moved call site
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hooks.get(name)))
        self._patches.append((numpy.linalg, "eigh", numpy.linalg.eigh))
        numpy.linalg.eigh = self._eigh(numpy.linalg.eigh)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- per-cycle numbers -----------------------------------------------------

    def replay_setup_ms(self, solve: Callable) -> float:
        """Median time of the sampled problems solved with max_iters=0: the
        solver's fixed cost per call (row reduction, KKT inverse, caches)."""
        times = []
        for problem in self._replays:
            start = time.perf_counter()
            solve(problem, max_iters=0)
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times) if times else 0.0

    def fired(self) -> set[str]:
        names = {s[0] for s in self.spans}
        if self.eigh_calls:
            names.add("numpy.eigh")
        return names

    def metrics(self, values: int, setup_ms: float) -> dict[str, float]:
        dur = {}
        count = {}
        self_s = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            dur[name] = dur.get(name, 0.0) + end - start
            count[name] = count.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
        solves = count.get("sdp.solve", 0)
        builds = count.get("robustness.build", 0)
        iters = sum(self.iterations)
        solve_s = dur.get("sdp.solve", 0.0)
        ordered = sorted(self.iterations) or [0]
        return {
            "robustness.solves_per_value": solves / values,
            "robustness.resolve_ratio": solves / builds if builds else 0.0,
            "robustness.build_calls": builds,
            "robustness.build_s": dur.get("robustness.build", 0.0),
            "robustness.indeterminate": self.indeterminate,
            "robustness.self_s": sum(self_s.get(n, 0.0) for n in ROBUSTNESS_SPANS),
            "sdp.solves": solves,
            "sdp.iters": iters,
            "sdp.iters_per_solve_p50": statistics.median(ordered),
            "sdp.iters_per_solve_p99": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
            "sdp.iters_per_solve_max": ordered[-1],
            "sdp.nonoptimal": self.nonoptimal,
            "sdp.solve_s": solve_s,
            "sdp.us_per_iter": 1e6 * solve_s / iters if iters else 0.0,
            "sdp.eigh_calls": self.eigh_calls,
            "sdp.eigh_s": self.eigh_s,
            "sdp.eigh_share": self.eigh_s / solve_s if solve_s else 0.0,
            "sdp.setup_ms_per_solve": setup_ms,
            "channels.evaluate_calls": count.get("channels.evaluate", 0),
            "channels.evaluate_s": dur.get("channels.evaluate", 0.0),
            "linalg.trace_distance_s": dur.get("linalg.trace_distance", 0.0),
            "witness.teleport_calls": count.get("witness.teleport_fidelity", 0),
            "witness.teleport_s": dur.get("witness.teleport_fidelity", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
        }
