"""Refine 300 random channel pairs and require every nonzero value to end
optimal within MAX_ITERATIONS steps, so that the slow tail of refined solves
stays gone.

The draw is fixed: from np.random.default_rng(SEED), each pair takes
dout = rng.choice([2, 3]) and then two random_channel(rng, 2, dout). Both
noise classes of every pair are refined from a cold start.

    python tests/refine_tail.py    # exits 1 and names each slow solve

A nonzero value that ends "bracketed" or "max_iterations", or takes more
than MAX_ITERATIONS steps, is a failure; a certified zero (r <= R_TOL)
stops on its bracket by design and is not checked.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chancompat.robustness import NoiseClass, robustness  # noqa: E402
from chancompat.validation import random_channel  # noqa: E402

SEED = 7
PAIRS = 300
MAX_ITERATIONS = 30


def draw_pairs(count: int = PAIRS) -> list:
    """The first count pairs (ch1, ch2) of the fixed draw."""
    rng, pairs = np.random.default_rng(SEED), []
    for _ in range(count):
        dout = int(rng.choice([2, 3]))
        pairs.append((random_channel(rng, 2, dout), random_channel(rng, 2, dout)))
    return pairs


def main() -> int:
    start = time.monotonic()
    results = [(k, noise, robustness(ch1, ch2, noise, refine=True))
               for k, (ch1, ch2) in enumerate(draw_pairs()) for noise in NoiseClass]
    nonzero = [(k, noise, res) for k, noise, res in results if res.r_star > 0]
    slow = [f"pair {k} {noise.value}: r {res.r_star:.11g}, {res.solution.status}"
            f" after {res.solution.iterations} iterations"
            for k, noise, res in nonzero
            if res.solution.status != "optimal" or res.solution.iterations > MAX_ITERATIONS]
    for line in slow:
        print(f"SLOW {line}", file=sys.stderr)
    steps = [res.solution.iterations for _, _, res in nonzero]
    print(f"{len(results)} refined values, {len(nonzero)} nonzero: iterations median"
          f" {np.median(steps):g}, max {max(steps)}; {len(slow)} slow"
          f" ({time.monotonic() - start:.1f}s)")
    return 1 if slow else 0


if __name__ == "__main__":
    sys.exit(main())
