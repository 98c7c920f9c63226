"""The benchmark's tracer wraps program names looked up at call time; these
calls must keep firing every span it expects, or its per-layer numbers
silently read zero. It also re-solves sampled problems with max_iters=0."""

import numpy as np

import chancompat
import chancompat.cli
from chancompat import sdp
from perfbench import tracing


def test_benchmark_call_sites_fire(tmp_path):
    tracer = tracing.Tracer(chancompat)
    solve = sdp.solve
    tracer.install()
    try:
        # 17 solves (2 certified CD zeros skip their generic solve), at least
        # REPLAY_EVERY = 16, so that at least one problem is kept for the replay
        code = chancompat.cli.main(
            ["figure", "--id", "7", "--t-step", "0.1", "-o", str(tmp_path / "f.csv")]
        )
        assert code == 0
        assert tracing.EXPECTED["sweep-light"] <= tracer.fired()
        assert tracer.replay_setup_ms(solve) > 0

        tracer.reset()
        d1, d2 = chancompat.depolarizing_map(0.5), chancompat.depolarizing_map(0.5, 5 * np.pi)
        ch1, ch2 = d1.evaluate(0.3), d2.evaluate(0.3)
        res = chancompat.robustness(ch1, ch2, "generic", refine=True)
        chancompat.feasibility_q(ch1, ch2, res.r_star + 0.05, "generic")
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        m1 = chancompat.pushforward_povm(ch1, chancompat.projective_povm(np.eye(2)))
        m2 = chancompat.pushforward_povm(ch2, chancompat.projective_povm(hadamard))
        chancompat.measurement_robustness(m1, m2)
        assert tracing.EXPECTED["pairs-refine"] <= tracer.fired()
    finally:
        tracer.uninstall()
