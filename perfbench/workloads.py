"""The benchmark's workloads: what one cycle runs and the inputs it makes.

A cycle is the fixed unit of work of a workload. It returns one `Value` per
robustness value it produced; the checker in `check.py` judges them and the
runner times whole cycles. Every workload is a closed loop with one caller
in one process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DR = 0.005              # robustness grid step of the figures and of every call here
LAM = 0.5               # figure defaults, used only by the closed-form oracle
OMEGA = 5 * math.pi
CLOSURE_BUMP = 0.05     # feasibility_q is probed at r* + CLOSURE_BUMP


@dataclass
class Value:
    """One robustness value as the program returned it.

    `refined` values are compared with the reference to 1e-5, grid values to
    one grid step. `aux` holds other numbers produced with the value (CSV
    columns, q at r* + 0.05) and `weights` the depolarizing shrink factors
    (w1, w2) where the closed form applies.
    """

    key: str
    r: float | None = None
    refined: bool = False
    flagged: bool = False
    error: str | None = None
    aux: dict[str, float] = field(default_factory=dict)
    weights: tuple[float, float] | None = None


def _depolarizing_weights(fig: int, t: float) -> tuple[float, float] | None:
    """Shrink factors of the two maps of figures 1 and 7, else None."""
    w_div = math.exp(-LAM * t)
    if fig == 1:
        return w_div, w_div
    if fig == 7:
        return 1.0, w_div * math.cos(OMEGA * t) ** 2
    return None


_FLAGGED_T = re.compile(r"indeterminate.*?\[([^\]]*)\]", re.S)


class SweepWorkload:
    """Built-in figures through `cli.main(["figure", ...])`, CSV to a file.

    The figure inputs are fixed; the seed only rotates the order in which
    the figures run within a cycle. A row the CLI reports as indeterminate
    (exit code 1 and the t list on stderr) leaves both of its values
    unsettled, as the CLI does not say which noise class stalled.
    """

    def __init__(self, name: str, figures: tuple[int, ...], t_step: float | None):
        self.name = name
        self.figures = figures
        self.t_step = t_step
        self.order = figures
        self.workdir: Path | None = None

    def t_grid(self) -> list[float]:
        step = 0.01 if self.t_step is None else self.t_step
        return [round(k * step, 12) for k in range(int(math.floor(1.0 / step + 1e-9)) + 1)]

    def prepare(self, seed: int, workdir: Path, api) -> None:
        shift = seed % len(self.figures)
        self.order = self.figures[shift:] + self.figures[:shift]
        self.workdir = workdir

    def cycle(self, api) -> list[Value]:
        values: list[Value] = []
        for fig in self.order:
            values += self._figure(api, fig)
        return values

    def _figure(self, api, fig: int) -> list[Value]:
        grid = self.t_grid()
        keys = [(t, col) for t in grid for col in ("generic", "cd")]
        path = self.workdir / f"fig{fig}.csv"
        path.unlink(missing_ok=True)
        argv = ["figure", "--id", str(fig), "--output", str(path)]
        if self.t_step is not None:
            argv += ["--t-step", repr(self.t_step)]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = api.cli.main(argv)
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every failure is counted
            return [Value(f"fig{fig}/t={t:.9g}/{col}", error=repr(exc)) for t, col in keys]
        if rc not in (0, 1) or len(rows) != len(grid):
            problem = f"exit code {rc}, {len(rows)} rows for {len(grid)} grid points"
            return [Value(f"fig{fig}/t={t:.9g}/{col}", error=problem) for t, col in keys]
        flagged = set()
        if rc == 1:
            match = _FLAGGED_T.search(err.getvalue())
            items = match.group(1).split(",") if match else []
            flagged = {round(float(x), 9) for x in items if x.strip()} or set(grid)
        values = []
        for t, row in zip(grid, rows):
            if abs(float(row["t"]) - t) > 1e-9:
                values += [Value(f"fig{fig}/t={t:.9g}/{col}", error=f"row t={row['t']}") for col in ("generic", "cd")]
                continue
            aux = {k: float(v) for k, v in row.items() if k not in ("t", "r_generic", "r_cd")}
            for col in ("generic", "cd"):
                values.append(
                    Value(
                        f"fig{fig}/t={t:.9g}/{col}",
                        r=float(row[f"r_{col}"]),
                        flagged=round(t, 9) in flagged,
                        aux=dict(aux),
                        weights=_depolarizing_weights(fig, t) if col == "cd" else None,
                    )
                )
        return values


# ---------------------------------------------------------------------------
# Seeded channel and measurement inputs
# ---------------------------------------------------------------------------

PANEL_SEED = 230910806
PANEL_NOISE = (0.25, 0.35, 0.45, 0.55)
MEASUREMENT_TIMES = (0.0, 0.02, 0.05, 0.08)


def random_unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_choi(rng: np.random.Generator, din: int = 2, dout: int = 2) -> np.ndarray:
    """Choi matrix of a random CPTP map: a Ginibre PSD matrix whose input
    marginal is whitened to the identity."""
    d = din * dout
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = g @ g.conj().T
    marg = np.einsum("ikjk->ij", c.reshape(din, dout, din, dout))
    w, v = np.linalg.eigh(marg)
    fix = np.kron((v / np.sqrt(w)) @ v.conj().T, np.eye(dout))
    return fix @ c @ fix.conj().T


def noisy_unitary_choi(rng: np.random.Generator, noise: float) -> np.ndarray:
    """(1 - noise) * random unitary channel + noise * random channel (qubit)."""
    u = random_unitary(rng)
    vec = np.concatenate([u[:, 0], u[:, 1]])   # sum_i |i> (x) U|i>
    return (1 - noise) * np.outer(vec, vec.conj()) + noise * random_choi(rng)


def rotate_choi(choi: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Choi matrix of rho -> V L(U rho U^dag) V^dag for qubit unitaries U, V."""
    k = np.kron(u.T, v)
    return k @ choi @ k.conj().T


class PairsWorkload:
    """Refined robustness of random complex channel pairs and measurement pairs.

    A fixed panel of channel pairs and measurement bases comes from
    PANEL_SEED. The run seed draws local unitaries: a common input unitary
    and one output unitary per channel, and one unitary for each measurement
    pair. Robustness is invariant under them, so every seed gets new inputs
    with the same values and the same amount of solver work.
    """

    name = "pairs-refine"

    def __init__(self):
        self.pairs = []
        self.bases = []

    def prepare(self, seed: int, workdir: Path, api) -> None:
        panel = np.random.default_rng(PANEL_SEED)
        chois = [(noisy_unitary_choi(panel, s), noisy_unitary_choi(panel, s)) for s in PANEL_NOISE]
        bases = [(random_unitary(panel), random_unitary(panel)) for _ in MEASUREMENT_TIMES]
        rng = np.random.default_rng(seed)
        self.pairs = []
        for c1, c2 in chois:
            u, v1, v2 = (random_unitary(rng) for _ in range(3))
            self.pairs.append(
                (api.cc.Channel(2, 2, rotate_choi(c1, u, v1)), api.cc.Channel(2, 2, rotate_choi(c2, u, v2)))
            )
        self.bases = []
        for b1, b2 in bases:
            v = random_unitary(rng)
            self.bases.append((v @ b1, v @ b2))

    def cycle(self, api) -> list[Value]:
        cc = api.cc
        values = []
        for k, (ch1, ch2) in enumerate(self.pairs):
            for noise in ("generic", "cd"):
                value = Value(f"pair{k}/{noise}", refined=True)
                try:
                    res = cc.robustness(ch1, ch2, noise, refine=True)
                    value.r = res.r_star
                    value.flagged = bool(res.indeterminate)
                    value.aux["q_plus"] = cc.feasibility_q(ch1, ch2, res.r_star + CLOSURE_BUMP, noise)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    value.error = repr(exc)
                values.append(value)
        d1 = cc.depolarizing_map(LAM)
        d2 = cc.depolarizing_map(LAM, OMEGA)
        for k, (t, (b1, b2)) in enumerate(zip(MEASUREMENT_TIMES, self.bases)):
            value = Value(f"meas{k}/generic", refined=True)
            try:
                m1 = cc.pushforward_povm(d1.evaluate(t), cc.projective_povm(b1))
                m2 = cc.pushforward_povm(d2.evaluate(t), cc.projective_povm(b2))
                res = cc.measurement_robustness(m1, m2)
                value.r = res.r_star
                value.flagged = bool(res.indeterminate)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                value.error = repr(exc)
            values.append(value)
        return values


def make(name: str):
    if name == "sweep-light":
        return SweepWorkload(name, (1, 7), None)
    if name == "sweep-heavy":
        return SweepWorkload(name, (5, 6), 0.14)
    if name == "pairs-refine":
        return PairsWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-light", "sweep-heavy", "pairs-refine")


def warm(name: str, cc) -> None:
    """The first program calls of a workload, filling its lazy caches.

    Public calls only: one converged probe per problem shape the workload
    solves (real qubit pairs for the sweeps; complex pairs and measurement
    pairs for pairs-refine), both noise classes.
    """
    if name.startswith("sweep"):
        ident = cc.identity_channel(2)
        pair = (ident, ident)
    else:
        choi = noisy_unitary_choi(np.random.default_rng(PANEL_SEED), PANEL_NOISE[0])
        pair = (cc.Channel(2, 2, choi), cc.Channel(2, 2, choi))
        meas = cc.projective_povm(random_unitary(np.random.default_rng(PANEL_SEED)))
        cc.measurement_robustness(meas, meas)
    for noise in ("generic", "cd"):
        cc.feasibility_q(*pair, 1.0, noise)
