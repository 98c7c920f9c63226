"""Quantum channels as Choi matrices, and dynamical maps t -> channel.

Choi convention: C = sum_ij |i><j| (x) L(|i><j|), unnormalized (Tr C = din),
with subsystem order input (x) output. Complete positivity is C >= 0 and trace
preservation is Tr_out C = identity on the input factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import is_hermitian

CP_EIG_FLOOR = -1e-9
TP_TOL = 1e-9
POVM_EIG_FLOOR = -1e-10
POVM_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Channel:
    """CPTP map stored as an unnormalized Choi matrix."""

    din: int
    dout: int
    choi: np.ndarray

    def __post_init__(self):
        if not min(self.din, self.dout) >= 1:
            raise ValueError(f"din and dout must be at least 1, got din={self.din}, dout={self.dout}")
        d = self.din * self.dout
        if self.choi.shape != (d, d):
            raise ValueError(f"choi must be {d}x{d} for din={self.din}, dout={self.dout}")
        if not is_hermitian(self.choi):
            raise ValueError("choi matrix must be Hermitian")
        w = np.linalg.eigvalsh(self.choi)
        if w[0] < CP_EIG_FLOOR:
            raise ValueError(f"choi matrix is not PSD (min eigenvalue {w[0]:.3e}): map is not CP")
        marg = np.trace(self.choi.reshape(self.din, self.dout, self.din, self.dout), axis1=1, axis2=3)
        if np.max(np.abs(marg - np.eye(self.din))) > TP_TOL:
            raise ValueError("Tr_out(choi) != identity: map is not trace preserving")


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Act with the channel on a matrix: L(rho) = Tr_in[(rho^T (x) 1) C]."""
    if rho.shape != (ch.din, ch.din):
        raise ValueError(f"state must be {ch.din}x{ch.din}, got {rho.shape}")
    t = ch.choi.reshape(ch.din, ch.dout, ch.din, ch.dout)
    return np.einsum("ij,iajb->ab", rho, t)


def dual_apply(ch: Channel, effect: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action L*(E), defined by Tr[rho L*(E)] = Tr[L(rho) E]."""
    if effect.shape != (ch.dout, ch.dout):
        raise ValueError(f"effect must be {ch.dout}x{ch.dout}, got {effect.shape}")
    t = ch.choi.reshape(ch.din, ch.dout, ch.din, ch.dout)
    return np.einsum("jaib,ba->ij", t, effect)


def compose(after: Channel, before: Channel) -> Channel:
    """Choi matrix of after o before: the link product of the two Choi matrices."""
    if after.din != before.dout:
        raise ValueError(
            f"cannot compose: after.din={after.din} != before.dout={before.dout}"
        )
    c1 = before.choi.reshape(before.din, before.dout, before.din, before.dout)
    c2 = after.choi.reshape(after.din, after.dout, after.din, after.dout)
    d = before.din * after.dout
    return Channel(before.din, after.dout, np.einsum("iajb,acbd->icjd", c1, c2).reshape(d, d))


def identity_channel(d: int = 2) -> Channel:
    v = np.eye(d, dtype=complex).reshape(d * d)   # vec(1) = sum_i |i>|i>
    return Channel(d, d, np.outer(v, v))


def depolarizing_choi(w: float) -> Channel:
    """Qubit map rho -> w rho + (1-w) 1/2.

    CP requires -1/3 <= w <= 1; the time-parametrized families only use
    [0, 1], but the negative-shrink region is a legitimate noise channel.
    """
    if not -1 / 3 - 1e-12 <= w <= 1 + 1e-12:
        raise ValueError(f"depolarizing shrink factor w={w} outside CP range [-1/3, 1]")
    c = np.diag([(1 + w) / 2, (1 - w) / 2, (1 - w) / 2, (1 + w) / 2]).astype(complex)
    c[0, 3] = c[3, 0] = w
    return Channel(2, 2, c)


def amplitude_damping_choi(w: float) -> Channel:
    """Qubit amplitude damping with decay probability w (|1> -> |0>)."""
    if not 0 <= w <= 1 + 1e-12:
        raise ValueError(f"amplitude damping parameter w={w} outside [0, 1]")
    w = min(w, 1.0)
    c = np.diag([1.0, 0.0, w, 1 - w]).astype(complex)
    c[0, 3] = c[3, 0] = math.sqrt(1 - w)
    return Channel(2, 2, c)


def eternal_choi(t: float) -> Channel:
    """Qubit Pauli map that is CP-indivisible for all t > 0 yet shows no
    trace-distance backflow; a(t) = (1+exp(-2t))/2 and the corner weight
    b(t) = exp(-t) cosh(t) (the closed form of exp(-int_0^t (1-tanh x) dx)).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    a = (1 + math.exp(-2 * t)) / 2
    b = math.exp(-t) * math.cosh(t)
    c = np.diag([a, 1 - a, 1 - a, a]).astype(complex)
    c[0, 3] = c[3, 0] = b
    return Channel(2, 2, c)


@dataclass(frozen=True)
class DynamicalMap:
    """Time-parametrized channel family t -> channel_at(t).

    label names the map in reports; period, when set, is the oscillation
    period that a time grid must resolve.
    """

    label: str
    channel_at: Callable[[float], Channel]
    period: float | None = None

    def evaluate(self, t: float) -> Channel:
        """Channel at a finite time t >= 0."""
        if not 0 <= t < math.inf:
            raise ValueError(f"time must be nonnegative and finite, got {t}")
        return self.channel_at(t)


def _enveloped(label: str, rate: float, omega: float, channel_of: Callable[[float], Channel]) -> DynamicalMap:
    """t -> channel_of(exp(-rate t) cos^2(omega t)), with the envelope's period pi/|omega| (none at omega = 0)."""
    return DynamicalMap(label, lambda t: channel_of(math.exp(-rate * t) * math.cos(omega * t) ** 2),
                        math.pi / abs(omega) if omega else None)


def depolarizing_map(lam: float, omega: float = 0.0) -> DynamicalMap:
    """w(t) = exp(-lam t) cos^2(omega t); omega = 0 is the divisible map exp(-lam t)."""
    label = f"depolarizing(lam={lam:g}" + (f",omega={omega:g})" if omega else ")")
    return _enveloped(label, lam, omega, depolarizing_choi)


def amplitude_damping_map(alpha: float, omega: float) -> DynamicalMap:
    """Decay probability w(t) = 1 - exp(-alpha t) cos^2(omega t)."""
    label = f"amplitude_damping(alpha={alpha:g},omega={omega:g})"
    return _enveloped(label, alpha, omega, lambda e: amplitude_damping_choi(1 - e))


def eternal_map() -> DynamicalMap:
    return DynamicalMap("eternal", eternal_choi)


def identity_map() -> DynamicalMap:
    ident = identity_channel(2)
    return DynamicalMap("identity", lambda t: ident)


def constant_map(channel: Channel) -> DynamicalMap:
    """Time-independent map around a fixed channel, e.g. user-supplied Choi
    input. Note t = 0 is the channel itself, not the identity."""
    return DynamicalMap("constant", lambda t: channel)


@dataclass(frozen=True)
class Povm:
    """Finite-outcome measurement: PSD effects summing to 1, each check at least as tight as Channel's."""

    effects: tuple[np.ndarray, ...]
    dimension: int

    def __post_init__(self):
        if not self.dimension >= 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        object.__setattr__(self, "effects", tuple(np.asarray(e, dtype=complex) for e in self.effects))
        total = np.zeros((self.dimension, self.dimension), dtype=complex)
        for e in self.effects:
            if e.shape != (self.dimension, self.dimension):
                raise ValueError(f"effect shape {e.shape} != dimension {self.dimension}")
            if not is_hermitian(e):
                raise ValueError("POVM effects must be Hermitian")
            if np.linalg.eigvalsh(e)[0] < POVM_EIG_FLOOR:
                raise ValueError("POVM effects must be PSD")
            total += e
        if np.max(np.abs(total - np.eye(self.dimension))) > POVM_SUM_TOL:
            raise ValueError("POVM effects must sum to the identity")

    def __len__(self) -> int:
        return len(self.effects)


def projective_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective measurement onto the columns of a unitary."""
    d = basis.shape[0]
    if np.max(np.abs(basis.conj().T @ basis - np.eye(d))) > 1e-10:
        raise ValueError("basis columns must be orthonormal")
    effects = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(d))
    return Povm(effects, d)


def pushforward_povm(ch: Channel, m: Povm) -> Povm:
    """Heisenberg-picture image {L*(M(x))} of a measurement on the output space."""
    if m.dimension != ch.dout:
        raise ValueError("measurement dimension must match channel output dimension")
    return Povm(tuple(dual_apply(ch, e) for e in m.effects), ch.din)


def measurement_channel(m: Povm) -> Channel:
    """Quantum-classical channel rho -> sum_i Tr(E_i rho) |i><i|, whose Choi
    matrix is sum_i E_i^T (x) |i><i|."""
    outcomes = np.eye(len(m))
    choi = sum(np.kron(e.T, np.diag(outcomes[i])) for i, e in enumerate(m.effects))
    return Channel(m.dimension, len(m), choi)


def channel_from_json(text: str) -> Channel:
    data = json.loads(text)
    try:
        din, dout = data["din"], data["dout"]
        choi = np.array(data["choi_re"], dtype=float) + 1j * np.array(data["choi_im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    if type(din) is not int or type(dout) is not int:   # bool is an int subclass
        raise ValueError(f"malformed channel JSON: din and dout must be integers, got {din!r}, {dout!r}")
    return Channel(din, dout, choi)
