"""Small dense semidefinite programming by operator splitting.

Problems are affine equality constraints over a product of PSD matrix blocks
and free scalars, with a linear objective:

    min/max  sum_k <F_k, X_k> + sum_s g_s t_s
    s.t.     affine equalities,  X_k >= 0.

Each Hermitian block is parametrized by an isometric real coordinate vector
(diagonal, then sqrt(2) * real and sqrt(2) * imaginary upper-triangular
parts), so every constraint compiles once to real scalar equalities: a d x d
matrix equality contributes d(d+1)/2 real-part and d(d-1)/2 imaginary-part
rows. Blocks declared real use the symmetric restriction of the same
coordinates.

The solver alternates projection onto the affine subspace (through an
orthonormal basis of the constraint rows from one pivoted QR, which also
drops linearly dependent rows) and projection onto the PSD cone (eigenvalue
clipping), with over-relaxation. The penalty rho enters no factorization, so
it is rebalanced between the primal and dual residuals as the iteration runs.
Iteration order is fixed, so identical problems replay bitwise identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np
import scipy.linalg as sla

from .linalg import is_hermitian

DEFAULT_MAX_ITERS = 100_000
DEFAULT_EPS = 1e-8
OVER_RELAXATION = 1.5
RHO = 0.1                 # initial penalty; rebalanced while iterating
RHO_MIN, RHO_MAX = 1e-6, 1e6
RHO_BALANCE = 10.0        # residual ratio that triggers a 2x penalty change
CHECK_EVERY = 25
DIM_GUARD = 64

_SQRT2 = np.sqrt(2.0)


class SdpBuildError(ValueError):
    """Malformed problem detected before iteration starts."""


# ---------------------------------------------------------------------------
# Real coordinates for Hermitian / symmetric matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _triu(d: int):
    return np.triu_indices(d, 1)

def vec_size(d: int, real: bool = False) -> int:
    return d * (d + 1) // 2 if real else d * d


def pack(h: np.ndarray, real: bool = False) -> np.ndarray:
    """Isometric real coordinates of a Hermitian (or real symmetric) matrix."""
    d = h.shape[0]
    iu = _triu(d)
    off = h[iu]
    if real:
        return np.concatenate([np.diag(h).real, _SQRT2 * off.real])
    return np.concatenate([np.diag(h).real, _SQRT2 * off.real, _SQRT2 * off.imag])


def unpack(v: np.ndarray, d: int, real: bool = False) -> np.ndarray:
    """Inverse of pack."""
    iu = _triu(d)
    m = d * (d - 1) // 2
    if real:
        h = np.zeros((d, d))
        h[np.diag_indices(d)] = v[:d]
        h[iu] = v[d:] / _SQRT2
        return h + np.triu(h, 1).T
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = v[:d]
    h[iu] = (v[d : d + m] + 1j * v[d + m :]) / _SQRT2
    return h + np.triu(h, 1).conj().T


@lru_cache(maxsize=None)
def _coord_map(d: int, real: bool) -> np.ndarray:
    """Columns are the flattened basis matrices of the pack coordinates, so
    unpacking is one matvec and packing is one matvec with the adjoint."""
    size = vec_size(d, real)
    u = np.zeros((d * d, size), dtype=float if real else complex)
    e = np.zeros(size)
    for a in range(size):
        e[a] = 1.0
        u[:, a] = unpack(e, d, real).ravel()
        e[a] = 0.0
    return u


def linear_map_matrix(
    fn: Callable[[np.ndarray], np.ndarray], d_in: int, d_out: int, real: bool = False
) -> np.ndarray:
    """Matrix of a hermiticity-preserving linear map in pack coordinates:
    column a packs fn of the a-th basis matrix of _coord_map."""
    basis = _coord_map(d_in, real)
    out = np.zeros((vec_size(d_out, real), basis.shape[1]))
    for a in range(basis.shape[1]):
        out[:, a] = pack(fn(basis[:, a].reshape(d_in, d_in)), real)
    return out


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    name: str
    dim: int
    real: bool
    offset: int
    size: int


class SdpProblem:
    """Incrementally built conic program over PSD blocks and free scalars."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        self._scalars: dict[str, int] = {}
        self._n = 0
        self._rows: list[np.ndarray] = []
        self._rhs: list[float] = []
        self._sense = "min"
        self._objective: np.ndarray | None = None

    # -- variables ---------------------------------------------------------

    def add_psd_block(self, name: str, dim: int, real: bool = False) -> None:
        if name in self._blocks or name in self._scalars:
            raise SdpBuildError(f"duplicate variable name {name!r}")
        if self._rows or self._objective is not None:
            raise SdpBuildError("declare all variables before constraints and objective")
        blk = _Block(name, dim, real, self._n, vec_size(dim, real))
        self._blocks[name] = blk
        self._n += blk.size

    def add_scalar(self, name: str) -> None:
        if name in self._blocks or name in self._scalars:
            raise SdpBuildError(f"duplicate variable name {name!r}")
        if self._rows or self._objective is not None:
            raise SdpBuildError("declare all variables before constraints and objective")
        self._scalars[name] = self._n
        self._n += 1

    @property
    def n_vars(self) -> int:
        return self._n

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    def embedded_dimension(self) -> int:
        """Total dimension of the PSD cone in real-embedded terms."""
        return sum(b.dim if b.real else 2 * b.dim for b in self._blocks.values())

    # -- coefficient validation --------------------------------------------

    def _block(self, name: str) -> _Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise SdpBuildError(f"unknown block {name!r}") from None

    def _coeff_vector(self, blk: _Block, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat)
        if mat.shape != (blk.dim, blk.dim):
            raise SdpBuildError(
                f"coefficient for block {blk.name!r} must be {blk.dim}x{blk.dim}, got {mat.shape}"
            )
        if not is_hermitian(mat):
            raise SdpBuildError(f"coefficient for block {blk.name!r} must be Hermitian")
        if blk.real and np.max(np.abs(np.asarray(mat).imag)) > 0:
            raise SdpBuildError(f"block {blk.name!r} is real; coefficient must be real")
        return pack(mat, blk.real)

    # -- objective and constraints ------------------------------------------

    def set_objective(
        self,
        sense: str,
        block_mats: Mapping[str, np.ndarray] | None = None,
        scalar_coeffs: Mapping[str, float] | None = None,
    ) -> None:
        if sense not in ("min", "max"):
            raise SdpBuildError(f"objective sense must be 'min' or 'max', got {sense!r}")
        c = np.zeros(self._n)
        for name, mat in (block_mats or {}).items():
            blk = self._block(name)
            c[blk.offset : blk.offset + blk.size] = self._coeff_vector(blk, mat)
        for name, g in (scalar_coeffs or {}).items():
            if name not in self._scalars:
                raise SdpBuildError(f"unknown scalar {name!r}")
            c[self._scalars[name]] = g
        self._sense = sense
        self._objective = c

    def add_scalar_equality(
        self,
        block_mats: Mapping[str, np.ndarray] | None = None,
        scalar_coeffs: Mapping[str, float] | None = None,
        rhs: float = 0.0,
    ) -> None:
        """Single real equality sum_k <F_k, X_k> + sum_s g_s t_s = rhs."""
        row = np.zeros(self._n)
        for name, mat in (block_mats or {}).items():
            blk = self._block(name)
            row[blk.offset : blk.offset + blk.size] = self._coeff_vector(blk, mat)
        for name, g in (scalar_coeffs or {}).items():
            if name not in self._scalars:
                raise SdpBuildError(f"unknown scalar {name!r}")
            row[self._scalars[name]] = g
        self._rows.append(row)
        self._rhs.append(float(rhs))

    def add_matrix_equality(
        self,
        block_ops: Mapping[str, np.ndarray | float],
        scalar_mats: Mapping[str, np.ndarray] | None = None,
        rhs: np.ndarray | None = None,
    ) -> None:
        """Hermitian matrix equality sum_k T_k(X_k) + sum_s t_s G_s = rhs.

        Block operators are given as a matrix acting on pack coordinates (see
        linear_map_matrix) or a plain float (meaning that multiple of the
        identity map; block and rhs dimensions must then agree). Compiles to
        one row per rhs pack coordinate.
        """
        rhs = np.asarray(rhs)
        d_out = rhs.shape[0]
        if rhs.shape != (d_out, d_out) or not is_hermitian(rhs):
            raise SdpBuildError("matrix equality rhs must be square and Hermitian")
        real_out = all(self._block(n).real for n in block_ops)
        if real_out and np.max(np.abs(rhs.imag)) > 0:
            raise SdpBuildError("rhs must be real when all participating blocks are real")
        p = vec_size(d_out, real_out)
        seg = np.zeros((p, self._n))
        for name, op in block_ops.items():
            blk = self._block(name)
            if np.isscalar(op):
                if blk.dim != d_out:
                    raise SdpBuildError(
                        f"scalar operator on block {blk.name!r} needs matching dimensions"
                    )
                op = float(op) * np.eye(blk.size)
            else:
                op = np.asarray(op, dtype=float)
            if op.shape != (p, blk.size):
                raise SdpBuildError(
                    f"operator for block {name!r} must be {p}x{blk.size}, got {op.shape}"
                )
            seg[:, blk.offset : blk.offset + blk.size] = op
        for name, mat in (scalar_mats or {}).items():
            if name not in self._scalars:
                raise SdpBuildError(f"unknown scalar {name!r}")
            mat = np.asarray(mat)
            if mat.shape != (d_out, d_out) or not is_hermitian(mat):
                raise SdpBuildError(f"matrix coefficient of scalar {name!r} must be Hermitian {d_out}x{d_out}")
            seg[:, self._scalars[name]] = pack(mat, real_out)
        b_seg = pack(rhs, real_out)
        for j in range(p):
            self._rows.append(seg[j])
            self._rhs.append(float(b_seg[j]))

    # -- export --------------------------------------------------------------

    def system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        """Compiled (A, b, c, sense). c is zero when no objective was set."""
        a = np.array(self._rows) if self._rows else np.zeros((0, self._n))
        b = np.array(self._rhs)
        c = np.zeros(self._n) if self._objective is None else self._objective
        return a, b, c, self._sense


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass
class SdpSolution:
    status: str
    objective_value: float
    block_values: dict[str, np.ndarray]
    scalar_values: dict[str, float]
    primal_residual: float
    dual_residual: float
    iterations: int


def _max_iters_default() -> int:
    env = os.environ.get("SOLVER_MAX_ITERS")
    return int(env) if env else DEFAULT_MAX_ITERS


def solve(problem: SdpProblem, max_iters: int | None = None) -> SdpSolution:
    """Run the splitting iteration on a compiled problem.

    Status "optimal": consensus and dual residuals below DEFAULT_EPS plus a
    relative term of the same size. Otherwise "max_iterations", also for a
    program with no feasible point (every program this library builds has
    one). Every CHECK_EVERY iterations rho is doubled or halved when one
    residual exceeds the other tenfold. Problems whose embedded PSD
    dimension exceeds DIM_GUARD are rejected before iterating.
    """
    if max_iters is None:
        max_iters = _max_iters_default()
    if problem.embedded_dimension() > DIM_GUARD:
        raise SdpBuildError(
            f"embedded PSD dimension {problem.embedded_dimension()} exceeds guard {DIM_GUARD}"
        )
    a_full, b_full, c, sense = problem.system()
    n = problem.n_vars
    c_min = -c if sense == "max" else c

    # row normalization, then an orthonormal basis q of the row space from a
    # pivoted QR: the independent rows satisfy a_n[piv] = r^T q^T, so
    # a_n x = b_n is q^T x = b_hat and dependent rows drop out
    norms = np.linalg.norm(a_full, axis=1)
    norms[norms == 0] = 1.0
    a_n = a_full / norms[:, None]
    b_n = b_full / norms
    q, b_hat = np.zeros((n, 0)), np.zeros(0)
    if a_n.shape[0]:
        q, r, piv = sla.qr(a_n.T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > max(a_n.shape) * 1e-12 * diag[0])) if diag.size else 0
        q = q[:, :rank]
        b_hat = sla.solve_triangular(r[:rank, :rank], b_n[piv[:rank]], trans="T")

    # the equality-constrained proximal step projects z - u - c/rho onto the
    # affine set; the objective enters through its part orthogonal to the rows
    offset = q @ b_hat
    c_perp = c_min - q @ (q.T @ c_min)

    blocks = list(problem._blocks.values())
    spans = [
        (blk.offset, blk.offset + blk.size, blk.dim, _coord_map(blk.dim, blk.real))
        for blk in blocks
    ]
    rho = RHO
    z, u = np.zeros(n), np.zeros(n)

    status = "max_iterations"
    iterations = max_iters
    dual_res = np.inf
    x = z

    for it in range(1, max_iters + 1):
        zu = z - u
        x = zu - q @ (q.T @ zu) + offset - c_perp / rho
        xh = OVER_RELAXATION * x + (1 - OVER_RELAXATION) * z
        z_prev = z
        v = xh + u
        z = v.copy()
        for lo, hi, d, cmap in spans:
            h = (cmap @ v[lo:hi]).reshape(d, d)
            w, vec = np.linalg.eigh(h)
            if w[0] >= 0:
                continue
            np.maximum(w, 0.0, out=w)
            proj = (vec * w) @ vec.conj().T
            z[lo:hi] = (cmap.conj().T @ proj.ravel()).real
        u = u + xh - z

        if it % CHECK_EVERY == 0:
            rp = np.linalg.norm(x - z)
            rd = rho * np.linalg.norm(z - z_prev)
            ep = DEFAULT_EPS + DEFAULT_EPS * max(np.linalg.norm(x), np.linalg.norm(z))
            ed = DEFAULT_EPS + DEFAULT_EPS * rho * np.linalg.norm(u)
            if rp <= ep and rd <= ed:
                status, iterations, dual_res = "optimal", it, rd
                break
            # residual balancing; u is the dual scaled by 1/rho
            if rp > RHO_BALANCE * rd or rd > RHO_BALANCE * rp:
                new_rho = min(max(rho * (2.0 if rp > rd else 0.5), RHO_MIN), RHO_MAX)
                u *= rho / new_rho
                rho = new_rho

    block_values = {
        blk.name: unpack(z[blk.offset : blk.offset + blk.size], blk.dim, blk.real)
        for blk in blocks
    }
    scalar_values = {s: float(x[o]) for s, o in problem._scalars.items()}
    full = z.copy()
    for s, o in problem._scalars.items():
        full[o] = x[o]
    primal = float(np.max(np.abs(a_full @ full - b_full))) if a_full.shape[0] else 0.0
    obj = float(c @ full)
    return SdpSolution(
        status=status,
        objective_value=obj,
        block_values=block_values,
        scalar_values=scalar_values,
        primal_residual=primal,
        dual_residual=float(dual_res),
        iterations=iterations,
    )
