"""Small dense semidefinite programming by a primal-dual interior-point method.

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

The solver reduces the constraint rows to an orthonormal basis and follows
the central path with HKM predictor-corrector steps (Helmberg, Rendl,
Vanderbei and Wolkowicz; the Mehrotra corrector as in SDPT3), in about ten
iterations and with no tuning. It runs on numpy.linalg alone, in a fixed
order, so identical problems replay bitwise identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .linalg import is_hermitian

DEFAULT_MAX_ITERS = 100
DEFAULT_EPS = 1e-9        # relative residuals and gap; 1e-10 can break the Schur solve
BOUNDARY_FRACTION = 0.98  # share of the distance to the cone boundary that a step takes
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
    dual_objective: float


def _max_iters_default() -> int:
    env = os.environ.get("SOLVER_MAX_ITERS")
    return int(env) if env else DEFAULT_MAX_ITERS


def solve(problem: SdpProblem, max_iters: int | None = None) -> SdpSolution:
    """Solve a compiled problem by the interior-point method (see _step).

    The iteration starts infeasible, from X = Z = I, y = 0 and zero free
    scalars. Status "optimal": the relative primal and dual residuals and the
    relative duality gap are all at most DEFAULT_EPS. Otherwise
    "max_iterations": the cap was reached, or a step came out non-finite and
    the last finite iterate is returned; this is also how a program with no
    feasible point ends. objective_value is that of the primal iterate and
    dual_objective that of the dual one, both in the problem's sense.
    Problems whose embedded PSD dimension exceeds DIM_GUARD are rejected
    before iterating.
    """
    if max_iters is None:
        max_iters = _max_iters_default()
    if problem.embedded_dimension() > DIM_GUARD:
        raise SdpBuildError(
            f"embedded PSD dimension {problem.embedded_dimension()} exceeds guard {DIM_GUARD}"
        )
    a_full, b_full, c, sense = problem.system()
    sign = -1.0 if sense == "max" else 1.0
    c_min = sign * c
    # normalized rows, then orthonormal rows from an SVD whose singular values
    # below max(shape) * 1e-12 * s_0 drop out with the dependent rows
    norms = np.linalg.norm(a_full, axis=1)
    norms[norms == 0] = 1.0
    u, s, vt = np.linalg.svd(a_full / norms[:, None], full_matrices=False)
    rank = int(np.sum(s > max(a_full.shape) * 1e-12 * s[0])) if s.size else 0
    a, b = vt[:rank], (u[:, :rank].T @ (b_full / norms)) / s[:rank]
    m, n = a.shape

    spans = [
        (slice(blk.offset, blk.offset + blk.size), blk.dim, _coord_map(blk.dim, blk.real))
        for blk in problem._blocks.values()
    ]
    free = np.array(list(problem._scalars.values()), dtype=int)
    # the rows of a on each block as matrices: a[i, sl] @ pack(X) = <mats[i], X>
    mats = [(cmap @ a[:, sl].T).T.reshape(m, d, d) for sl, d, cmap in spans]
    n_cone = sum(d for _, d, _ in spans)

    x, y, z = np.zeros(n), np.zeros(m), np.zeros(n)
    for sl, d, _ in spans:     # pack(I): the diagonal coordinates come first
        x[sl.start : sl.start + d] = z[sl.start : sl.start + d] = 1.0
    status, iterations = "max_iterations", 0
    while True:
        rp = b - a @ x
        rd = c_min - a.T @ y - z
        pobj, dobj = c_min @ x, b @ y
        if max(
            np.linalg.norm(rp) / (1.0 + np.linalg.norm(b)),
            np.linalg.norm(rd) / (1.0 + np.linalg.norm(c_min)),
            abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        ) <= DEFAULT_EPS:
            status = "optimal"
            break
        if iterations == max_iters:
            break
        try:
            step = _step(x, y, z, rp, rd, a, free, spans, mats, n_cone)
        except np.linalg.LinAlgError:
            break
        if not all(np.all(np.isfinite(v)) for v in step):
            break
        x, y, z = step
        iterations += 1

    primal = float(np.max(np.abs(a_full @ x - b_full))) if a_full.shape[0] else 0.0
    return SdpSolution(
        status=status,
        objective_value=float(c @ x),
        block_values=dict(zip(problem._blocks, _blocks_of(x, spans))),
        scalar_values={s: float(x[o]) for s, o in problem._scalars.items()},
        primal_residual=primal,
        dual_residual=float(np.linalg.norm(rd)),
        iterations=iterations,
        dual_objective=float(sign * (b @ y)),
    )


def _blocks_of(v: np.ndarray, spans) -> list[np.ndarray]:
    """The block matrices of a coordinate vector."""
    return [(cmap @ v[sl]).reshape(d, d) for sl, d, cmap in spans]


def _step(x, y, z, rp, rd, a, free, spans, mats, n_cone):
    """One Mehrotra predictor-corrector step along the HKM direction.

    Both directions solve the Schur system M = sum_k A_k H_k A_k^T of the
    operators H_k(S) = sym(X_k S Z_k^-1), bordered by the free-scalar columns
    of a: the predictor for sigma = 0, the corrector for sigma =
    (mu_aff / mu)^3 with the second-order term -dX_aff dZ_aff. The primal and
    the dual iterate each move BOUNDARY_FRACTION of the way to the cone
    boundary, at most a full step. Returns the new (x, y, z).
    """
    m = a.shape[0]
    xs, zs = _blocks_of(x, spans), _blocks_of(z, spans)
    lx = [np.linalg.inv(np.linalg.cholesky(xm)) for xm in xs]
    lz = [np.linalg.inv(np.linalg.cholesky(zm)) for zm in zs]
    ws = [li.conj().T @ li for li in lz]        # Z^-1

    # (A_k H_k A_k^T)_ij = Re tr(A_i X A_j Z^-1)
    kkt = np.zeros((m + free.size, m + free.size))
    kkt[:m, m:] = a[:, free]
    kkt[m:, :m] = a[:, free].T
    for xm, w, mk in zip(xs, ws, mats):
        p = xm @ mk @ w
        kkt[:m, :m] += (mk.reshape(m, -1) @ p.transpose(0, 2, 1).reshape(m, -1).T).real
    rd_blocks = _blocks_of(rd, spans)

    def direction(target, second):
        # dX = sym(target Z^-1 - X - (D + X dZ) Z^-1) with dZ = rd - A^T dy and
        # D the second-order term; the real part of cmap^H vec(.) packs sym(.)
        def dx_of(dz_blocks):
            return [
                (cmap.conj().T @ (target * w - xm - (dd + xm @ dzm) @ w).ravel()).real
                for (_, _, cmap), xm, w, dd, dzm in zip(spans, xs, ws, second, dz_blocks)
            ]

        rhs = rp - sum(a[:, sl] @ v for (sl, _, _), v in zip(spans, dx_of(rd_blocks)))
        sol = np.linalg.solve(kkt, np.concatenate([rhs, rd[free]]))
        dy = sol[:m]
        dz = rd - a.T @ dy
        dz[free] = 0.0
        dx = np.zeros_like(x)
        dx[free] = sol[m:]
        for (sl, _, _), v in zip(spans, dx_of(_blocks_of(dz, spans))):
            dx[sl] = v
        return dx, dy, dz

    def step_length(l_invs, v):
        # X + alpha dX >= 0 up to alpha = -1 / lambda_min(L^-1 dX L^-H), X = L L^H
        lam = min(
            np.linalg.eigh(li @ dm @ li.conj().T)[0][0]
            for li, dm in zip(l_invs, _blocks_of(v, spans))
        )
        return 1.0 if lam >= 0 else min(1.0, -BOUNDARY_FRACTION / lam)

    dx, dy, dz = direction(0.0, [0.0] * len(spans))
    ap, ad = step_length(lx, dx), step_length(lz, dz)
    mu, mu_aff = x @ z / n_cone, (x + ap * dx) @ (z + ad * dz) / n_cone
    second = [dxm @ dzm for dxm, dzm in zip(_blocks_of(dx, spans), _blocks_of(dz, spans))]
    dx, dy, dz = direction((mu_aff / mu) ** 3 * mu, second)
    ap, ad = step_length(lx, dx), step_length(lz, dz)
    return x + ap * dx, y + ad * dy, z + ad * dz
