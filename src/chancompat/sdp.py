"""Small dense semidefinite programming by a primal-dual interior-point method.

A problem is data: a linear objective and affine equalities over a product
of PSD matrix blocks X_k and free scalars,

    min/max  c @ x   s.t.  a @ x = b,  X_k >= 0,

where x stacks the isometric real coordinates of each block (diagonal, then
sqrt(2) * real and sqrt(2) * imaginary upper-triangular parts; blocks
declared real use the symmetric restriction), then the scalars. A d x d
matrix equality thus takes d * d rows, or d(d+1)/2 on real blocks, and
linear_map_matrix gives the rows of a linear map. Callers compile (a, b, c)
themselves, so a program shape is compiled once and only b follows the data.

The solver reduces the constraint rows to an orthonormal basis and follows
the central path with HKM predictor-corrector steps (Helmberg, Rendl,
Vanderbei and Wolkowicz; the Mehrotra corrector as in SDPT3), in about ten
iterations and with no tuning. It runs on numpy.linalg alone, in a fixed
order, so identical problems replay bitwise identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

DEFAULT_MAX_ITERS = 100   # read when solve is called without max_iters
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
# Problem record
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SdpProblem:
    """A compiled program: optimize c @ x subject to a @ x = b.

    x holds the pack coordinates of the PSD blocks (name -> (dim, real)) in
    the order given, then the free scalars in the order given.
    """

    blocks: dict[str, tuple[int, bool]]
    scalars: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sense: str

    def __post_init__(self):
        n = sum(vec_size(d, real) for d, real in self.blocks.values()) + len(self.scalars)
        if self.b.ndim != 1 or self.a.shape != (self.b.size, n) or self.c.shape != (n,):
            raise SdpBuildError(
                f"shapes a {self.a.shape}, b {self.b.shape}, c {self.c.shape} do not fit"
                f" {n} coordinates"
            )
        if self.sense not in ("min", "max"):
            raise SdpBuildError(f"objective sense must be 'min' or 'max', got {self.sense!r}")


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
        max_iters = DEFAULT_MAX_ITERS
    embedded = sum(d if real else 2 * d for d, real in problem.blocks.values())
    if embedded > DIM_GUARD:
        raise SdpBuildError(f"embedded PSD dimension {embedded} exceeds guard {DIM_GUARD}")
    a_full, b_full, c = problem.a, problem.b, problem.c
    sign = -1.0 if problem.sense == "max" else 1.0
    c_min = sign * c
    # normalized rows, then orthonormal rows from an SVD whose singular values
    # below max(shape) * 1e-12 * s_0 drop out with the dependent rows
    norms = np.linalg.norm(a_full, axis=1)
    norms[norms == 0] = 1.0
    u, s, vt = np.linalg.svd(a_full / norms[:, None], full_matrices=False)
    rank = int(np.sum(s > max(a_full.shape) * 1e-12 * s[0])) if s.size else 0
    a, b = vt[:rank], (u[:, :rank].T @ (b_full / norms)) / s[:rank]
    m, n = a.shape

    spans, offset = [], 0
    for d, real in problem.blocks.values():
        size = vec_size(d, real)
        spans.append((slice(offset, offset + size), d, _coord_map(d, real)))
        offset += size
    free = np.arange(offset, offset + len(problem.scalars))
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
        block_values=dict(zip(problem.blocks, _blocks_of(x, spans))),
        scalar_values={s: float(x[o]) for o, s in enumerate(problem.scalars, start=offset)},
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
