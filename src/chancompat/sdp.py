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

The solver follows the central path with HKM predictor-corrector steps
(Helmberg, Rendl, Vanderbei and Wolkowicz; the Mehrotra corrector as in
SDPT3), in about ten iterations and with no tuning. Each program shape is
factored once, cached on the content of a: an orthonormal row basis, and one
(k, d, d) stack per (dim, real) kind of block, on which the iterate lives.
It runs on numpy.linalg alone, in a fixed order, so identical problems
replay bitwise identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

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
    seconds: float = field(compare=False)   # wall time of the solve


class _Group(NamedTuple):
    """The PSD blocks of one (dim, real) kind, iterated as one (k, d, d) stack."""
    idx: tuple[int, ...]    # their positions among the problem's blocks
    cols: np.ndarray        # their pack coordinates in x, block after block
    cmap: np.ndarray        # _coord_map(d, real)
    mats: np.ndarray        # (m, k, d, d): the reduced rows on the stack
    span: slice             # the stack's entries in a flat real buffer


def _join(stacks) -> np.ndarray:
    """The flat real buffer of one stack per group; for two, g @ h = Re <g, h>."""
    return np.concatenate([h.reshape(-1).view(float) for h in stacks])


def _stacks(buf: np.ndarray, groups) -> list[np.ndarray]:
    """The (k, d, d) stacks of the groups in a flat real buffer, as views."""
    return [buf[g.span].view(g.mats.dtype).reshape(g.mats.shape[1:]) for g in groups]


@lru_cache(maxsize=32)
def _reduce(a_bytes: bytes, shape: tuple[int, int], blocks: tuple, n_free: int):
    """The factored shape of a program, keyed on the content of a: the map
    from b to the reduced b, the block groups, and the reduced rows on the
    flat buffer of the stacks and on the free scalars. Rows are normalized,
    then made orthonormal by an SVD whose singular values below
    max(shape) * 1e-12 * s_0 drop out with the dependent rows."""
    a_full = np.frombuffer(a_bytes).reshape(shape)
    norms = np.linalg.norm(a_full, axis=1)
    norms[norms == 0] = 1.0
    u, s, vt = np.linalg.svd(a_full / norms[:, None], full_matrices=False)
    rank = int(np.sum(s > max(shape) * 1e-12 * s[0])) if s.size else 0
    a, b_map = vt[:rank], u[:, :rank].T / s[:rank, None] / norms
    starts = np.cumsum([0] + [vec_size(d, real) for d, real in blocks])
    groups, offset = [], 0
    for d, real in dict.fromkeys(blocks):
        idx = tuple(i for i, blk in enumerate(blocks) if blk == (d, real))
        cols = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in idx])
        cmap = _coord_map(d, real)
        mats = (a[:, cols].reshape(rank, len(idx), -1) @ cmap.T).reshape(rank, len(idx), d, d)
        span = slice(offset, offset := offset + mats[0].size * (1 if real else 2))
        groups.append(_Group(idx, cols, cmap, mats, span))
    flat = np.hstack([g.mats.reshape(rank, -1).view(float) for g in groups])
    return b_map, tuple(groups), flat, a[:, starts[-1] : starts[-1] + n_free]


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
    start = time.perf_counter()
    max_iters = DEFAULT_MAX_ITERS if max_iters is None else max_iters
    if (embedded := sum(d if real else 2 * d for d, real in problem.blocks.values())) > DIM_GUARD:
        raise SdpBuildError(f"embedded PSD dimension {embedded} exceeds guard {DIM_GUARD}")
    a_full, blocks = np.ascontiguousarray(problem.a, dtype=float), tuple(problem.blocks.values())
    b_map, groups, flat, a_free = _reduce(a_full.tobytes(), a_full.shape, blocks, len(problem.scalars))
    sign = -1.0 if problem.sense == "max" else 1.0
    c_min = sign * problem.c
    # X, Z and C are flat real buffers with a stack view per group (_stacks);
    # y and the free scalars xf are vectors
    c = _join(c_min[g.cols].reshape(len(g.idx), -1) @ g.cmap.T for g in groups)
    x = _join(np.broadcast_to(np.eye(g.mats.shape[-1]), g.mats.shape[1:]).astype(g.mats.dtype) for g in groups)
    b, c_free = b_map @ problem.b, c_min[c_min.size - len(problem.scalars) :]
    z, y, xf = x.copy(), np.zeros(b.size), np.zeros(c_free.size)
    n_cone, b_norm, c_norm = sum(d for d, _ in blocks), np.linalg.norm(b), np.linalg.norm(c_min)
    status, iterations = "max_iterations", 0
    with np.errstate(all="ignore"):    # a non-finite step is caught below
        while True:
            rp, rd, rdf = b - flat @ x - a_free @ xf, c - y @ flat - z, c_free - y @ a_free
            pobj, dobj, rd_norm = c @ x + c_free @ xf, b @ y, np.sqrt(rd @ rd + rdf @ rdf)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            if max(np.linalg.norm(rp) / (1.0 + b_norm), rd_norm / (1.0 + c_norm), gap) <= DEFAULT_EPS:
                status = "optimal"
                break
            if iterations == max_iters:
                break
            try:
                step = _step(x, z, y, xf, rp, rd, rdf, groups, flat, a_free, n_cone)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(np.concatenate(step)).all():
                break
            x, z, y, xf = step
            iterations += 1

    x_pack, values = np.concatenate([np.zeros(a_full.shape[1] - xf.size), xf]), {}
    for g, xm in zip(groups, _stacks(x, groups)):
        x_pack[g.cols] = (xm.reshape(len(xm), -1) @ g.cmap.conj()).real.ravel()
        values.update(zip(g.idx, xm))
    return SdpSolution(
        status=status,
        objective_value=float(problem.c @ x_pack),
        block_values={name: values[i] for i, name in enumerate(problem.blocks)},
        scalar_values=dict(zip(problem.scalars, map(float, xf))),
        primal_residual=float(np.max(np.abs(a_full @ x_pack - problem.b), initial=0.0)),
        dual_residual=float(rd_norm),
        iterations=iterations,
        dual_objective=float(sign * dobj),
        seconds=time.perf_counter() - start,
    )


def _step(x, z, y, xf, rp, rd, rdf, groups, flat, a_free, n_cone):
    """One Mehrotra predictor-corrector step along the HKM direction.

    Both directions solve the Schur system M = sum_k A_k H_k A_k^T of the
    operators H_k(S) = sym(X_k S Z_k^-1), bordered by the free-scalar columns
    of a: the predictor for sigma = 0, the corrector for sigma =
    (mu_aff / mu)^3 with the second-order term -dX_aff dZ_aff. The primal and
    the dual iterate each move BOUNDARY_FRACTION of the way to the cone
    boundary, at most a full step. Each group takes one Cholesky factor and
    one inverse of its stacked [X; Z], and one eigh per step length.
    Returns the new (x, z, y, xf).
    """
    m = y.size
    xs, zs, rds = _stacks(x, groups), _stacks(z, groups), _stacks(rd, groups)
    l_invs = [np.linalg.inv(np.linalg.cholesky(np.concatenate([xm, zm]))) for xm, zm in zip(xs, zs)]
    l_invs = [(li, li.conj().swapaxes(1, 2)) for li in l_invs]
    ws = [lih[len(xm) :] @ li[len(xm) :] for (li, lih), xm in zip(l_invs, xs)]   # Z^-1
    # (A_k H_k A_k^T)_ij = Re tr(A_i X A_j Z^-1)
    kkt = np.zeros((m + xf.size, m + xf.size))
    kkt[:m, m:], kkt[m:, :m] = a_free, a_free.T
    schur = [(xm @ g.mats @ w).reshape(m, -1).view(float) for g, xm, w in zip(groups, xs, ws)]
    kkt[:m, :m] = flat @ np.hstack(schur).T

    def direction(base):
        # dX = sym(base - X dZ Z^-1) with dZ = rd - A^T dy; the rhs needs no
        # sym, as <A_i, sym(h)> = Re <A_i, h>
        rhs = rp - flat @ _join(h - xm @ r @ w for h, xm, r, w in zip(base, xs, rds, ws))
        sol = np.linalg.solve(kkt, np.concatenate([rhs, rdf]))
        dz = rd - sol[:m] @ flat
        dzs = _stacks(dz, groups)
        dxs = [h - xm @ dzm @ w for h, xm, dzm, w in zip(base, xs, dzs, ws)]
        dxs = [(h + h.conj().swapaxes(1, 2)) / 2 for h in dxs]
        return dxs, dzs, _join(dxs), dz, sol[:m], sol[m:]

    def step_lengths(dxs, dzs):
        # X + alpha dX >= 0 up to alpha = -1 / lambda_min(L^-1 dX L^-H), X = L L^H;
        # one eigh per group covers the primal and the dual stack
        lam = np.min([np.linalg.eigh(li @ np.concatenate([dxm, dzm]) @ lih)[0].reshape(2, -1).min(1)
                      for (li, lih), dxm, dzm in zip(l_invs, dxs, dzs)], axis=0)
        return [1.0 if v >= 0 else min(1.0, -BOUNDARY_FRACTION / v) for v in lam]

    dxs, dzs, dx, dz, dy, dxf = direction([-xm for xm in xs])
    ap, ad = step_lengths(dxs, dzs)
    mu, mu_aff = x @ z / n_cone, (x + ap * dx) @ (z + ad * dz) / n_cone
    # the corrector: target sigma mu = (mu_aff / mu)^3 mu and D = dX_aff dZ_aff
    sigma_mu = (mu_aff / mu) ** 3 * mu
    base = [sigma_mu * w - dxm @ dzm @ w - xm for xm, w, dxm, dzm in zip(xs, ws, dxs, dzs)]
    dxs, dzs, dx, dz, dy, dxf = direction(base)
    ap, ad = step_lengths(dxs, dzs)
    return x + ap * dx, z + ad * dz, y + ad * dy, xf + ap * dxf
