"""Small dense semidefinite programming by a primal-dual interior-point method.

A problem is data: a linear objective and affine equalities over a product
of PSD matrix blocks X_k and free scalars,

    minimize  c @ x   s.t.  a @ x = b,  X_k >= 0,

where x stacks the isometric real coordinates of each block (diagonal, then
sqrt(2) * real and sqrt(2) * imaginary upper-triangular parts; blocks
declared real use the symmetric restriction), then the scalars. A d x d
matrix equality thus takes d * d rows, or d(d+1)/2 on real blocks, and
linear_map_matrix gives the rows of a linear map. A caller maximizes by
negating c. Callers compile (a, b, c) themselves, so a program shape is
compiled once and only b follows the data.

The solver follows the central path with HKM predictor-corrector steps
(Helmberg, Rendl, Vanderbei and Wolkowicz; the Mehrotra corrector as in
SDPT3), with no tuning: a grid value settles in about four iterations, or
two from the iterate of a nearby program of its shape (a warm start), and a
refined value runs to tolerance in about ten. Each program shape is
factored once, cached on the content of a: an orthonormal row basis with
the free scalars eliminated (Anjos and Burer, SIAM J. Optim. 2007), and its
rows on the PSD blocks alone as block-diagonal matrices. The iterate is one
block-diagonal D x D matrix, D the sum of the block dimensions, so that each
iteration makes one call per numpy.linalg kernel however many blocks there
are; the Schur complement alone is formed block by block, as SDPT3 and SDPA
do. It runs on numpy.linalg alone, in a fixed order, so identical problems
replay bitwise identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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


@lru_cache(maxsize=None)
def _coord_map(d: int, real: bool) -> np.ndarray:
    """Columns are the flattened basis matrices of the pack coordinates: the
    diagonal units E_kk, then (E_ij + E_ji) / sqrt(2) and, on complex blocks,
    1j (E_ij - E_ji) / sqrt(2) for i < j. Unpacking is one matvec."""
    i, j = _triu(d)
    k, off = np.arange(d), d + np.arange(i.size)
    u = np.zeros((d, d, vec_size(d, real)), dtype=float if real else complex)
    u[k, k, k] = 1.0
    u[i, j, off] = u[j, i, off] = 1 / _SQRT2
    if not real:
        u[i, j, off + i.size] = 1j / _SQRT2
        u[j, i, off + i.size] = u[i, j, off + i.size].conj()
    return u.reshape(d * d, -1)


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

@dataclass(frozen=True)
class Certificate:
    """What a program needs for a bracket of its optimum at every
    iterate (see solve): on the feasible points that can be optimal, the
    trace of all blocks together is at most trace_bound; and some feasible
    point has objective interior_value and every block >= interior_margin * 1."""

    trace_bound: float
    interior_value: float
    interior_margin: float


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """A compiled program: minimize c @ x subject to a @ x = b.

    x holds the pack coordinates of the PSD blocks (name -> (dim, real)) in
    the order given, then the free scalars in the order given. It may carry
    a Certificate.
    """

    blocks: dict[str, tuple[int, bool]]
    scalars: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    certificate: Certificate | None = None

    def __post_init__(self):
        n = sum(vec_size(d, real) for d, real in self.blocks.values()) + len(self.scalars)
        if self.b.ndim != 1 or self.a.shape != (self.b.size, n) or self.c.shape != (n,):
            raise SdpBuildError(
                f"shapes a {self.a.shape}, b {self.b.shape}, c {self.c.shape} do not fit"
                f" {n} coordinates"
            )


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
    bracket: tuple[float, float] | None = None   # (lower, upper) bound on the optimum
    # the last iterate, for a warm start: (_reduce entry, X, Z, y)
    iterate: tuple | None = field(default=None, compare=False, repr=False)


def _vec(h: np.ndarray) -> np.ndarray:
    """The real buffer of a matrix or of each of a stack: _vec(g) @ _vec(h) = Re <g, h>."""
    return h.reshape(*h.shape[:-2], -1).view(float)


def _embed(out: np.ndarray, coords: np.ndarray, layout) -> np.ndarray:
    """Unpack each block's coordinates (last axis) into its diagonal slice of out."""
    for cols, diag, cmap in layout:
        out[..., diag, diag] = (coords[..., cols] @ cmap.T).reshape(out[..., diag, diag].shape)
    return out


@lru_cache(maxsize=32)
def _reduce(a_bytes: bytes, shape: tuple[int, int], blocks: tuple, n_free: int):
    """The factored shape of a program, keyed on the content of a: the row
    norms, the kept left singular vectors and values, per block its pack
    coordinates, diagonal slice and _coord_map, the PSD-only rows as (m, D, D)
    block-diagonal matrices and as their real buffers, those rows restricted
    to each block in the two layouts from which _schur forms the Schur
    complement block by block, and (A_psd, N, lift). Rows are normalized,
    then made orthonormal by an SVD whose singular values below
    max(shape) * 1e-12 * s_0 drop out with the dependent rows. A complete QR
    [Q_f | N] [R; 0] of their free-scalar columns A_f gives x_f = lift @
    (b - A_psd x), lift = R^-1 Q_f^T, and the PSD-only rows N^T A_psd, still
    orthonormal as N^T A_f = 0; a singular R is an SdpBuildError."""
    a_full = np.frombuffer(a_bytes).reshape(shape)
    norms = np.linalg.norm(a_full, axis=1)
    norms[norms == 0] = 1.0
    u, s, vt = np.linalg.svd(a_full / norms[:, None], full_matrices=False)
    rank = int(np.sum(s > max(shape) * 1e-12 * s[0])) if s.size else 0
    a_psd, u = vt[:rank, : shape[1] - n_free], u[:, :rank]
    basis, tri = np.linalg.qr(vt[:rank, shape[1] - n_free :], mode="complete")
    if np.sum(np.abs(np.diag(tri)) > max(shape) * 1e-12) < n_free:
        raise SdpBuildError("the equalities leave a free scalar undetermined")
    a = basis[:, n_free:].T @ a_psd
    starts = np.cumsum([0] + [vec_size(d, real) for d, real in blocks])
    diags = np.cumsum([0] + [d for d, _ in blocks])
    layout = tuple((slice(j, k), slice(p, q), _coord_map(*blk))
                   for blk, j, k, p, q in zip(blocks, starts, starts[1:], diags, diags[1:]))
    dtype = float if all(real for _, real in blocks) else complex
    mats = _embed(np.zeros((a.shape[0], diags[-1], diags[-1]), dtype), a, layout)
    restricted = [(diag, mats[:, diag, diag]) for _, diag, _ in layout]
    sides = tuple((diag, r.transpose(1, 0, 2).reshape(r.shape[1], -1)) for diag, r in restricted)
    packed = np.concatenate([_vec(r) for _, r in restricted], axis=1)
    free = (a_psd, basis[:, n_free:], np.linalg.solve(tri[:n_free], basis[:, :n_free].T))
    return norms, (u, s[:rank]), layout, mats, _vec(mats), (sides, packed), free


def check_dim_guard(blocks: dict[str, tuple[int, bool]]) -> None:
    """Reject blocks whose embedded PSD dimension (complex counts twice) exceeds DIM_GUARD."""
    if (embedded := sum(d if real else 2 * d for d, real in blocks.values())) > DIM_GUARD:
        raise SdpBuildError(f"embedded PSD dimension {embedded} exceeds guard {DIM_GUARD}")


def solve(
    problem: SdpProblem,
    max_iters: int | None = None,
    settled: Callable[[float, float], bool] | None = None,
    warm: SdpSolution | None = None,
) -> SdpSolution:
    """Solve a compiled problem by the interior-point method (see _step).

    The iteration sees the PSD blocks alone (see _reduce): with y0 =
    lift^T c_f, the free scalars' objective c_f @ x_f is y0 @ (b - A_psd x),
    so the blocks' objective becomes C - A_psd^T y0 plus the constant b @ y0,
    and x_f is recovered at exit. X and the dual slack Z are block-diagonal
    D x D matrices, complex if any block is, with the blocks as diagonal
    slices. The iteration starts infeasible, from X = Z = I and y = 0; or,
    when warm solved a program of the same cached shape, from warm's last
    iterate with X and Z moved toward I by theta = min(1, |b - A x| /
    (1 + |b|)), the share of the new b that it misses (Yildirim and Wright,
    SIAM J. Optim. 2002). Any other warm, like an evicted shape's, is
    ignored. Status "optimal": the relative primal and dual residuals and
    the relative duality gap are all at most DEFAULT_EPS, and so is the part
    of the row-normalized b outside the row space of a, relative to 1 + its
    norm. Otherwise "max_iterations": the cap was reached, a step came out
    non-finite and the last finite iterate is returned, or the equalities
    are inconsistent; a program with no feasible point ends so too.
    objective_value is that of the primal iterate and dual_objective that of
    the dual one. Problems whose embedded PSD dimension exceeds DIM_GUARD,
    or whose equalities leave a free scalar undetermined, are rejected
    before iterating.

    A problem with a Certificate and consistent equalities gets a bracket
    [lo, hi] of its optimum at every iterate, from the residuals the
    iteration forms anyway (the rigorous bounds of Jansson, Chaykin and
    Keil, SIAM J. Numer. Anal. 2007). lo is weak duality: as Z > 0 and the
    dual y0 + N y meets the free scalars' rows exactly, c @ x >= b @ y -
    trace_bound * |R_d|_F on the feasible points the certificate covers. hi
    comes from a feasible point: moving the iterate by A^T R_p onto A x = b
    (A has orthonormal rows) changes the objective by at most |C| delta,
    delta = |R_p|, and leaves every eigenvalue >= -delta; mixing in the
    certificate's interior point with weight delta / (interior_margin +
    delta) restores X >= 0. solution.bracket is the last one; when
    settled(lo, hi) holds, the loop ends there with status "bracketed".
    """
    start = time.perf_counter()
    max_iters = DEFAULT_MAX_ITERS if max_iters is None else max_iters
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    check_dim_guard(problem.blocks)
    a_full, blocks = np.ascontiguousarray(problem.a, dtype=float), tuple(problem.blocks.values())
    reduced = _reduce(a_full.tobytes(), a_full.shape, blocks, len(problem.scalars))
    norms, (u, s), layout, mats, flat, schur, (a_psd, null, lift) = reduced
    b_unit = problem.b / norms
    b_full, leak = (u.T @ b_unit) / s, b_unit - u @ (u.T @ b_unit)
    consistent = np.linalg.norm(leak) <= DEFAULT_EPS * (1.0 + np.linalg.norm(b_unit))
    cert = problem.certificate if consistent else None
    n_psd, y0 = a_psd.shape[1], problem.c[a_psd.shape[1] :] @ lift
    b, offset = null.T @ b_full, y0 @ b_full
    # X, Z and C are D x D matrices, y a vector
    c = _embed(np.zeros(mats.shape[1:], mats.dtype), problem.c[:n_psd] - y0 @ a_psd, layout)
    x, y = np.eye(len(c), dtype=c.dtype), np.zeros(b.size)
    z = x.copy()
    b_norm, c_norm = np.linalg.norm(b), np.linalg.norm(c)
    if warm is not None and warm.iterate is not None and warm.iterate[0] is reduced:
        _, x_old, z_old, y = warm.iterate
        theta = min(1.0, np.linalg.norm(b - flat @ _vec(x_old)) / (1.0 + b_norm))
        x, z = (1 - theta) * x_old + theta * x, (1 - theta) * z_old + theta * z
    status, iterations, bracket = "max_iterations", 0, None
    with np.errstate(all="ignore"):    # a non-finite step is caught below
        while True:
            rd = c - (y @ flat).view(c.dtype).reshape(c.shape) - z
            rp = b - flat @ _vec(x)
            pobj, dobj = np.vdot(c, x).real + offset, b @ y + offset
            rd_norm, rp_norm = np.linalg.norm(rd), np.linalg.norm(rp)
            if cert is not None:
                shift = c_norm * rp_norm
                bracket = (
                    float(dobj - cert.trace_bound * rd_norm),
                    float(pobj + shift + rp_norm * (abs(cert.interior_value) + abs(pobj) + shift)
                          / cert.interior_margin),
                )
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            if max(rp_norm / (1.0 + b_norm), rd_norm / (1.0 + c_norm), gap) <= DEFAULT_EPS:
                status = "optimal" if consistent else status
                break
            if bracket is not None and settled is not None and settled(*bracket):
                status = "bracketed"
                break
            if iterations == max_iters:
                break
            try:
                step = _step(x, z, y, rp, rd, flat, schur)
            except np.linalg.LinAlgError:
                break
            if not all(np.isfinite(v).all() for v in step):
                break
            x, z, y = step
            iterations += 1

    x_pack, values = np.zeros(a_full.shape[1]), {}
    for (name, (_, real)), (cols, diag, _) in zip(problem.blocks.items(), layout):
        values[name] = (x[diag, diag].real if real else x[diag, diag]).copy()
        x_pack[cols] = pack(values[name], real)
    x_pack[n_psd:] = lift @ (b_full - a_psd @ x_pack[:n_psd])
    return SdpSolution(
        status=status,
        objective_value=float(problem.c @ x_pack),
        block_values=values,
        scalar_values=dict(zip(problem.scalars, map(float, x_pack[n_psd:]))),
        primal_residual=float(np.max(np.abs(a_full @ x_pack - problem.b), initial=0.0)),
        dual_residual=float(rd_norm),
        iterations=iterations,
        dual_objective=float(dobj),
        seconds=time.perf_counter() - start,
        bracket=bracket,
        iterate=(reduced, x, z, y),
    )


def _schur(x, w, sides, packed):
    """The Schur matrix M_ij = Re tr(A_i X A_j W), formed block by block.

    With A_i^k the row A_i restricted to block k, sides holds per block its
    diagonal slice and the d_k x m d_k matrix [A_1^k | ... | A_m^k], and
    row i of packed the real buffers of A_i^1, A_i^2, ... in block order.
    Per block, two products give every X_k A_j^k W_k: X_k [A_1^k | ... ],
    then that, read as m d_k rows of width d_k, times W_k. One contraction
    with packed then sums Re <A_i^k, X_k A_j^k W_k> over the blocks, so no
    product touches the zero off-diagonal blocks of X and W."""
    m, prods = packed.shape[0], []
    for diag, side in sides:
        d = side.shape[0]
        xaw = ((x[diag, diag] @ side).reshape(d * m, d) @ w[diag, diag]).reshape(d, m, d)
        prods.append(xaw.swapaxes(0, 1).reshape(m, d * d))
    return packed @ np.concatenate(prods, axis=1).view(float).T


def _step(x, z, y, rp, rd, flat, schur):
    """One Mehrotra predictor-corrector step along the HKM direction.

    Both directions solve the Schur system M dy = r of the operator
    H(S) = sym(X S Z^-1), M = A H A^T: the predictor for sigma = 0, the
    corrector for sigma = (mu_aff / mu)^3 with the second-order term
    -dX_aff dZ_aff. The primal and the dual iterate each move
    BOUNDARY_FRACTION of the way to the cone boundary, at most a full step.
    Cholesky factors, inverses and products of block-diagonal matrices keep
    the off-diagonal blocks exactly 0, so one Cholesky factor and one inverse
    of the stacked [X; Z] serve every block, and one eigh of the stacked
    primal and dual directions gives each step length. The Schur matrix, the
    one product over all m rows, is formed block by block (_schur). Returns
    the new (x, z, y).
    """
    n = x.shape[0]
    l_inv = np.linalg.inv(np.linalg.cholesky(np.array([x, z])))
    l_invh = l_inv.conj().swapaxes(1, 2)
    w = l_invh[1] @ l_inv[1]    # Z^-1
    m_schur = _schur(x, w, *schur)
    # dX = sym(base - X dZ Z^-1) with dZ = rd - A^T dy; the rhs needs no
    # sym, as <A_i, sym(h)> = Re <A_i, h>
    rp_xrw = rp + flat @ _vec(x @ rd @ w)

    def direction(base):
        dy = np.linalg.solve(m_schur, rp_xrw - flat @ _vec(base))
        dz = rd - (dy @ flat).view(x.dtype).reshape(n, n)
        dx = base - x @ dz @ w
        return (dx + dx.conj().T) / 2, dz, dy

    def step_lengths(dx, dz):
        # X + alpha dX >= 0 up to alpha = -1 / lambda_min(L^-1 dX L^-H), X = L L^H
        lam = np.linalg.eigh(l_inv @ np.array([dx, dz]) @ l_invh)[0].min(1)
        return [1.0 if v >= 0 else min(1.0, -BOUNDARY_FRACTION / v) for v in lam]

    dx, dz, dy = direction(-x)
    ap, ad = step_lengths(dx, dz)
    mu, mu_aff = np.vdot(x, z).real / n, np.vdot(x + ap * dx, z + ad * dz).real / n
    # the corrector: target sigma mu = (mu_aff / mu)^3 mu, second-order term dX_aff dZ_aff
    sigma_mu = (mu_aff / mu) ** 3 * mu
    dx, dz, dy = direction(sigma_mu * w - dx @ dz @ w - x)
    ap, ad = step_lengths(dx, dz)
    return x + ap * dx, z + ad * dz, y + ad * dy
