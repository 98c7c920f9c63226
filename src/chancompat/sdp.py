"""Small dense semidefinite programming by a primal-dual interior-point method.

A problem is data: a linear objective and affine equalities over a product
of PSD matrix blocks X_k and free scalars,

    minimize  c @ x   s.t.  a @ x = b,  X_k >= 0,

where x stacks the isometric real coordinates of each block (diagonal, then
sqrt(2) * real and sqrt(2) * imaginary upper-triangular parts; blocks
declared real use the symmetric restriction), then the scalars. A d x d
matrix equality thus takes d * d rows, or d(d+1)/2 on real blocks, and
linear_map_matrix gives a block's columns in a list of such equalities. A
caller maximizes by negating c. A program shape (blocks, scalars, a, c) is
an SdpProgram, compiled and factored once; an SdpProblem pairs it with the
b of one instance and with the Certificate of its bracket, which may
depend on b.

The solver follows the central path with HKM predictor-corrector steps
(Helmberg, Rendl, Vanderbei and Wolkowicz; the corrector centred by the
predictor's step as in SDPT3, see _step), untuned: a grid value settles in
about four iterations, or one to three from the iterate of a nearby program of
its shape (a warm start), and a refined value in five to ten. Most solves end
at the edge point of a direction of their last step (Mehrotra, SIAM J. Optim.
1992), tested where a forecast passes (see solve). Each SdpProgram is factored
when it is built: an orthonormal row basis with the free scalars eliminated
(Anjos and Burer, SIAM J. Optim. 2007), and its rows and objective on the PSD
blocks alone as block-diagonal matrices, so that a solve does only the work
that b needs. The iterate is one block-diagonal D x D matrix, D the sum of the
block dimensions, so that each iteration makes one call per numpy.linalg
kernel however many blocks there are; the Schur complement alone is formed
block by block, as SDPT3 and SDPA do. It runs on numpy.linalg alone, in a
fixed order, so identical problems replay bitwise identically.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable

import numpy as np

DEFAULT_MAX_ITERS = 100   # read when solve is called without max_iters
DEFAULT_EPS = 1e-9        # relative residuals and gap; 1e-10 can break the Schur solve
BOUNDARY_FRACTION = 0.98  # share of the distance to the cone boundary that a step takes
EDGE_FRACTION = 0.999     # share at which a step's two edge points are tested (see solve)
CENTERING_MU = 1e-6       # below this mu the corrector's exponent is 1 (see _step)
DIM_GUARD = 64

_SQRT2 = np.sqrt(2.0)
Factored = namedtuple("Factored", "norms u s layout flat sides packed a_psd null lift obj obj_norm y0 index scale")


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
    """pack's inverse on the last axis of v: the d x d Hermitian (or real
    symmetric) matrices whose coordinates it holds; a zero comes out +0.0."""
    i, j, v = *_triu(d), v + 0.0
    out = np.zeros((*v.shape[:-1], d, d), dtype=float if real else complex)
    out[..., range(d), range(d)] = v[..., :d]
    re, im = v[..., d : d + i.size], v[..., d + i.size :]
    upper, lower = (re, re) if real else (re + 1j * im, re - 1j * im)
    out[..., i, j], out[..., j, i] = upper * (1 / _SQRT2), lower * (1 / _SQRT2)
    return out


def pack_gather(d: int, blocks, width: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(index, scale) with which v[index] * scale packs the diagonal blocks
    (slice, real) of a d x d matrix, in order, for v its float view (width
    2 if the matrix is complex, 1 if real). This is pack's own selection:
    the pack of each entry's positions in v, divided by the pack of ones."""
    pos = width * np.arange(d * d).reshape(d, d) * (1 + 1j) + (width - 1) * 1j
    index, scale = (np.concatenate([pack(m[diag, diag], real) for diag, real in blocks])
                    for m in (pos, np.full((d, d), 1 + 1j)))
    return np.rint(index / scale).astype(np.intp), scale


def linear_map_matrix(fn: Callable[[np.ndarray], list[np.ndarray]], d_in: int, real: bool = False) -> np.ndarray:
    """Matrix of hermiticity-preserving linear maps in pack coordinates, fn
    giving their images in order: column a joins the packs of fn's images
    of the matrix that unpacks the a-th unit vector."""
    basis = unpack(np.eye(vec_size(d_in, real)), d_in, real)
    return np.stack([np.concatenate([pack(m, real) for m in fn(unit)]) for unit in basis], axis=1)


# ---------------------------------------------------------------------------
# Problem record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """What a problem needs for a bracket of its optimum at every iterate
    (see solve): on the feasible points that can be optimal, the trace of
    all blocks together is at most trace_bound; and some feasible point has
    objective interior_value and every block >= interior_margin * 1."""

    trace_bound: float
    interior_value: float
    interior_margin: float


@dataclass(frozen=True, eq=False)
class SdpProgram:
    """A compiled program shape: minimize c @ x subject to a @ x = b, for
    the b of each SdpProblem.

    x holds the pack coordinates of the PSD blocks (name -> (dim, real)) in
    the order given, then the free scalars in the order given. Building it
    checks the shapes and DIM_GUARD, keeps read-only copies of blocks, a
    and c, and factors the shape once into factored, a Factored: norms;
    u and s, the kept singular vectors and values; layout, per block its
    pack coordinates, diagonal slice and realness; flat, the PSD-only rows
    as real buffers of (m, D, D) block-diagonal matrices; sides and packed,
    from which _schur forms the Schur complement block by block; a_psd,
    null = N and lift; and, for y0 = lift^T c_f, obj = C - A_psd^T y0 as a
    D x D matrix, obj_norm, y0, and the gather with which
    _vec(X)[index] * scale packs X.

    Rows are normalized, then made orthonormal by an SVD whose singular
    values below max(a.shape) * 1e-12 * s_0 drop out with the dependent
    rows. A complete QR [Q_f | N] [R; 0] of their free-scalar columns A_f
    gives x_f = lift @ (b - A_psd x), lift = R^-1 Q_f^T, and the PSD-only
    rows N^T A_psd, still orthonormal as N^T A_f = 0; a singular R is an
    SdpBuildError.
    """

    blocks: dict[str, tuple[int, bool]]
    scalars: tuple[str, ...]
    a: np.ndarray
    c: np.ndarray
    factored: Factored = field(init=False, repr=False)

    def __post_init__(self):
        n_free, blocks = len(self.scalars), tuple(self.blocks.values())
        n = sum(vec_size(d, real) for d, real in blocks) + n_free
        if self.a.ndim != 2 or self.a.shape[1] != n or self.c.shape != (n,):
            raise SdpBuildError(f"shapes a {self.a.shape}, c {self.c.shape} do not fit {n} coordinates")
        check_dim_guard(self.blocks)
        a, c_full = (np.array(v, dtype=float, order="C") for v in (self.a, self.c))
        a.flags.writeable = c_full.flags.writeable = False
        for name, value in (("blocks", MappingProxyType(dict(self.blocks))), ("a", a), ("c", c_full)):
            object.__setattr__(self, name, value)
        norms = np.linalg.norm(a, axis=1)
        norms[norms == 0] = 1.0
        u, s, vt = np.linalg.svd(a / norms[:, None], full_matrices=False)
        rank = int(np.sum(s > max(a.shape) * 1e-12 * s[0])) if s.size else 0
        a_psd, u = vt[:rank, : n - n_free], u[:, :rank]
        basis, tri = np.linalg.qr(vt[:rank, n - n_free :], mode="complete")
        if np.sum(np.abs(np.diag(tri)) > max(a.shape) * 1e-12) < n_free:
            raise SdpBuildError("the equalities leave a free scalar undetermined")
        rows = basis[:, n_free:].T @ a_psd
        starts = np.cumsum([0] + [vec_size(d, real) for d, real in blocks])
        diags = np.cumsum([0] + [d for d, _ in blocks])
        layout = tuple((slice(j, k), slice(p, q), real)
                       for (_, real), j, k, p, q in zip(blocks, starts, starts[1:], diags, diags[1:]))
        dtype = float if all(real for _, real in blocks) else complex
        mats = _embed(np.zeros((rows.shape[0], diags[-1], diags[-1]), dtype), rows, layout)
        restricted = [(diag, mats[:, diag, diag]) for _, diag, _ in layout]
        sides = tuple((diag, r.transpose(1, 0, 2).reshape(r.shape[1], -1)) for diag, r in restricted)
        packed = np.concatenate([_vec(r) for _, r in restricted], axis=1)
        lift = np.linalg.solve(tri[:n_free], basis[:, :n_free].T)
        y0 = c_full[n - n_free :] @ lift
        c = _embed(np.zeros(mats.shape[1:], mats.dtype), c_full[: n - n_free] - y0 @ a_psd, layout)
        gather = pack_gather(mats.shape[1], [(diag, real) for _, diag, real in layout], 2 if dtype is complex else 1)
        object.__setattr__(self, "factored", Factored(norms, u, s[:rank], layout, _vec(mats), sides, packed, a_psd,
                                                      basis[:, n_free:], lift, c, np.linalg.norm(c), y0, *gather))


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """One instance of a program: b, one entry per row, and any Certificate."""

    program: SdpProgram
    b: np.ndarray
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.b.shape != self.program.a.shape[:1]:
            raise SdpBuildError(f"b {self.b.shape} does not fit the {self.program.a.shape[0]} rows of a")


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
    # the last iterate, for a warm start: (program, X, Z, y)
    iterate: tuple | None = field(default=None, compare=False, repr=False)


def _vec(h: np.ndarray) -> np.ndarray:
    """The real buffer of a matrix or of each of a stack: _vec(g) @ _vec(h) = Re <g, h>."""
    return h.reshape(*h.shape[:-2], -1).view(float)


def _embed(out: np.ndarray, coords: np.ndarray, layout) -> np.ndarray:
    """Unpack each block's coordinates (last axis) into its diagonal slice of out."""
    for cols, diag, real in layout:
        out[..., diag, diag] = unpack(coords[..., cols], diag.stop - diag.start, real)
    return out


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
    """Solve a problem by the interior-point method (see _step), on the
    factorization that its program made when it was built.

    The iteration sees the PSD blocks alone (see SdpProgram): with y0 =
    lift^T c_f, the free scalars' objective c_f @ x_f is y0 @ (b - A_psd x),
    so the blocks' objective becomes C - A_psd^T y0 plus the constant b @ y0,
    and x_f is recovered at exit. X and the dual slack Z are block-diagonal
    D x D matrices, complex if any block is, with the blocks as diagonal
    slices. The iteration starts infeasible, from X = Z = I and y = 0; or,
    when warm solved a problem of the same SdpProgram object, from warm's
    last iterate with X and Z moved toward I by theta = min(1, |b - A x| /
    (1 + |b|)), the share of the new b that it misses (Yildirim and Wright,
    SIAM J. Optim. 2002). Any other warm is ignored. Status "optimal": the
    relative primal and dual residuals and the relative duality gap are all
    at most DEFAULT_EPS, and so is the part of the row-normalized b outside
    the row space of a, relative to 1 + its norm, and the exit's
    primal_residual relative to 1 + max |b|. Otherwise "max_iterations":
    the cap was reached, a step came out non-finite and the last finite
    iterate is returned, the equalities are inconsistent, or the exit missed
    them, as x can drift in an unbounded optimal set; a program with no
    feasible point ends so too.
    objective_value is that of the primal iterate and dual_objective that of
    the dual one.

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

    Each direction of a step, the predictor, then the corrector, has its
    point at the edge lengths of _step tested too: where the cone limits a
    step, it keeps 1 - EDGE_FRACTION of a residual instead of 1 -
    BOUNDARY_FRACTION, and it stays strictly inside the cone,
    lambda_min(L^-1 X' L^-H) >= 1 - EDGE_FRACTION for its X' and the old
    X = L L^H, and so for Z. As A dX = R_p and dZ + A^T dy = R_d for both,
    its residual norms are (1 - alpha_p) |R_p| and (1 - alpha_d) |R_d| and
    its objectives pobj + alpha_p <C, dX> and dobj + alpha_d b @ dy. Only a
    passing forecast has the point formed, measured and tested; the first
    that passes is returned, its step an iteration; if none, the corrector steps.
    """
    start = time.perf_counter()
    max_iters = DEFAULT_MAX_ITERS if max_iters is None else max_iters
    if not max_iters >= 0 or max_iters % 1:
        raise ValueError(f"max_iters must be a nonnegative integer, got {max_iters}")
    program, f = problem.program, problem.program.factored
    c, c_norm, flat = f.obj, f.obj_norm, f.flat
    b_unit = problem.b / f.norms
    b_row = f.u.T @ b_unit
    b_full, leak = b_row / f.s, b_unit - f.u @ b_row
    consistent = math.sqrt(leak @ leak) <= DEFAULT_EPS * (1.0 + math.sqrt(b_unit @ b_unit))
    cert = problem.certificate if consistent else None
    b, offset = f.null.T @ b_full, f.y0 @ b_full
    # X, Z and C are D x D matrices, y a vector
    x = z = np.eye(len(c), dtype=c.dtype)
    y, b_norm = np.zeros(b.size), math.sqrt(b @ b)
    if warm is not None and warm.iterate is not None and warm.iterate[0] is program:
        _, x_old, z_old, y = warm.iterate
        theta = min(1.0, np.linalg.norm(b - flat @ _vec(x_old)) / (1.0 + b_norm))
        x, z = (1 - theta) * x_old + theta * x, (1 - theta) * z_old + theta * z

    def test(pobj, dobj, rp_norm, rd_norm):
        """The status that ends the loop at a point with these values, or None, and its bracket."""
        bracket = None
        if cert is not None:
            shift = c_norm * rp_norm
            bracket = (float(dobj - cert.trace_bound * rd_norm), float(
                pobj + shift + rp_norm * (abs(cert.interior_value) + abs(pobj) + shift) / cert.interior_margin))
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if max(rp_norm / (1.0 + b_norm), rd_norm / (1.0 + c_norm), gap) <= DEFAULT_EPS:
            return "optimal" if consistent else "max_iterations", bracket
        if bracket is not None and settled is not None and settled(*bracket):
            return "bracketed", bracket
        return None, bracket

    def measure(x, z, y):
        """A point with its residuals, objectives and norms, and test's verdict if the norms are finite."""
        rd = c - (y @ flat).view(c.dtype).reshape(c.shape) - z
        rp = b - flat @ _vec(x)
        pobj, dobj = np.vdot(c, x).real + offset, b @ y + offset
        rp_norm, rd_norm = math.sqrt(rp @ rp), math.sqrt(np.vdot(rd, rd).real)
        verdict = test(pobj, dobj, rp_norm, rd_norm) if math.isfinite(rp_norm + rd_norm) else (None, None)
        return (x, z, y, rd, rp, pobj, dobj, rp_norm, rd_norm), *verdict

    with np.errstate(all="ignore"):    # a non-finite step is caught below
        (point, status, bracket), iterations = measure(x, z, y), 0
        while status is None and iterations < max_iters:
            x, z, y, rd, rp, pobj, dobj, rp_norm, rd_norm = point
            try:
                for ap, ad, dx, dz, dy, (ep, ed) in _step(x, z, y, rp, rd, flat, f.sides, f.packed):
                    # the direction's point at the edge lengths, forecast as the docstring says
                    forecast = pobj + ep * np.vdot(c, dx).real, dobj + ed * (b @ dy)
                    if math.isfinite(sum(forecast)) and test(*forecast, (1 - ep) * rp_norm, (1 - ed) * rd_norm)[0]:
                        new = measure(x + ep * dx, z + ed * dz, y + ed * dy)
                        if new[1] is not None:
                            break
                else:    # neither edge point ends the solve: move along the corrector
                    new = measure(x + ap * dx, z + ad * dz, y + ad * dy)
                    if not math.isfinite(sum(new[0][-2:])):    # its residual norms
                        break
            except np.linalg.LinAlgError:
                break
            (point, status, bracket), iterations = new, iterations + 1

    x, z, y, rd, rp, pobj, dobj, rp_norm, rd_norm = point
    values = {name: (x[diag, diag].real if real else x[diag, diag]).copy()
              for name, (_, diag, real) in zip(program.blocks, f.layout)}
    x_psd = _vec(x)[f.index] * f.scale
    x_pack = np.concatenate([x_psd, f.lift @ (b_full - f.a_psd @ x_psd)])
    residual = float(np.abs(program.a @ x_pack - problem.b).max(initial=0.0))
    if status == "optimal" and residual > DEFAULT_EPS * (1.0 + np.abs(problem.b).max(initial=0.0)):
        status = None    # x drifted along a direction that the reduced rows do not see
    return SdpSolution(
        status=status or "max_iterations",
        objective_value=float(program.c @ x_pack),
        block_values=values,
        scalar_values=dict(zip(program.scalars, map(float, x_pack[x_psd.size :]))),
        primal_residual=residual,
        dual_residual=float(rd_norm),
        iterations=iterations,
        dual_objective=float(dobj),
        seconds=time.perf_counter() - start,
        bracket=bracket,
        iterate=(program, x, z, y),
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


def _step(x, z, y, rp, rd, flat, sides, packed):
    """One Mehrotra predictor-corrector step along the HKM direction, as a
    generator of the predictor's, then the corrector's (alpha_p, alpha_d, dX,
    dZ, dy, edge): the point x + alpha_p dX, z + alpha_d dZ, y + alpha_d dy,
    and edge the lengths, EDGE_FRACTION of the way, at which solve tests both.

    Both directions solve the Schur system M dy = r of the operator
    H(S) = sym(X S Z^-1), M = A H A^T: the predictor for sigma = 0, the
    corrector for sigma = (mu_aff / mu)^e with the second-order term
    -dX_aff dZ_aff and SDPT3's exponent e = 3 min(alpha_p, alpha_d)^2 of
    the predictor's steps, held within [1, 3], or e = 1 once mu = <X, Z> / n
    <= CENTERING_MU: a short predictor step centres more. The primal and the
    dual iterate each move BOUNDARY_FRACTION of the way to the cone
    boundary, at most a full step. Cholesky factors, inverses and products
    of block-diagonal matrices keep the off-diagonal blocks exactly 0, so
    one Cholesky factor and one inverse of the stacked [X; Z] serve every
    block, and one eigh of the stacked primal and dual directions gives a
    direction's step lengths: a step ended at its predictor's edge point
    makes one Schur solve and one eigh, any other two of each. The Schur
    matrix, the one product over all m rows, is formed block by block (_schur).
    """
    n = x.shape[0]
    l_inv = np.linalg.inv(np.linalg.cholesky(np.array([x, z])))
    l_invh = l_inv.conj().swapaxes(1, 2)
    w = l_invh[1] @ l_inv[1]    # Z^-1
    m_schur = _schur(x, w, sides, packed)
    # dX = sym(base - X dZ Z^-1) with dZ = rd - A^T dy; the rhs needs no
    # sym, as <A_i, sym(h)> = Re <A_i, h>
    rp_xrw = rp + flat @ _vec(x @ rd @ w)

    def direction(base):
        dy = np.linalg.solve(m_schur, rp_xrw - flat @ _vec(base))
        dz = rd - (dy @ flat).view(x.dtype).reshape(n, n)
        dx = base - x @ dz @ w
        return (dx + dx.conj().T) / 2, dz, dy

    def with_lengths(dx, dz, dy):
        # X + alpha dX >= 0 up to alpha = -1 / lambda_min(L^-1 dX L^-H), X = L L^H
        lam = np.linalg.eigh(l_inv @ np.array([dx, dz]) @ l_invh)[0].min(1)
        ap, ad, *edge = [1.0 if v >= 0 else min(1.0, -f / v) for f in (BOUNDARY_FRACTION, EDGE_FRACTION) for v in lam]
        return ap, ad, dx, dz, dy, tuple(edge)

    ap, ad, dx, dz, dy, _ = predictor = with_lengths(*direction(-x))
    yield predictor
    mu, mu_aff = np.vdot(x, z).real / n, np.vdot(x + ap * dx, z + ad * dz).real / n
    # the corrector: target (mu_aff / mu)^e mu with SDPT3's step-dependent e, second-order term dX_aff dZ_aff
    exponent = max(1.0, min(3.0, 3 * min(ap, ad) ** 2)) if mu > CENTERING_MU else 1.0
    sigma_mu = (mu_aff / mu) ** exponent * mu
    yield with_lengths(*direction(sigma_mu * w - dx @ dz @ w - x))
