"""Dense complex linear algebra for small operators, up to the joint operators
(32 x 32 for two 2 -> 4 channels) whose partial traces robustness._program takes.

Everything here works on plain numpy arrays. Multi-partite operators carry
their factorization as an explicit list of subsystem dimensions whose product
must equal the matrix dimension.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def is_hermitian(a: np.ndarray) -> bool:
    """Entrywise check of a = a^dagger within HERMITIAN_TOL, the library's one Hermiticity tolerance."""
    return a.shape[0] == a.shape[1] and bool(np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    dims lists the tensor factors of m in order; keep is a set of factor
    indices. The kept factors retain their original relative order. The full
    trace is preserved: Tr(result) = Tr(m).
    """
    dims = list(dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {list(dims)}")
    if int(np.prod(dims)) != m.shape[0]:
        raise ValueError(
            f"subsystem dimensions {list(dims)} do not factor matrix dimension {m.shape[0]}"
        )
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    # einsum labels: row axis s is s; column axis s is k + s if kept, else s (traced out)
    k = len(dims)
    cols = [k + s if s in keep else s for s in range(k)]
    d_keep = int(np.prod([dims[s] for s in keep]))
    out = np.einsum(m.reshape(dims + dims), [*range(k), *cols], keep + [k + s for s in keep])
    return out.reshape(d_keep, d_keep)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input this is sum |eigenvalue|."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace_norm requires a square matrix, got shape {m.shape}")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for Hermitian unit-trace operators."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if not (is_hermitian(rho) and is_hermitian(sigma)):
        raise ValueError("trace_distance requires Hermitian inputs")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
