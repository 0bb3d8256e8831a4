"""Dense complex linear algebra: null spaces, subspaces, commutants.

Every rank decision in the package goes through one rank-revealing
decomposition (SVD, or Hermitian eigendecomposition for PSD tests) with the
threshold rank_tol * largest singular value.  Matrices embedded as ambient
vectors are always vectorized row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    rank_tol: float = 1e-9
    eq_tol: float = 1e-8
    entry_tol: float = 1e-10

    def __post_init__(self):
        if min(self.rank_tol, self.eq_tol, self.entry_tol) <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = Tolerances()


class LinAlgContractError(ValueError):
    """A verified algebraic contract failed (usually a tolerance mismatch)."""


class Subspace:
    """A linear subspace of C^ambient_dim as an orthonormal basis.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns; the
    orthogonal projector is cached on first use.
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex).reshape(ambient_dim, -1)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.basis.setflags(write=False)
        self._projector: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        if self._projector is None:
            self._projector = self.basis @ self.basis.conj().T
        return self._projector

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @classmethod
    def from_span(cls, vectors, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize a (possibly dependent) spanning list of vectors."""
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2:
            mat = mat.reshape(len(mat), -1)
        return range_space(mat.T, tol)

    def contains_vector(self, v: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
        v = np.asarray(v, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            return True
        return np.linalg.norm(self.projector @ v - v) <= tol.eq_tol * max(1.0, norm)


def null_space(mat, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of {v : Mv ~ 0}, thresholded at rank_tol * ||M||.

    ``scale`` overrides the reference norm; callers whose matrix is a
    difference of same-sized terms (commutators, Phi - id) pass the scale of
    the terms so that an all-but-zero stack reads as rank zero.  A stack
    taller than wide is reduced to the R of its QR factorization, which has
    the same singular values and right singular vectors, so no U is formed.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("null_space expects a matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    rows, cols = mat.shape
    if rows == 0:
        return Subspace.full(cols)
    if rows > cols:
        # rows that are exactly zero change neither the singular values nor vh
        nonzero = mat.any(axis=1)
        mat = np.linalg.qr(mat if nonzero.all() else mat[nonzero], mode="r")
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    cutoff = tol.rank_tol * (scale if scale is not None else (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return Subspace(cols, vh[rank:].conj().T)


def range_space(mat, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space; ``scale`` as in null_space."""
    mat = np.asarray(mat, dtype=complex)
    rows, cols = mat.shape
    if cols == 0:
        return Subspace.zero(rows)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    cutoff = tol.rank_tol * (scale if scale is not None else (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return Subspace(rows, u[:, :rank])


def projector_distance(a: Subspace, b: Subspace) -> float:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return float(np.linalg.norm(a.projector - b.projector))


def subspace_equal(a: Subspace, b: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    return projector_distance(a, b) <= tol.eq_tol


def subspace_contains(a: Subspace, b: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff span(a) is contained in span(b)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    pa, pb = a.projector, b.projector
    return float(np.linalg.norm(pa @ pb - pa)) <= tol.eq_tol


# ---------------------------------------------------------------------------
# commutants

def commutant(generators, n: int | None = None, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """{X : XA = AX and XA* = A*X for all generators A} as vectorized matrices.

    Adjoints not already in the list are appended, so the result is a
    *-algebra.  Computed as the null space of the Sylvester stack X -> (AX -
    XA)_A, whose row (i, j), column (k, l) is A[i, k] d(j, l) - d(i, k) A[l, j]
    (row-major), filled for all generators at once by broadcasting into its
    two diagonals.  An empty list needs ``n`` and yields the full space.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        if n is None:
            raise ValueError("pass n for an empty generator list")
        return Subspace.full(n * n)
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ValueError(f"generators must all have shape ({n}, {n})")
    # adding 0 turns -0.0 into 0.0, so exactly equal matrices have equal bytes
    listed = {(g + 0).tobytes() for g in gens}
    gens += [a for a in (g.conj().T for g in gens) if (a + 0).tobytes() not in listed]
    stack = np.stack(gens)
    sylvester = np.zeros((len(gens), n, n, n, n), dtype=complex)
    # writable diagonal views: the j = l entries get A[i, k], the i = k ones -A[l, j]
    np.einsum("gijkj->gijk", sylvester)[...] += stack[:, :, None]
    np.einsum("gijil->gijl", sylvester)[...] -= stack.transpose(0, 2, 1)[:, None]
    # a commutator is "zero" relative to the generator scale, not relative to
    # the largest commutator in the stack
    scale = float(np.linalg.norm(stack, 2, axis=(1, 2)).max())
    return null_space(sylvester.reshape(-1, n * n), tol, scale=scale)


def double_commutant(generators, n: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The *-algebra generated by the generators, via two commutant passes.

    The second pass uses a basis of the first as its generators.  All adjoints
    and pairwise products are projected in blocks and must stay within
    eq_tol * max(1, ||v||) of the result.
    """
    first = commutant(generators, n, tol)
    n = math.isqrt(first.ambient_dim)
    second = commutant(list(first.basis.T.reshape(-1, n, n)), n, tol)
    mats = second.basis.T.reshape(-1, n, n)

    def closed(vectors: np.ndarray) -> bool:
        resid = np.linalg.norm(vectors - (vectors @ second.basis.conj()) @ second.basis.T, axis=1)
        return bool(np.all(resid <= tol.eq_tol * np.maximum(1.0, np.linalg.norm(vectors, axis=1))))

    if not closed(mats.conj().transpose(0, 2, 1).reshape(-1, n * n)):
        raise LinAlgContractError("double commutant not closed under adjoint")
    step = max(1, (1 << 20) // max(1, mats.size))  # about 16 MB of products
    for start in range(0, len(mats), step):
        prods = mats[start:start + step, None] @ mats
        if not closed(prods.reshape(-1, n * n)):
            raise LinAlgContractError("double commutant not closed under product")
    return second


def psd_factorize(k_mat, tol: Tolerances = DEFAULT_TOL) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (u_i, v_i) with K = sum_i u_i v_i^T (plain outer products).

    Hermitian PSD input gets a Gram factorization from its eigendecomposition
    (v_i = conj(u_i)); anything else falls back to an SVD rank decomposition.
    """
    k_mat = np.asarray(k_mat, dtype=complex)
    n = k_mat.shape[0]
    if not np.all(np.isfinite(k_mat)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(k_mat).max()) if k_mat.size else 0.0)
    hermitian = float(np.abs(k_mat - k_mat.conj().T).max()) <= tol.entry_tol * scale
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    if hermitian:
        w, vecs = np.linalg.eigh((k_mat + k_mat.conj().T) / 2)
        top = float(np.abs(w).max()) if w.size else 0.0
        if w.size == 0 or w.min() >= -tol.rank_tol * max(top, 1.0):
            for lam, col in zip(w, vecs.T):
                if lam > tol.rank_tol * max(top, 1.0):
                    u = np.sqrt(lam) * col
                    pairs.append((u, u.conj()))
            hermitian = True
        else:
            hermitian = False
    if not hermitian:
        u, s, vh = np.linalg.svd(k_mat)
        cutoff = tol.rank_tol * (s[0] if s.size else 0.0)
        # K = U diag(s) V^H, and the rows of vh are already the conjugated
        # right singular vectors, so K = sum_i (s_i u_i) vh_i^T directly
        for sigma, ucol, vrow in zip(s, u.T, vh):
            if sigma > cutoff:
                pairs.append((sigma * ucol, vrow))
    recon = sum((np.outer(u, v) for u, v in pairs), np.zeros((n, n), dtype=complex))
    if float(np.abs(recon - k_mat).max()) > tol.entry_tol * scale:
        raise LinAlgContractError("factorization residual above entry tolerance")
    return pairs
