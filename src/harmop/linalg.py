"""Dense linear algebra: null spaces, subspaces, commutants.

Every rank decision in the package goes through one rank-revealing
decomposition (SVD, or Hermitian eigendecomposition for PSD tests) with the
threshold rank_tol * largest singular value.  Each matrix is decomposed in
the field its entries live in (_in_field): one whose imaginary part is
exactly zero goes to float64 LAPACK, any other to complex128.  No tolerance
is applied to the imaginary part, and every Subspace basis is complex128.
Matrices embedded as ambient vectors are always vectorized row-major.  The
order cap, the PSD test and the cutoff that decides sigma(x) = 1 live here
once each.  Subspaces are compared from their bases, never their projectors.

A commutant is found in two stages.  Stage 1 splits the spectrum of one
Hermitian element h of the generated algebra into clusters; that split is
the one eigenvalue decision outside _rank, and it can only enlarge the
space searched: the clusters are cut only at gaps wider than both
diagonal_cutoff and what the eigenvectors can be trusted across, and any
commutant element lies in the blocks they leave.  Stage 2 makes the rank
decision, one null space over those blocks with every generator imposed.
Each result is certified before it is returned: its commutator with every
generator and adjoint is at most eq_tol * max(1, scale), and the measured
eigenvector residual of h is small enough at the narrowest split; otherwise
LinAlgContractError names both.

A double commutant is the commutant of a basis of the first commutant A.
When A is commutative it needs no second pass: the stage-1 element h of
that basis has one spectral projection per dimension of A, which then span
A, and A' is block diagonal in h's eigenbasis, a block per cluster (the
commutative case of Murota, Kanno, Kojima and Kojima, 2010).  The block
form is taken only when the cluster count, h's commutators with A, the
generators' mass off the blocks and the eigenvector residual certify it;
otherwise the second pass runs, with its closure checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# |G|^4 work: commutator stacks, dense superoperators, the doubled space
SUPEROP_CAP = 24
# frac(k * golden ratio) spreads the weights of commutant's Hermitian element
_GOLDEN = (1 + math.sqrt(5)) / 2
# nominal residual ||hU - U diag(w)||_F of a Hermitian eigensolver, per n ||h||;
# the largest measured on the subgroup commutants of ten groups of order 2-24
# (and their second passes) is 1.1 eps
_EIGH_RESIDUAL = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    rank_tol: float = 1e-9
    eq_tol: float = 1e-8
    entry_tol: float = 1e-10

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.rank_tol, self.eq_tol, self.entry_tol)):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerances()


class LinAlgContractError(ValueError):
    """A verified algebraic contract failed (usually a tolerance mismatch)."""


class SizeCapError(ValueError):
    """The group is too large for a commutant or doubled-space computation."""


def check_cap(n: int, what: str) -> None:
    """Raise SizeCapError for order n above SUPEROP_CAP, before any n^4 array
    is allocated; ``what`` names the computation in the message."""
    if n > SUPEROP_CAP:
        raise SizeCapError(f"{what} capped at order {SUPEROP_CAP}, got {n}")


def diagonal_cutoff(values, tol: Tolerances = DEFAULT_TOL) -> float:
    """rank_tol * max(1, max|values|): the cutoff at which an SVD reads an
    entry of a diagonal map with these values (or an eigenvalue of a spectrum)
    as zero.  So |sigma(x) - 1| <= diagonal_cutoff(sigma) is sigma(x) = 1 as
    the fixed points of the multiplier action see it."""
    return tol.rank_tol * max(1.0, float(np.abs(values).max(initial=0.0)))


def psd_eigh(k_mat, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, np.ndarray, np.ndarray]:
    """The PSD test: K is Hermitian within entry_tol * max(1, max|K|) and the
    smallest eigenvalue of its Hermitian part is at least -diagonal_cutoff of
    the spectrum.  Returns the verdict and the eigenvalues and eigenvectors of
    the Hermitian part (K + K*) / 2."""
    scale = max(1.0, float(np.abs(k_mat).max(initial=0.0)))
    hermitian = float(np.abs(k_mat - k_mat.conj().T).max(initial=0.0)) <= tol.entry_tol * scale
    w, vecs = np.linalg.eigh((k_mat + k_mat.conj().T) / 2)
    return hermitian and float(w.min(initial=0.0)) >= -diagonal_cutoff(w, tol), w, vecs


class Subspace:
    """A linear subspace of C^ambient_dim as an orthonormal basis.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns B.  Every
    comparison works from B; no ambient_dim x ambient_dim projector B B* is formed.
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex).reshape(ambient_dim, -1)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def residuals(self, vectors) -> np.ndarray:
        """||v - B B* v|| for each column v of ``vectors``, B in its own field."""
        basis = _in_field(self.basis)
        return np.linalg.norm(vectors - basis @ (basis.conj().T @ vectors), axis=0)

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
        mat = np.asarray(vectors)
        if mat.ndim != 2:
            mat = mat.reshape(len(mat), -1)
        return range_space(mat.T, tol)


def _in_field(mat) -> np.ndarray:
    """mat as float64 if its imaginary part is exactly zero, else as complex128,
    so a real matrix gets real LAPACK whatever dtype it arrived in."""
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and mat.imag.any():
        return mat.astype(complex, copy=False)
    return np.asarray(mat.real, dtype=float)


def _rank(s: np.ndarray, tol: Tolerances, scale: float | None = None) -> int:
    """The number of singular values s (descending) above the rank cutoff
    rank_tol * scale, where scale defaults to the largest of them."""
    cutoff = tol.rank_tol * (scale if scale is not None else (s[0] if s.size else 0.0))
    return int(np.sum(s > cutoff))


def null_space(mat, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of {v : Mv ~ 0}, thresholded at rank_tol * ||M||.

    ``scale`` overrides the reference norm; callers whose matrix is a
    difference of same-sized terms (commutators, Phi - id) pass the scale of
    the terms so that an all-but-zero stack reads as rank zero.  A stack
    taller than wide is reduced to the R of its QR factorization, which has
    the same singular values and right singular vectors, so no U is formed.
    """
    mat = _in_field(mat)
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
    return Subspace(cols, vh[_rank(s, tol, scale):].conj().T)


def range_space(mat, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space; ``scale`` as in null_space."""
    mat = _in_field(mat)
    rows, cols = mat.shape
    if cols == 0:
        return Subspace.zero(rows)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return Subspace(rows, u[:, :_rank(s, tol, scale)])


def projector_distance(a: Subspace, b: Subspace) -> float:
    """||P_a - P_b||_F = hypot(||A - B M||_F, ||B - A M*||_F) with M = B* A: the two
    terms of P_a (I - P_b) - (I - P_a) P_b are Frobenius-orthogonal, so nothing cancels."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    pa, pb = _in_field(a.basis), _in_field(b.basis)
    m = pb.conj().T @ pa
    return math.hypot(np.linalg.norm(pa - pb @ m), np.linalg.norm(pb - pa @ m.conj().T))


def inclusion_residual(a: Subspace, b: Subspace) -> float:
    """||P_a P_b - P_a||_F = ||(I - P_b) A||_F, zero iff span(a) <= span(b)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return float(np.linalg.norm(b.residuals(a.basis)))


# ---------------------------------------------------------------------------
# commutants

class _Split(NamedTuple):
    """Stage 1 of a commutant: the Hermitian element h, ||h||, its eigenbasis U,
    the cluster count, the kept pairs (i, j) with eigenvalues i and j in one
    cluster, and whether the measured eigenvector residual is trusted at every
    split (leak * residual <= the narrowest split gap)."""

    herm: np.ndarray
    norm: float
    u: np.ndarray
    clusters: int
    kept: np.ndarray
    trusted: bool
    eig_resid: float
    gap: float


def _stage_one(stack: np.ndarray, n: int, tol: Tolerances) -> _Split:
    """The spectral clusters of one Hermitian element h = sum_k c_k (A_k + A_k*)
    of the algebra the stack generates, with fixed weights c_k.

    An eigenvector residual r moves a commutant direction at most 2 r / g out
    of the kept span across a split at gap g, and stage 2 still keeps it when
    8 sqrt(K) r / g <= rank_tol for K generators.  Splits are made only at gaps
    where the nominal residual meets that; ``trusted`` checks the measured one.
    """
    weights = 1.0 + (np.arange(1, len(stack) + 1) * _GOLDEN) % 1.0
    herm = np.einsum("k,kij->ij", weights, stack + stack.conj().transpose(0, 2, 1))
    w, u = np.linalg.eigh(herm)
    norm = float(np.abs(w).max(initial=0.0))
    leak = 8 * math.sqrt(len(stack)) / tol.rank_tol
    gaps = np.diff(w)
    split = gaps > max(diagonal_cutoff(w, tol), leak * _EIGH_RESIDUAL * n * norm)
    cluster = np.concatenate([[0], np.cumsum(split)])
    eig_resid = float(np.linalg.norm(herm @ u - u * w))
    gap = float(gaps[split].min(initial=np.inf))
    return _Split(herm, norm, u, int(cluster[-1]) + 1, cluster[:, None] == cluster[None, :],
                  leak * eig_resid <= gap, eig_resid, gap)


def commutant(generators, n: int | None = None, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """{X : XA = AX and XA* = A*X for all generators A} as vectorized matrices.

    Adjoints not already in the list are appended, so the result is a
    *-algebra.  Stage 1 takes one Hermitian element h = sum_k c_k (A_k + A_k*)
    of the generated algebra, with fixed weights c_k, and its eigenbasis U.
    Every X in the commutant commutes with h's spectral projections, so
    U* X U lies in the span of the E_ij whose eigenvalues i and j share a
    cluster; stage 1 can only make that span too large.  Stage 2 is the null
    space, at the generator scale, of the commutators with every U* A U over
    that span, rotated back by U.  The result is certified on every call
    (LinAlgContractError otherwise): each basis element commutes with each
    generator within eq_tol * max(1, scale), and the eigenvector residual is
    small enough at every split.  An empty list needs ``n`` and yields the
    full space.  Matrices above SUPEROP_CAP raise SizeCapError before anything
    is allocated.  Every decomposition is float64 when every generator is real.
    """
    gens = [np.asarray(g) for g in generators]
    if not gens and n is None:
        raise ValueError("pass n for an empty generator list")
    n = gens[0].shape[0] if gens else n
    check_cap(n, "commutants")
    if not gens:
        return Subspace.full(n * n)
    if any(g.shape != (n, n) for g in gens):
        raise ValueError(f"generators must all have shape ({n}, {n})")
    stack = _in_field(np.stack(gens))
    if not np.all(np.isfinite(stack)):
        raise ValueError("generators have non-finite entries")
    # adding 0 turns -0.0 into 0.0, so exactly equal matrices have equal bytes
    listed = {(g + 0).tobytes() for g in stack}
    adjoints = [a for a in stack.conj().transpose(0, 2, 1) if (a + 0).tobytes() not in listed]
    if adjoints:
        stack = np.concatenate([stack, adjoints])
    # a commutator is "zero" relative to the generator scale, not relative to
    # the largest commutator in the stack
    scale = float(np.linalg.norm(stack, 2, axis=(1, 2)).max())
    split = _stage_one(stack, n, tol)
    ii, jj = np.nonzero(split.kept)
    d = len(ii)
    u = split.u

    # stage 2: column p = (i, j) is vec(B E_ij - E_ij B) for each B = U* A U;
    # its rows (a, j) get B[a, i] and its rows (i, b) get -B[j, b]
    rotated = u.conj().T @ stack @ u
    cols = np.arange(d)
    sylvester = np.zeros((len(stack), n, n, d), dtype=rotated.dtype)
    sylvester[:, :, jj, cols] = rotated[:, :, ii]
    sylvester[:, ii, :, cols] -= rotated[:, jj, :].transpose(1, 0, 2)
    kernel = _in_field(null_space(sylvester.reshape(-1, d), tol, scale=scale).basis)
    small = np.zeros((kernel.shape[1], n, n), dtype=kernel.dtype)
    small[:, ii, jj] = kernel.T
    mats = u @ small @ u.conj().T

    # certification: every basis element commutes with every generator, and
    # the measured eigenvector residual kept every split's leak under the cutoff
    resid = 0.0
    step = max(1, (1 << 20) // max(1, mats.size))  # about 2^20 commutator entries at a time
    for start in range(0, len(stack), step):
        block = stack[start:start + step, None]
        resid = max(resid, float(np.linalg.norm(block @ mats - mats @ block, axis=(2, 3))
                                 .max(initial=0.0)))
    if not (resid <= tol.eq_tol * max(1.0, scale) and split.trusted):
        ref = max(1.0, split.norm)
        raise LinAlgContractError(
            f"commutant not certified: commutator residual {resid:.3g} at generator scale "
            f"{scale:.3g}; eigenvector residual {split.eig_resid / ref:.3g} and smallest split "
            f"gap {split.gap / ref:.3g}, both relative to max(1, ||h||)")
    return Subspace(n * n, mats.reshape(len(mats), -1).T)


def _block_form(generators, first: Subspace, n: int, tol: Tolerances) -> Subspace | None:
    """A' in block form, read off stage 1 of a basis of the first commutant A,
    or None when any of the conditions in double_commutant fails."""
    basis = _in_field(first.basis).T.reshape(-1, n, n)
    split = _stage_one(basis, n, tol)
    if split.clusters != first.dim or not split.trusted:
        return None
    herm, u = split.herm, split.u
    central = float(np.linalg.norm(basis @ herm - herm @ basis, axis=(1, 2)).max())
    if central > tol.eq_tol * max(1.0, split.norm):
        return None
    if generators:  # checked by the first commutant; adjoints add nothing here
        stack = _in_field(np.stack(generators))
        off_block = float(np.linalg.norm((u.conj().T @ stack @ u) * ~split.kept, axis=(1, 2)).max())
        # the generator scale (an SVD per generator) is needed only above eq_tol
        if off_block > tol.eq_tol and off_block > tol.eq_tol * float(
                np.linalg.norm(stack, 2, axis=(1, 2)).max()):
            return None
    ii, jj = np.nonzero(split.kept)
    return Subspace(n * n, (u[:, None, ii] * u.conj()[None, :, jj]).reshape(n * n, -1))


def double_commutant(generators, n: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The *-algebra generated by the generators: the commutant A' of their
    commutant A.

    Block form: A is a *-algebra that holds the stage-1 element h of a basis of
    A, h = sum_k c_k (B_k + B_k*) with commutant's weights, so h's spectral
    projections lie in A and are linearly independent.  When h has dim A
    clusters they span A, A is commutative, and A' = span{u_i u_j* : i, j in
    one cluster} over h's eigenvectors u_i.  That basis is orthonormal and
    closed under products and adjoints by construction, so it is returned with
    no second pass when, besides the cluster count, every basis element of A
    commutes with h within eq_tol * max(1, ||h||), every generator's mass off
    the blocks is within eq_tol * max(1, scale) for the largest generator
    norm scale, and the measured eigenvector
    residual is trusted at every split, as commutant certifies it.

    Otherwise (a non-commutative A such as the right-regular algebra, or an h
    whose clusters merged) a second commutant pass uses a basis of A as its
    generators, and all adjoints and pairwise products of its basis are
    projected in blocks and must stay within eq_tol * max(1, ||v||) of the
    result; they are formed in the field of the result's basis, which is real
    when the first basis is.
    """
    generators = [np.asarray(g) for g in generators]
    first = commutant(generators, n, tol)
    n = math.isqrt(first.ambient_dim)
    block = _block_form(generators, first, n, tol)
    if block is not None:
        return block
    second = commutant(list(first.basis.T.reshape(-1, n, n)), n, tol)
    mats = _in_field(second.basis).T.reshape(-1, n, n)

    def closed(vectors: np.ndarray) -> bool:
        resid = second.residuals(vectors.T)
        return bool(np.all(resid <= tol.eq_tol * np.maximum(1.0, np.linalg.norm(vectors, axis=1))))

    if not closed(mats.conj().transpose(0, 2, 1).reshape(-1, n * n)):
        raise LinAlgContractError("double commutant not closed under adjoint")
    step = max(1, (1 << 20) // max(1, mats.size))  # about 2^20 product entries at a time
    for start in range(0, len(mats), step):
        prods = mats[start:start + step, None] @ mats
        if not closed(prods.reshape(-1, n * n)):
            raise LinAlgContractError("double commutant not closed under product")
    return second


def psd_factorize(k_mat, tol: Tolerances = DEFAULT_TOL) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (u_i, v_i) with K = sum_i u_i v_i^T (plain outer products).

    Input that passes psd_eigh gets a Gram factorization from its
    eigendecomposition (v_i = conj(u_i)); anything else an SVD one.
    """
    k_mat = np.asarray(k_mat, dtype=complex)
    n = k_mat.shape[0]
    if not np.all(np.isfinite(k_mat)):
        raise ValueError("matrix has non-finite entries")
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    psd, w, vecs = psd_eigh(k_mat, tol)
    if psd:
        cutoff = diagonal_cutoff(w, tol)
        for lam, col in zip(w, vecs.T):
            if lam > cutoff:
                u = np.sqrt(lam) * col
                pairs.append((u, u.conj()))
    else:
        u, s, vh = np.linalg.svd(k_mat)
        rank = _rank(s, tol)
        # K = U diag(s) V^H, and the rows of vh are already the conjugated
        # right singular vectors, so K = sum_i (s_i u_i) vh_i^T directly
        pairs = [(sigma * ucol, vrow) for sigma, ucol, vrow in zip(s[:rank], u.T, vh)]
    recon = sum((np.outer(u, v) for u, v in pairs), np.zeros((n, n), dtype=complex))
    scale = max(1.0, float(np.abs(k_mat).max(initial=0.0)))
    if float(np.abs(recon - k_mat).max(initial=0.0)) > tol.entry_tol * scale:
        raise LinAlgContractError("factorization residual above entry tolerance")
    return pairs
