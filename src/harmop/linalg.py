"""Dense linear algebra: null spaces, subspaces, commutants.

Every rank decision in the package goes through one rank-revealing
decomposition (SVD, or Hermitian eigendecomposition for PSD tests) with the
threshold rank_tol * largest singular value.  Each matrix is decomposed in
the field its entries live in (_in_field): one whose imaginary part is
exactly zero goes to float64 LAPACK, any other to complex128.  Only stage 1
drops an imaginary part (one below eps ||h||); every Subspace is complex128.
Matrices embedded as ambient vectors are always vectorized row-major.  The
order cap, the PSD test and the cutoff that decides sigma(x) = 1 live here
once each.  Subspaces are compared from their bases, never their projectors.

A commutant is found in two stages.  Stage 1 splits the spectrum of one
Hermitian element h of the generated algebra into clusters; that split is
the one eigenvalue decision outside _rank, and it can only enlarge the
space searched: a gap is cut only when it is wider than diagonal_cutoff and
than what the measured eigenvector residual of h can leak across it.
Stage 2 makes the rank decision, one null space over the blocks the cuts
leave, with every generator imposed.  Each result is certified: its
commutator with every generator and adjoint is at most eq_tol * max(1,
scale), or LinAlgContractError gives the residual and that bound.

A double commutant is read off stage 1 on a basis of the first commutant A
(Maehara and Murota, 2010): the clusters are the irreducible modules of A',
a second element of A links the clusters of each isotypic component, and A'
is spanned by the matrix units carried through the links.  Four guards
certify it, raising LinAlgContractError with a value and bound; no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |G|^4 work: commutator stacks, dense superoperators, the doubled space
SUPEROP_CAP = 24
# entries of the largest intermediate a stacked computation forms at once
CHUNK_ENTRIES = 1 << 20
_GOLDEN, _SILVER = (1 + math.sqrt(5)) / 2, 1 + math.sqrt(2)


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


def null_spaces(stack, tol: Tolerances = DEFAULT_TOL,
                scale: float | None = None) -> list[Subspace]:
    """null_space of each matrix of a (count, rows, cols) stack, from one
    stacked decomposition.

    Each matrix's nonzero rows are packed first, in order, and padded with
    zero rows up to the stack's largest count; neither changes its singular
    values or right singular vectors.  A packed stack taller than wide is
    reduced to its R factors, so no U is formed.  Each matrix is cut at
    rank_tol times its own largest singular value, or times ``scale`` when
    given.  The caller bounds the stack's size (CHUNK_ENTRIES).
    """
    stack = _in_field(stack)
    if stack.ndim != 3:
        raise ValueError("null_spaces expects a stack of matrices")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    count, rows, cols = stack.shape
    nonzero = stack.any(axis=2)
    counts = nonzero.sum(axis=1)
    width = int(counts.max(initial=0))
    if width == 0:
        return [Subspace.full(cols) for _ in range(count)]
    if width < rows:
        # stack[nonzero] lists each matrix's nonzero rows in order, matrix by matrix
        packed = np.zeros((count, width, cols), dtype=stack.dtype)
        packed[np.arange(width) < counts[:, None]] = stack[nonzero]
        stack = packed
    if width > cols:
        stack = np.linalg.qr(stack, mode="r")
    _, s, vh = np.linalg.svd(stack, full_matrices=True)
    cut = tol.rank_tol * (s[:, :1] if scale is None else scale)
    ranks = (s > cut).sum(axis=1)
    return [Subspace(cols, v[rank:].conj().T) for v, rank in zip(vh, ranks.tolist())]


def null_space(mat, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of {v : Mv ~ 0}, thresholded at rank_tol * ||M||:
    null_spaces on a stack of one.

    ``scale`` overrides the reference norm; callers whose matrix is a
    difference of same-sized terms (commutators, Phi - id) pass the scale of
    the terms so that an all-but-zero stack reads as rank zero.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("null_space expects a matrix")
    return null_spaces(mat[None], tol, scale)[0]


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

def _weights(count: int, ratio: float = _GOLDEN) -> np.ndarray:
    """1 + frac(k * ratio) for k = 1..count; _SILVER gives imaginary parts."""
    return 1.0 + (np.arange(1, count + 1) * ratio) % 1.0


_COMPLEX_WEIGHTS = _weights(SUPEROP_CAP ** 2) + 1j * _weights(SUPEROP_CAP ** 2, _SILVER)


def _stage_one(stack: np.ndarray, weights: np.ndarray,
               tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbasis U of h = sum_k (c_k A_k + conj(c_k) A_k*), for the
    caller's weights c_k, and the cluster of each (ascending) eigenvalue.

    An eigenvector residual r moves a commutant direction at most 2 r / g out
    of the kept span across a split at gap g, and stage 2 still keeps it when
    8 sqrt(K) r / g <= rank_tol for K generators.  So a gap is cut only when it
    is wider than diagonal_cutoff and than 8 sqrt(K) r / rank_tol, with r the
    measured ||hU - U diag(w)||_F floored at eps ||h|| for the rounding in r;
    the 2 r / g a cut moves stays in commutant's result.
    """
    half = (weights @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])
    herm, eps = half + half.conj().T, np.finfo(float).eps
    # an imaginary part below eps ||h|| is rounding: a symmetric stack stays real
    if np.iscomplexobj(herm) and np.abs(herm.imag).max() <= eps * np.abs(herm).max():
        herm = herm.real
    w, u = np.linalg.eigh(herm)
    resid = max(float(np.linalg.norm(herm @ u - u * w)), eps * max(-w[0], w[-1]))  # w ascends
    leak = 8 * math.sqrt(len(stack)) / tol.rank_tol
    split = np.diff(w) > max(diagonal_cutoff(w, tol), leak * resid)
    return u, np.concatenate([[0], np.cumsum(split)])


def commutant(generators, n: int | None = None, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """{X : XA = AX and XA* = A*X for all generators A} as vectorized matrices.

    Adjoints not already in the list are appended, so the result is a
    *-algebra.  Stage 1 takes h = sum_k c_k (A_k + A_k*) with real weights
    c_k = 1 + frac(k * golden ratio) and its eigenbasis U; every X in the
    commutant commutes with h's spectral projections, so U* X U lies in the
    span of the E_ij whose eigenvalues i and j share a cluster.  Stage 2 is
    the null space, at the generator scale, of the commutators with every
    U* A U over that span, rotated back by U.  Each basis element must commute
    with each generator within eq_tol * max(1, scale), or LinAlgContractError
    is raised.  An empty list needs ``n`` and yields the full space; above
    SUPEROP_CAP, SizeCapError comes before any allocation.  Every
    decomposition is float64 when every generator is real.
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
    u, cluster = _stage_one(stack, _weights(len(stack)), tol)
    ii, jj = np.nonzero(cluster[:, None] == cluster[None, :])
    d = len(ii)

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

    # certification: every basis element commutes with every generator
    resid = 0.0
    step = max(1, CHUNK_ENTRIES // max(1, mats.size))  # commutator entries at a time
    for start in range(0, len(stack), step):
        block = stack[start:start + step, None]
        resid = max(resid, float(np.linalg.norm(block @ mats - mats @ block, axis=(2, 3))
                                 .max(initial=0.0)))
    bound = tol.eq_tol * max(1.0, scale)
    if not resid <= bound:
        raise LinAlgContractError(f"commutant not certified: commutator residual {resid:.3g} "
                                  f"above its bound {bound:.3g}, at generator scale {scale:.3g}")
    return Subspace(n * n, mats.reshape(len(mats), -1).T)


def _certify(guard: str, value: float, bound: float) -> None:
    """Unless value <= bound, raise LinAlgContractError with all three."""
    if not value <= bound:
        raise LinAlgContractError(f"double commutant not certified: {guard} "
                                  f"{value:.3g} above its bound {bound:.3g}")


def double_commutant(generators, n: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The *-algebra generated by the generators, A' for their commutant A,
    from one commutant call and stage 1 on a basis B_k of A.

    Up to a unitary, A is a sum of components M_m (x) 1_d and A' the sum of
    the 1_m (x) M_d.  With complex weights c_k, h = sum_k (c_k B_k + conj(c_k)
    B_k*) is generic: each component gives m clusters of d eigenvectors, one
    irreducible module of A' each (real weights leave Q8's quaternionic pair
    merged).  Each cluster's spectral projection lies in A; U becomes the
    nearest unitary to the projections onto A applied to its columns, so a
    gap g costs second order in eps ||h|| / g.  The link U_i* B U_j, B =
    sum_k c_k B_k, is a multiple of a unitary when clusters i and j share a
    component and zero otherwise.  Cluster j takes the frame V_j = U_j T_j*,
    T_j the polar factor of its link from its component's first cluster, and
    A' is spanned by sum_j V_j E_ab V_j* over each component.

    Guards, each raising LinAlgContractError with its value and bound:
    link_unitarity (each scaled link unitary within eq_tol), cluster_count
    (dim A = sum m^2), centrality (each B_k within eq_tol of S (x) 1_d in the
    frames) and containment (each generator within eq_tol * max(1, scale)).
    """
    generators = [np.asarray(g) for g in generators]
    first = commutant(generators, n, tol)
    n = math.isqrt(first.ambient_dim)
    basis = _in_field(first.basis).T.reshape(-1, n, n)
    weights = _COMPLEX_WEIGHTS[:len(basis)]
    u, cluster = _stage_one(basis, weights, tol)
    sizes = np.bincount(cluster)
    starts = np.cumsum(sizes) - sizes
    # U_c U_c* projected onto A is sum_k conj(tr(U_c* B_k U_c)) B_k
    bu = basis @ u
    traces = np.add.reduceat((u.conj() * bu).sum(axis=1), starts, axis=1)
    u = np.matmul(*np.linalg.svd(np.einsum("ka,kia->ia", traces.conj()[:, cluster], bu))[::2])
    inbasis = u.conj().T @ basis @ u

    # cluster i joins the component of the first cluster j with U_i* B U_j nonzero
    rotated = np.einsum("k,kij->ij", weights, inbasis)
    mass = np.add.reduceat(np.add.reduceat(np.abs(rotated) ** 2, starts, axis=0), starts, axis=1)
    linked = mass > tol.rank_tol ** 2 * mass.sum()
    np.fill_diagonal(linked, True)
    root = np.argmax(linked, axis=1)
    links = [j for j, r in enumerate(root.tolist()) if r != j]

    # each linked cluster j turns to its frame V_j = U_j T_j*, in the eigenbasis too
    frames = u.astype(rotated.dtype if links else u.dtype)
    inframe = inbasis.astype(frames.dtype)
    for j in links:  # a link between clusters of unequal size cannot pass
        at = cluster == j
        link = rotated[np.ix_(cluster == root[j], at)]
        link *= math.sqrt(len(link)) / np.linalg.norm(link)
        _certify("link_unitarity", float(np.linalg.norm(
            link.conj().T @ link - np.eye(link.shape[1]))), tol.eq_tol)
        link = np.matmul(*np.linalg.svd(link)[::2])  # its polar factor
        frames[:, at] = frames[:, at] @ link.conj().T
        inframe[:, at] = link @ inframe[:, at]
        inframe[:, :, at] = inframe[:, :, at] @ link.conj().T
    members = np.bincount(root, minlength=len(sizes))
    _certify(f"cluster_count |sum m^2 - dim A| (dim A = {first.dim})",
             abs(int((members ** 2).sum()) - first.dim), 0)

    # S (x) 1_d takes its entries at the first position of each cluster pair
    comp, loc, first_at = root[cluster], np.arange(n) - starts[cluster], starts[cluster]
    ident = (comp[:, None] == comp[None, :]) & (loc[:, None] == loc[None, :])
    implied = inframe[:, first_at[:, None], first_at] * ident
    _certify("centrality", float(np.linalg.norm(inframe - implied, axis=(1, 2)).max()), tol.eq_tol)

    # sum_j V_j E_ab V_j*, accumulated at the pairs of the component's first cluster
    p, q = np.nonzero((cluster[:, None] == cluster[None, :]) & (comp == cluster)[:, None])
    span = frames[:, None, p] * frames.conj()[None, :, q]
    for j in links:
        at, frame = np.searchsorted(p, starts[root[j]]), frames[:, cluster == j]
        span[:, :, at:at + sizes[j] ** 2] += (
            frame[:, None, :, None] * frame.conj()[None, :, None, :]).reshape(n, n, -1)
    result = Subspace(n * n, span.reshape(n * n, -1) / np.sqrt(members[cluster[p]]))
    if generators:  # adjoints add nothing: the result is a *-algebra
        stack = _in_field(np.stack(generators))
        outside = float(result.residuals(stack.reshape(len(stack), -1).T).max())
        # the generator scale (an SVD per generator) is needed only above eq_tol
        if outside > tol.eq_tol:
            _certify("containment", outside, tol.eq_tol * max(
                1.0, float(np.linalg.norm(stack, 2, axis=(1, 2)).max())))
    return result


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
