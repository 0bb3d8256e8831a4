import math
import tracemalloc

import numpy as np
import pytest

import harmop
import harmop.linalg as linalg
from harmop.groups import all_subgroups, builtin_group, cyclic_group, symmetric_group
from harmop.actions import left_regular, schur_mask
from harmop.generators import random_positive_definite
from harmop.harmonic import _subgroup_generators
from harmop.linalg import (
    DEFAULT_TOL,
    LinAlgContractError,
    SizeCapError,
    Subspace,
    Tolerances,
    commutant,
    double_commutant,
    inclusion_residual,
    null_space,
    null_spaces,
    projector_distance,
    psd_factorize,
    range_space,
)

from spans import in_span, projector


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(rank_tol=0.0)


def test_null_space_zero_matrix():
    assert null_space(np.zeros((3, 3))).dim == 3


def test_null_space_identity():
    assert null_space(np.eye(3)).dim == 0


def test_null_space_rank_one():
    space = null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert space.dim == 1
    expected = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])  # projector onto (1,-1)/sqrt 2
    assert np.abs(projector(space) - expected).max() < 1e-12


def test_null_space_residual_bound():
    rng = np.random.default_rng(0)
    for _ in range(10):
        mat = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        mat[:, -1] = mat[:, 0]  # force a kernel
        space = null_space(mat)
        norm = np.linalg.norm(mat, 2)
        for k in range(space.dim):
            assert np.linalg.norm(mat @ space.basis[:, k]) <= 10 * DEFAULT_TOL.rank_tol * norm


def test_subspace_residual_laws():
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    space = Subspace.from_span(vectors)
    assert space.dim == 3
    # zero on the basis columns
    assert space.residuals(space.basis).max() < 1e-12
    # ||w|| on a vector orthogonal to the span
    w = 2.5 * null_space(space.basis.conj().T).basis[:, 0]
    assert abs(space.residuals(w[:, None])[0] - np.linalg.norm(w)) < 1e-12
    # Pythagoras: adding a span element leaves the residual at ||w||, while
    # the vector's own norm grows to hypot(||v||, ||w||)
    v = space.basis @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert abs(space.residuals((v + w)[:, None])[0] - np.linalg.norm(w)) < 1e-12
    assert abs(np.linalg.norm(v + w) - np.hypot(np.linalg.norm(v), np.linalg.norm(w))) < 1e-12
    # one residual per column
    together = space.residuals(np.stack([v, w, v + w], axis=1))
    assert np.allclose(together, [0.0, np.linalg.norm(w), np.linalg.norm(w)], atol=1e-12)


def test_subspace_equal_different_bases():
    a = Subspace.from_span(np.eye(2, 3))  # e1, e2
    rot = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / np.sqrt(2)
    b = Subspace.from_span(rot)
    assert projector_distance(a, b) <= 1e-8


def test_subspace_distance_orthogonal_lines():
    e1 = Subspace.from_span([[1.0, 0.0]])
    e2 = Subspace.from_span([[0.0, 1.0]])
    assert abs(projector_distance(e1, e2) - np.sqrt(2)) < 1e-12


def test_subspace_equal_tiny_perturbation():
    eps = 1e-12
    a = Subspace.from_span([[1.0, 0.0]])
    b = Subspace.from_span([[1.0, eps]])
    # projector distance of two lines at angle ~eps is ~sqrt(2)*eps
    direct = np.abs(projector(a) - projector(b)).max()
    assert direct < 1e-8
    assert projector_distance(a, b) <= 1e-8


def test_subspace_contains():
    line = Subspace.from_span([[1.0, 0.0, 0.0]])
    plane = Subspace.from_span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert inclusion_residual(line, plane) <= 1e-8
    assert inclusion_residual(plane, line) > 1e-8
    with pytest.raises(ValueError):
        inclusion_residual(line, Subspace.full(2))


def _comparison_pairs():
    """Seeded pairs of subspaces of C^12: nested, equal with different bases,
    orthogonal, zero-dimensional, full, and lines at angle 1e-12; each both
    complex and real, so both fields of the basis formulas are reached."""
    rng = np.random.default_rng(21)
    n = 12
    pairs = {}
    for field, imag in (("complex", 1j), ("real", 0.0)):
        def draw(*shape):
            return rng.standard_normal(shape) + imag * rng.standard_normal(shape)

        span = Subspace.from_span(draw(5, n))
        rebased = Subspace(n, np.linalg.qr(span.basis @ draw(5, 5))[0])
        line = Subspace.from_span(span.basis[:, :1].T)
        ortho = null_space(span.basis.conj().T).basis[:, 0]
        tilted = Subspace(n, np.cos(1e-12) * line.basis[:, 0] + np.sin(1e-12) * ortho)
        pairs.update({
            f"{field}-nested": (Subspace.from_span(span.basis[:, :2].T), span),
            f"{field}-equal": (span, rebased),
            f"{field}-orthogonal": (span, null_space(span.basis.conj().T)),
            f"{field}-zero": (Subspace.zero(n), span),
            f"{field}-full": (Subspace.full(n), span),
            f"{field}-angle": (line, tilted),
        })
    return pairs


@pytest.mark.parametrize("pair", sorted(_comparison_pairs()))
def test_basis_comparisons_match_the_dense_projector_oracle(pair):
    a, b = _comparison_pairs()[pair]
    pa, pb = projector(a), projector(b)
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        assert abs(projector_distance(x, y) - np.linalg.norm(px - py)) <= 1e-14
        assert abs(inclusion_residual(x, y) - np.linalg.norm(px @ py - px)) <= 1e-14


def test_basis_comparisons_reject_different_ambient_dimensions():
    for compare in (projector_distance, inclusion_residual):
        with pytest.raises(ValueError, match="ambient dimensions differ"):
            compare(Subspace.full(3), Subspace.full(4))


def test_projector_distance_allocates_no_ambient_square():
    # two bases of one 24-dimensional span in C^576; one complex 576 x 576
    # projector alone is 5.3 MB
    rng = np.random.default_rng(5)
    a = Subspace.from_span(rng.standard_normal((24, 576)) + 1j * rng.standard_normal((24, 576)))
    b = Subspace(576, np.linalg.qr(a.basis @ rng.standard_normal((24, 24)))[0])
    tracemalloc.start()
    try:
        distance = projector_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distance <= DEFAULT_TOL.eq_tol
    assert peak < 1 << 20


def test_range_space():
    mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    space = range_space(mat)
    assert space.dim == 1
    assert in_span(space, np.array([1.0, 0.0, 1.0]))


def test_commutant_of_identity():
    assert commutant([np.eye(3)]).dim == 9


def test_commutant_of_matrix_units():
    n = 3
    units = [np.eye(n)[:, [a]] @ np.eye(n)[[b], :] for a in range(n) for b in range(n)]
    space = commutant(units)
    assert space.dim == 1
    assert in_span(space, np.eye(n).reshape(-1) / np.sqrt(n))


def test_commutant_of_z2_translations():
    g = cyclic_group(2)
    space = commutant([left_regular(g, x) for x in range(2)])
    # hand computation: X commutes with the flip iff X = [[a, b], [b, a]]
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = Subspace.from_span([np.eye(2).reshape(-1), flip.reshape(-1)])
    assert space.dim == 2
    assert projector_distance(space, expected) <= 1e-8


def test_commutant_empty_list():
    assert commutant([], n=2).dim == 4
    with pytest.raises(ValueError):
        commutant([])


def test_double_commutant_empty_is_scalars():
    space = double_commutant([], n=3)
    assert space.dim == 1
    assert in_span(space, np.eye(3).reshape(-1) / np.sqrt(3))


def test_double_commutant_z3_translations():
    g = cyclic_group(3)
    space = double_commutant([left_regular(g, x) for x in range(3)])
    assert space.dim == 3


def test_double_commutant_diagonal_units():
    n = 4
    diags = [np.diag(np.eye(n)[a]) for a in range(n)]
    space = double_commutant(diags)
    assert space.dim == n
    expected = Subspace.from_span([d.reshape(-1) for d in diags])
    assert projector_distance(space, expected) <= 1e-8


def test_double_commutant_is_closure_operator():
    rng = np.random.default_rng(2)
    gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
    once = double_commutant(gens, 3)
    mats = [once.basis[:, k].reshape(3, 3) for k in range(once.dim)]
    twice = double_commutant(mats, 3)
    assert projector_distance(once, twice) <= DEFAULT_TOL.eq_tol


def test_double_commutant_contains_generators_and_identity():
    rng = np.random.default_rng(3)
    gens = [rng.standard_normal((4, 4)) for _ in range(2)]
    space = double_commutant(gens, 4)
    assert in_span(space, np.eye(4).reshape(-1) / 2)
    for g in gens:
        v = g.reshape(-1)
        assert in_span(space, v / np.linalg.norm(v))


def _tall_stack_with_known_kernel():
    rng = np.random.default_rng(6)
    kernel, _ = np.linalg.qr(rng.standard_normal((60, 10)) + 1j * rng.standard_normal((60, 10)))
    mat = rng.standard_normal((3600, 60)) + 1j * rng.standard_normal((3600, 60))
    return mat @ (np.eye(60) - kernel @ kernel.conj().T), kernel


@pytest.mark.parametrize("scale", [None, 100.0])
def test_null_space_of_tall_stack_matches_whole_stack_svd(scale):
    mat, kernel = _tall_stack_with_known_kernel()
    space = null_space(mat, scale=scale)
    # reference: the SVD of the whole stack, without any reduction (vh is
    # square either way, since the stack is taller than wide)
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    cutoff = DEFAULT_TOL.rank_tol * (scale if scale is not None else s[0])
    reference = Subspace(60, vh[int(np.sum(s > cutoff)):].conj().T)
    assert space.dim == reference.dim == 10
    assert projector_distance(space, reference) <= DEFAULT_TOL.eq_tol
    assert projector_distance(space, Subspace(60, kernel)) <= DEFAULT_TOL.eq_tol


def test_null_space_of_tall_stack_never_decomposes_a_tall_matrix(monkeypatch):
    mat, _ = _tall_stack_with_known_kernel()
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    null_space(mat)
    # the decomposition is stacked: the last two axes are one matrix's
    assert shapes and all(rows <= cols for *_, rows, cols in shapes)


def _matrix_null_space(mat, tol=DEFAULT_TOL, scale=None):
    """One matrix's null space from its own SVD, with no packing or QR."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    cut = tol.rank_tol * (s[0] if scale is None else scale)
    return Subspace(mat.shape[1], vh[int(np.sum(s > cut)):].conj().T)


@pytest.mark.parametrize("scale", [None, 100.0])
def test_null_spaces_cut_each_matrix_on_its_own(scale):
    """A stack of matrices with 1e-6 to 1e6 norms, zero rows interleaved and
    unequal nonzero row counts: each null space matches that matrix's own
    SVD, so one cut for the whole stack or nonzero padding would show."""
    rng = np.random.default_rng(8)
    stack = np.zeros((5, 30, 6), dtype=complex)
    for k, (rows, rank, norm) in enumerate([(20, 4, 1e6), (9, 3, 1e-6), (3, 3, 1.0),
                                             (0, 0, 1.0), (14, 5, 1.0)]):
        low = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, 6))
        stack[k, rng.choice(30, rows, replace=False)] = norm * low
    spaces = null_spaces(stack, scale=scale)
    for mat, space in zip(stack, spaces):
        reference = _matrix_null_space(mat, scale=scale)
        assert space.dim == reference.dim
        assert projector_distance(space, reference) <= 1e-12
    if scale is None:
        assert [space.dim for space in spaces] == [2, 3, 3, 6, 1]
    assert null_space(stack[1]).dim == spaces[1].dim


def test_null_space_drops_zero_rows_only():
    mat, _ = _tall_stack_with_known_kernel()
    padded = np.zeros((7200, 60), dtype=complex)
    padded[::2] = mat
    assert np.array_equal(null_space(padded).basis, null_space(mat).basis)
    assert null_space(np.zeros((5, 3))).dim == 3


# ---------------------------------------------------------------------------
# the stacked commutant: the test oracle of the two-stage engine

def _sylvester_stack(generators) -> np.ndarray:
    """The n^4 Sylvester stack X -> (AX - XA)_A over the generators and the
    adjoints not already listed: row (i, j), column (k, l) of a block is
    A[i, k] d(j, l) - d(i, k) A[l, j] (row-major), filled by broadcasting
    into its two diagonals."""
    stack = linalg._in_field(np.stack([np.asarray(g) for g in generators]))
    listed = {(g + 0).tobytes() for g in stack}
    adjoints = [a for a in stack.conj().transpose(0, 2, 1) if (a + 0).tobytes() not in listed]
    if adjoints:
        stack = np.concatenate([stack, adjoints])
    n = stack.shape[1]
    sylvester = np.zeros((len(stack), n, n, n, n), dtype=stack.dtype)
    np.einsum("gijkj->gijk", sylvester)[...] += stack[:, :, None]
    np.einsum("gijil->gijl", sylvester)[...] -= stack.transpose(0, 2, 1)[:, None]
    return sylvester.reshape(-1, n * n)


def stacked_commutant(generators, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The commutant as the null space of the whole Sylvester stack, at the
    largest spectral norm of the generators and their adjoints."""
    scale = max(np.linalg.norm(np.asarray(g), 2) for g in generators)
    return null_space(_sylvester_stack(generators), tol, scale=scale)


def assert_matches_oracle(generators, n=None):
    space, oracle = commutant(generators, n), stacked_commutant(generators)
    assert space.dim == oracle.dim
    assert projector_distance(space, oracle) <= 1e-10
    return space


def _captured_stack(monkeypatch, gens):
    """The matrix that commutant passes to null_space, and the result."""
    stacks = []
    original = linalg.null_space

    def capture(mat, tol, scale=None):
        stacks.append(mat)
        return original(mat, tol, scale=scale)

    monkeypatch.setattr(linalg, "null_space", capture)
    space = commutant(gens)
    monkeypatch.setattr(linalg, "null_space", original)
    return stacks[0], space


def test_commutator_stack_matches_kron_formula():
    rng = np.random.default_rng(7)
    n = 4
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    stack = _sylvester_stack(gens)
    eye = np.eye(n)
    # oracle: vec(AX - XA) = (kron(A, I) - kron(I, A^T)) vec(X), row-major
    full = gens + [a.conj().T for a in gens]
    expected = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in full])
    assert stack.shape == expected.shape
    assert np.abs(stack - expected).max() <= 1e-15
    # random generators leave only the scalars
    assert assert_matches_oracle(gens).dim == 1


def test_commutant_skips_adjoints_already_listed(monkeypatch):
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = np.kron(np.eye(2), b)  # commutant kron(M_2, I_3), dimension 4
    assert _sylvester_stack([a, a.conj().T]).shape == _sylvester_stack([a]).shape == (72, 36)
    explicit, with_adjoint = _captured_stack(monkeypatch, [a, a.conj().T])
    implicit, without_adjoint = _captured_stack(monkeypatch, [a])
    # the engine's stage-2 matrix has n^2 rows per generator, adjoints included
    assert explicit.shape == implicit.shape and explicit.shape[0] == 2 * 36
    assert with_adjoint.dim == without_adjoint.dim == 4
    assert projector_distance(with_adjoint, without_adjoint) <= DEFAULT_TOL.eq_tol
    # left translations of S3 are closed under adjoint: no block is added
    s3 = symmetric_group(3)
    translations = [left_regular(s3, x) for x in range(6)]
    assert _sylvester_stack(translations).shape == (6 * 36, 36)
    assert _captured_stack(monkeypatch, translations)[0].shape[0] == 6 * 36


ORACLE_ZOO = ("Z6", "S3", "D4", "Q8", "Z2xZ4", "D6")


@pytest.mark.parametrize("name", ORACLE_ZOO)
def test_commutant_matches_the_stacked_oracle_on_every_subgroup(name):
    g = builtin_group(name)
    n = g.order
    units = list(np.eye(n)[:, None, :] * np.eye(n)[:, :, None])  # the E_aa
    for sub in all_subgroups(g):
        space = assert_matches_oracle([left_regular(g, h) for h in sub] + units)
        assert space.dim == n // len(sub)


@pytest.mark.parametrize("name", ORACLE_ZOO)
@pytest.mark.parametrize("level", ["identity", "group"])
def test_double_commutant_second_pass_matches_the_stacked_oracle(name, level):
    g = builtin_group(name)
    n = g.order
    members = [g.identity] if level == "identity" else range(n)
    units = list(np.eye(n)[:, None, :] * np.eye(n)[:, :, None])
    first = commutant([left_regular(g, x) for x in members] + units, n)
    second = assert_matches_oracle(list(first.basis.T.reshape(-1, n, n)), n)
    assert second.dim == n * len(members)


def counted_commutant(monkeypatch):
    """Patch linalg.commutant to record the generator count of each call."""
    calls = []
    original = linalg.commutant

    def counted(gens, n=None, tol=DEFAULT_TOL):
        calls.append(len(gens))
        return original(gens, n, tol)

    monkeypatch.setattr(linalg, "commutant", counted)
    return calls


def closure_failure(space, n, tol: Tolerances = DEFAULT_TOL):
    """"adjoint" or "product" when an adjoint or a pairwise product of the basis
    leaves the span by more than eq_tol * max(1, its norm), else None; the
    products are formed in blocks, in the field of the basis."""
    mats = linalg._in_field(space.basis).T.reshape(-1, n, n)

    def closed(vectors: np.ndarray) -> bool:
        resid = space.residuals(vectors.T)
        return bool(np.all(resid <= tol.eq_tol * np.maximum(1.0, np.linalg.norm(vectors, axis=1))))

    if not closed(mats.conj().transpose(0, 2, 1).reshape(-1, n * n)):
        return "adjoint"
    step = max(1, (1 << 20) // max(1, mats.size))  # about 2^20 product entries at a time
    for start in range(0, len(mats), step):
        if not closed((mats[start:start + step, None] @ mats).reshape(-1, n * n)):
            return "product"
    return None


# the oracle's second pass takes rank_tol 1e-11: its stage-1 leak factor is
# 100x the default's, so it cuts only gaps where the 2 r / g a cut costs is
# far below 1e-12.  At the default rank_tol, commutant's second pass lies
# 1.1e-11 from the stripe span on one S4 subgroup (|L| = 8)
ORACLE_TOL = Tolerances(rank_tol=1e-11)


def dense_double_commutant(generators, n, closure=True) -> Subspace:
    """The oracle: the dense second pass, a commutant of a basis of the first
    commutant (the same first commutant that double_commutant reads), and
    with ``closure`` the check that its basis is closed under adjoints and
    pairwise products."""
    first = commutant(generators, n)
    second = commutant(list(first.basis.T.reshape(-1, n, n)), n, ORACLE_TOL)
    assert not closure or closure_failure(second, n) is None
    return second


@pytest.mark.parametrize("name", ORACLE_ZOO + ("S4", "D12", "Z24"))
def test_block_form_matches_the_dense_second_pass_on_every_subgroup(monkeypatch, name):
    # one commutant call on every subgroup, S4's with coset values of h as
    # close as 1.3e-4 ||h|| included.  The oracle checks closure up to order
    # 12 only: at order 24 the pairwise products of a 576-dimensional basis
    # take seconds per subgroup
    g = builtin_group(name)
    n = g.order
    calls = counted_commutant(monkeypatch)
    for sub in all_subgroups(g):
        gens = _subgroup_generators(g, sub)  # route (B)'s generators
        del calls[:]
        block = double_commutant(gens, n)
        assert len(calls) == 1
        dense = dense_double_commutant(gens, n, closure=n <= 12)
        assert block.dim == dense.dim == n * len(sub)
        assert projector_distance(block, dense) <= 1e-12


@pytest.mark.parametrize("case", ["S3", "Q8", "D4", "D6", "S4", "D12", "empty"])
def test_a_non_commutative_first_commutant_takes_the_linked_block_form(monkeypatch, case):
    # the first commutant of lambda(G) is the right-regular algebra, and that
    # of the empty list is all of M_3: the clusters of each isotypic component
    # are linked, and Q8's quaternionic component splits only with complex weights
    if case == "empty":
        gens, n, dim = [], 3, 1
    else:
        g = builtin_group(case)
        gens, n, dim = [left_regular(g, x) for x in range(g.order)], g.order, g.order
    calls = counted_commutant(monkeypatch)
    space = double_commutant(gens, n)
    assert len(calls) == 1
    assert space.dim == dim
    # the frames are polar factors, so the basis is orthonormal to rounding
    assert np.linalg.norm(space.basis.conj().T @ space.basis - np.eye(dim)) <= 1e-13
    assert projector_distance(space, dense_double_commutant(gens, n, closure=n <= 12)) <= 1e-12


def _basis(*mats):
    """The Subspace of C^(n^2) whose basis columns are the given n x n matrices."""
    return Subspace(mats[0].size, np.array([m.reshape(-1) for m in mats]).T)


def _merged_clusters():
    # the diagonal algebra of M_2, its basis rotated so that stage 1 sums it to
    # a multiple of the identity: one cluster for two dimensions
    weights = linalg._COMPLEX_WEIGHTS[:2].real
    angle = np.pi / 4 - np.arctan2(weights[1], weights[0])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return _basis(*(np.diag(col) for col in rot.T)), [np.diag([1.0, 2.0])]


def _unequal_link():
    # h = diag(a, a, b, b), and B = sum_k c_k B_k has the rank-one block E_02 -
    # E_20 between its two clusters: a link that no scaling makes unitary.  B_3
    # has zero trace on each cluster, so projecting the clusters onto the span
    # leaves them as they are
    c = linalg._COMPLEX_WEIGHTS[:3]
    skew = np.zeros((4, 4))
    skew[0, 2], skew[2, 0] = 1.0, -1.0
    return _basis(np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0]), skew / c[2]), []


def _not_central():
    # B_1 and B_2 carry E_01 with weights that cancel in sum_k c_k B_k, so h
    # and B are diagonal, with two clusters and no link, but B_1 is not.  With
    # B_k[1, 1] = conj(c_k), the E_01 parts cancel in the projection of the
    # second cluster onto the span too, so the clusters stay as they are
    c = linalg._COMPLEX_WEIGHTS[:2]
    return _basis(np.array([[1.0, 1.0], [0.0, c[0].conjugate()]]),
                  np.array([[0.0, -c[0] / c[1]], [0.0, c[1].conjugate()]])), [np.eye(2)]


def _not_contained():
    # the diagonal algebra, with distinct clusters and central, but the
    # generator, the flip, lies off its blocks
    first = _basis(np.diag([0.6, 0.8]), np.diag([0.8, -0.6]))
    return first, [np.array([[0.0, 1.0], [1.0, 0.0]])]


# the first commutant handed to double_commutant and its generators, for the
# guard that each case fails
GUARD_CASES = {"cluster_count": _merged_clusters, "link_unitarity": _unequal_link,
               "centrality": _not_central, "containment": _not_contained}


@pytest.mark.parametrize("guard", sorted(GUARD_CASES))
def test_each_block_form_guard_raises(monkeypatch, guard):
    first, gens = GUARD_CASES[guard]()
    passes = []

    def patched_first(generators, n, tol):
        passes.append(len(generators))
        return first

    monkeypatch.setattr(linalg, "commutant", patched_first)
    with pytest.raises(LinAlgContractError, match=rf"not certified: {guard} .* above its bound"):
        double_commutant(gens, math.isqrt(first.ambient_dim))
    assert passes == [len(gens)]


def test_frames_stay_unitary_when_a_link_is_not(monkeypatch):
    # A = M_2 (x) 1_2 with its basis perturbed by 1e-10: each link is unitary
    # only to about 1e-10, inside the link_unitarity guard, and its polar
    # factor still keeps the result's basis orthonormal to rounding
    rng = np.random.default_rng(5)
    units = [np.kron(np.outer(np.eye(2)[i], np.eye(2)[j]), np.eye(2)) / np.sqrt(2)
             for i in range(2) for j in range(2)]
    first = _basis(*(m + 1e-10 * rng.standard_normal((4, 4)) for m in units))
    monkeypatch.setattr(linalg, "commutant", lambda generators, n, tol: first)
    space = double_commutant([], 4)
    assert space.dim == 4
    assert np.linalg.norm(space.basis.conj().T @ space.basis - np.eye(4)) <= 1e-13


def _skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def _random_generators(case, rng):
    n = 6
    if case == "complex":
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    if case == "skew":  # A + A* = 0, so h = 0
        return [_skew(rng, n) for _ in range(2)]
    if case == "scalar":
        return [2.5 * np.eye(n), -1j * np.eye(n)]
    if case == "skew_and_diagonal":  # h is diagonal with eigenvalue clusters 3, 2, 1
        return [_skew(rng, n), np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])]
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return [np.kron(np.eye(2), b)]  # h = kron(I_2, .): every eigenvalue is double


# case, commutant dimension, stage-2 columns (the kept pairs of h's clusters)
RANDOM_CASES = [("complex", 1, 6), ("skew", 1, 36), ("scalar", 36, 36),
                ("skew_and_diagonal", 1, 14), ("kron", 4, 12)]


@pytest.mark.parametrize("case, dim, kept", RANDOM_CASES)
def test_commutant_matches_the_stacked_oracle_on_random_generators(monkeypatch, case, dim, kept):
    gens = _random_generators(case, np.random.default_rng(len(case)))
    stage2, _ = _captured_stack(monkeypatch, gens)
    assert stage2.shape[1] == kept
    space = assert_matches_oracle(gens)
    assert space.dim == dim
    if case == "kron":  # the commutant is M_2 (x) I_3
        m2 = [np.kron(np.eye(2)[:, [r]] @ np.eye(2)[[c], :], np.eye(3)) for r in range(2) for c in range(2)]
        assert projector_distance(space, Subspace.from_span([m.reshape(-1) for m in m2])) <= 1e-10


def test_block_diagonal_commutant_with_distinct_blocks():
    rng = np.random.default_rng(11)
    blocks = np.zeros((5, 5), dtype=complex)
    blocks[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    blocks[2:, 2:] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # the two block projections span the commutant
    assert assert_matches_oracle([blocks]).dim == 2


def test_nearly_equal_eigenvalues_are_kept_in_one_cluster(monkeypatch):
    # h's spectrum holds 2c(1 + 1e-7) next to 2c: a gap wider than
    # diagonal_cutoff but too narrow to trust the eigenvectors across at
    # rank_tol, so stage 1 keeps the pair in one cluster
    gen = np.diag([1.0, 1.0 + 1e-7, 3.0])
    stage2, space = _captured_stack(monkeypatch, [gen])
    assert stage2.shape == (9, 5)  # pairs (0,0), (0,1), (1,0), (1,1), (2,2)
    assert space.dim == stacked_commutant([gen]).dim == 3
    assert projector_distance(space, stacked_commutant([gen])) <= 1e-10


def _rotated_eigh(angle):
    """np.linalg.eigh with its eigenvectors rotated by a Cayley transform
    of a fixed skew matrix of size ``angle``."""
    eigh = np.linalg.eigh

    def rotated(h, *args, **kwargs):
        w, u = eigh(h, *args, **kwargs)
        skew = angle * _skew(np.random.default_rng(12), len(w))
        cayley = np.linalg.solve(np.eye(len(w)) - skew, np.eye(len(w)) + skew)
        return w, u @ cayley

    return rotated


@pytest.mark.parametrize("name", ["S3", "Q8"])
def test_commutant_certification_fails_on_a_rotated_eigenbasis(monkeypatch, name):
    # eigenvectors rotated by 5e-7 carry a measured residual that no gap of h
    # can be cut across: stage 1 keeps one cluster, stage 2 runs over all of
    # M_n and the commutant still matches the stacked oracle.  The double
    # commutant's certification fails: one cluster cannot hold dim A
    g = builtin_group(name)
    n = g.order
    units = list(np.eye(n)[:, None, :] * np.eye(n)[:, :, None])
    gens = [left_regular(g, x) for x in range(2)] + units
    monkeypatch.setattr(np.linalg, "eigh", _rotated_eigh(5e-7))
    stage2, _ = _captured_stack(monkeypatch, gens)
    assert stage2.shape[1] == n * n
    assert_matches_oracle(gens, n)
    with pytest.raises(LinAlgContractError, match="cluster_count"):
        double_commutant(gens, n)


def test_commutant_rejects_non_finite_generators():
    for bad in (np.nan, np.inf):
        gen = np.eye(3)
        gen[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            commutant([gen])


def test_commutant_certification_fails_on_a_dropped_generator(monkeypatch):
    # stage 2 that sees only the first generator returns directions that
    # commute with it but not with the rest; the residual check catches them
    g = symmetric_group(3)
    gens = [left_regular(g, x) for x in range(6)]
    original = linalg.null_space

    def first_block_only(mat, tol, scale=None):
        return original(mat[:mat.shape[0] // len(gens)], tol, scale=scale)

    monkeypatch.setattr(linalg, "null_space", first_block_only)
    with pytest.raises(LinAlgContractError, match="commutator residual"):
        commutant(gens)


def _closure_failure(space, n):
    # the per-pair loop that the batched check replaced, kept as the reference
    mats = [space.basis[:, k].reshape(n, n) for k in range(space.dim)]
    for a in mats:
        if not in_span(space, a.conj().T.reshape(-1)):
            return "adjoint"
        for b in mats:
            if not in_span(space, (a @ b).reshape(-1)):
                return "product"
    return None


@pytest.mark.parametrize("span", [
    [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]],  # span{1, flip}: closed
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],  # the diagonal: closed
    [[1.0, 5e-9, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],  # tilted within eq_tol
    [[1.0, 2e-8, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],  # tilted beyond eq_tol
    [[0.0, 1.0, 0.0, 0.0]],  # E_01, whose adjoint E_10 is outside
    [[0.0, 1.0, 1.0, 0.0]],  # the flip, whose square 1 is outside
])
def test_double_commutant_closure_check_matches_pairwise_loop(span):
    # the dense oracle's batched closure check against the per-pair loop
    skew = Subspace.from_span(span)
    assert closure_failure(skew, 2) == _closure_failure(skew, 2)


def test_psd_factorize_identity():
    pairs = psd_factorize(np.eye(4))
    assert len(pairs) == 4
    recon = sum(np.outer(u, v) for u, v in pairs)
    assert np.abs(recon - np.eye(4)).max() < 1e-12
    for u, v in pairs:
        assert np.abs(v - u.conj()).max() < 1e-12  # Gram form


def test_psd_factorize_all_ones():
    k = np.ones((5, 5))
    pairs = psd_factorize(k)
    assert len(pairs) == 1
    u, v = pairs[0]
    assert np.abs(np.outer(u, v) - k).max() < 1e-10


def test_psd_factorize_indefinite_falls_back():
    k = np.diag([1.0, -1.0])
    pairs = psd_factorize(k)
    recon = sum(np.outer(u, v) for u, v in pairs)
    assert np.abs(recon - k).max() <= DEFAULT_TOL.entry_tol


def test_psd_factorize_random_psd_gram_form():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    k = a @ a.conj().T
    pairs = psd_factorize(k)
    recon = sum(np.outer(u, v) for u, v in pairs)
    assert np.abs(recon - k).max() < 1e-10 * max(1.0, np.abs(k).max())
    for u, v in pairs:
        assert np.abs(v - u.conj()).max() < 1e-10


def test_psd_factorize_random_general():
    rng = np.random.default_rng(5)
    k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pairs = psd_factorize(k)
    recon = sum(np.outer(u, v) for u, v in pairs)
    assert np.abs(recon - k).max() <= DEFAULT_TOL.entry_tol * max(1.0, np.abs(k).max())


def test_commutant_cap_is_checked_before_the_stack_is_built(monkeypatch):
    assert harmop.SizeCapError is SizeCapError

    big = np.eye(25)

    def no_alloc(*args, **kwargs):
        raise AssertionError("commutant allocated above the cap")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(np, "eye", no_alloc)
    with pytest.raises(SizeCapError, match="capped at order 24, got 25"):
        commutant([big])
    with pytest.raises(SizeCapError):
        commutant([], 25)


# ---------------------------------------------------------------------------
# the field rule: exactly real input is decomposed in float64

def _complex_svd_null_space(mat, scale=None) -> Subspace:
    """The null space by a complex128 SVD of the whole matrix, as the oracle."""
    mat = np.asarray(mat, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    cutoff = DEFAULT_TOL.rank_tol * (scale if scale is not None else s[0])
    return Subspace(mat.shape[1], vh[int(np.sum(s > cutoff)):].conj().T)


def _rank_deficient(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@pytest.mark.parametrize("shape", [(6, 8, 4), (12, 5, 3)])  # wide, and tall through QR
def test_real_and_zero_imaginary_input_give_the_same_spaces(shape):
    real = _rank_deficient(*shape, seed=sum(shape))
    oracle = _complex_svd_null_space(real)
    for decompose in (null_space, range_space):
        a, b = decompose(real), decompose(real + 0j)
        assert a.dim == b.dim
        assert projector_distance(a, b) <= 1e-12
        assert a.basis.dtype == b.basis.dtype == np.complex128
    assert null_space(real).dim == oracle.dim == shape[1] - shape[2]
    assert projector_distance(null_space(real), oracle) <= 1e-12
    assert range_space(real).dim == shape[2]


@pytest.mark.parametrize("name", ["S3", "Q8"])
def test_real_generators_and_zero_imaginary_generators_agree(name):
    g = builtin_group(name)
    n = g.order
    real = [left_regular(g, x).real for x in range(n)]
    shifted = [m + 0j for m in real]
    for engine in (commutant, double_commutant):
        a, b = engine(real, n), engine(shifted, n)
        assert a.dim == b.dim == n
        assert projector_distance(a, b) <= 1e-12
        assert a.basis.dtype == b.basis.dtype == np.complex128
    # oracle: the commutant by a complex SVD of the Kronecker-form stack
    eye = np.eye(n)
    stack = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in real + [m.T for m in real]])
    oracle = _complex_svd_null_space(stack, scale=1.0)
    assert projector_distance(commutant(real, n), oracle) <= 1e-12
    # the double commutant of lambda(G) is span lambda(G)
    translations = Subspace.from_span(np.array([m.reshape(-1) for m in real]))
    assert projector_distance(double_commutant(real, n), translations) <= 1e-12


def test_a_tiny_imaginary_part_keeps_the_complex_path():
    mat = np.diag([1.0, 1e-3j])
    space = null_space(mat)
    assert space.dim == _complex_svd_null_space(mat).dim == 0
    assert null_space(mat.real).dim == 1  # what dropping the imaginary part would give
    assert range_space(mat).dim == 2


def test_qr_sees_float64_for_real_generators_and_complex128_for_a_complex_mask(monkeypatch):
    dtypes = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    s3 = symmetric_group(3)
    commutant([left_regular(s3, x) for x in range(6)])
    assert dtypes == [np.float64]
    dtypes.clear()
    null_space(_rank_deficient(12, 5, 3, seed=0) + 0j)
    assert dtypes == [np.float64]
    dtypes.clear()
    mask = schur_mask(random_positive_definite(s3, np.random.default_rng(0)))
    assert mask.imag.any()
    space = commutant([mask])
    assert dtypes == [np.complex128]
    assert space.basis.dtype == np.complex128
