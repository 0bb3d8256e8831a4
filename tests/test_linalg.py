import numpy as np
import pytest

import harmop.linalg as linalg
from harmop.groups import cyclic_group, symmetric_group
from harmop.actions import left_regular
from harmop.linalg import (
    DEFAULT_TOL,
    LinAlgContractError,
    Subspace,
    Tolerances,
    commutant,
    double_commutant,
    null_space,
    projector_distance,
    psd_factorize,
    range_space,
    subspace_contains,
    subspace_equal,
)


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
    assert np.abs(space.projector - expected).max() < 1e-12


def test_null_space_residual_bound():
    rng = np.random.default_rng(0)
    for _ in range(10):
        mat = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        mat[:, -1] = mat[:, 0]  # force a kernel
        space = null_space(mat)
        norm = np.linalg.norm(mat, 2)
        for k in range(space.dim):
            assert np.linalg.norm(mat @ space.basis[:, k]) <= 10 * DEFAULT_TOL.rank_tol * norm


def test_subspace_projector_laws():
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    space = Subspace.from_span(vectors)
    p = space.projector
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12
    for k in range(space.dim):
        b = space.basis[:, k]
        assert np.linalg.norm(p @ b - b) < 1e-12
    assert space.dim == round(np.trace(p).real)


def test_subspace_equal_different_bases():
    a = Subspace.from_span(np.eye(2, 3))  # e1, e2
    rot = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / np.sqrt(2)
    b = Subspace.from_span(rot)
    assert subspace_equal(a, b)


def test_subspace_distance_orthogonal_lines():
    e1 = Subspace.from_span([[1.0, 0.0]])
    e2 = Subspace.from_span([[0.0, 1.0]])
    assert not subspace_equal(e1, e2)
    assert abs(projector_distance(e1, e2) - np.sqrt(2)) < 1e-12


def test_subspace_equal_tiny_perturbation():
    eps = 1e-12
    a = Subspace.from_span([[1.0, 0.0]])
    b = Subspace.from_span([[1.0, eps]])
    # projector distance of two lines at angle ~eps is ~sqrt(2)*eps
    direct = np.abs(a.projector - b.projector).max()
    assert direct < 1e-8
    assert subspace_equal(a, b)


def test_subspace_contains():
    line = Subspace.from_span([[1.0, 0.0, 0.0]])
    plane = Subspace.from_span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert subspace_contains(line, plane)
    assert not subspace_contains(plane, line)
    with pytest.raises(ValueError):
        subspace_contains(line, Subspace.full(2))


def test_range_space():
    mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    space = range_space(mat)
    assert space.dim == 1
    assert space.contains_vector(np.array([1.0, 0.0, 1.0]))


def test_commutant_of_identity():
    assert commutant([np.eye(3)]).dim == 9


def test_commutant_of_matrix_units():
    n = 3
    units = [np.eye(n)[:, [a]] @ np.eye(n)[[b], :] for a in range(n) for b in range(n)]
    space = commutant(units)
    assert space.dim == 1
    assert space.contains_vector(np.eye(n).reshape(-1) / np.sqrt(n))


def test_commutant_of_z2_translations():
    g = cyclic_group(2)
    space = commutant([left_regular(g, x) for x in range(2)])
    # hand computation: X commutes with the flip iff X = [[a, b], [b, a]]
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = Subspace.from_span([np.eye(2).reshape(-1), flip.reshape(-1)])
    assert space.dim == 2
    assert subspace_equal(space, expected)


def test_commutant_empty_list():
    assert commutant([], n=2).dim == 4
    with pytest.raises(ValueError):
        commutant([])


def test_double_commutant_empty_is_scalars():
    space = double_commutant([], n=3)
    assert space.dim == 1
    assert space.contains_vector(np.eye(3).reshape(-1) / np.sqrt(3))


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
    assert subspace_equal(space, expected)


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
    assert space.contains_vector(np.eye(4).reshape(-1) / 2)
    for g in gens:
        v = g.reshape(-1)
        assert space.contains_vector(v / np.linalg.norm(v))


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
    assert shapes and all(rows <= cols for rows, cols in shapes)


def test_null_space_drops_zero_rows_only():
    mat, _ = _tall_stack_with_known_kernel()
    padded = np.zeros((7200, 60), dtype=complex)
    padded[::2] = mat
    assert projector_distance(null_space(padded), null_space(mat)) == 0.0
    assert null_space(np.zeros((5, 3))).dim == 3


def _captured_stack(monkeypatch, gens):
    stacks = []
    original = linalg.null_space

    def capture(mat, tol, scale=None):
        stacks.append(mat)
        return original(mat, tol, scale=scale)

    monkeypatch.setattr(linalg, "null_space", capture)
    space = commutant(gens)
    monkeypatch.setattr(linalg, "null_space", original)
    return stacks[0], space


def test_commutator_stack_matches_kron_formula(monkeypatch):
    rng = np.random.default_rng(7)
    n = 4
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    stack, _ = _captured_stack(monkeypatch, gens)
    eye = np.eye(n)
    # oracle: vec(AX - XA) = (kron(A, I) - kron(I, A^T)) vec(X), row-major
    full = gens + [a.conj().T for a in gens]
    expected = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in full])
    assert stack.shape == expected.shape
    assert np.abs(stack - expected).max() <= 1e-15


def test_commutant_skips_adjoints_already_listed(monkeypatch):
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = np.kron(np.eye(2), b)  # commutant kron(M_2, I_3), dimension 4
    explicit, with_adjoint = _captured_stack(monkeypatch, [a, a.conj().T])
    implicit, without_adjoint = _captured_stack(monkeypatch, [a])
    assert explicit.shape == implicit.shape == (2 * 36, 36)
    assert with_adjoint.dim == without_adjoint.dim == 4
    assert projector_distance(with_adjoint, without_adjoint) <= DEFAULT_TOL.eq_tol
    # left translations of S3 are closed under adjoint: no block is added
    s3 = symmetric_group(3)
    translations, _ = _captured_stack(monkeypatch, [left_regular(s3, x) for x in range(6)])
    assert translations.shape == (6 * 36, 36)


def _closure_failure(space, n):
    # the per-pair loop that the batched check replaced, kept as the reference
    mats = [space.basis[:, k].reshape(n, n) for k in range(space.dim)]
    for a in mats:
        if not space.contains_vector(a.conj().T.reshape(-1)):
            return "adjoint"
        for b in mats:
            if not space.contains_vector((a @ b).reshape(-1)):
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
def test_double_commutant_closure_check_matches_pairwise_loop(monkeypatch, span):
    skew = Subspace.from_span(span)
    monkeypatch.setattr(linalg, "commutant", lambda gens, n, tol: skew)
    expected = _closure_failure(skew, 2)
    if expected is None:
        assert double_commutant([np.eye(2)], 2) is skew
    else:
        with pytest.raises(LinAlgContractError, match=f"not closed under {expected}"):
            double_commutant([np.eye(2)], 2)


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
