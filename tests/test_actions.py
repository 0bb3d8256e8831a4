import tracemalloc

import numpy as np
import pytest

from harmop.groups import cyclic_group, dihedral_group, quaternion_group, symmetric_group
from harmop.functions import (
    GroupFunction,
    Measure,
    constant_function,
    convolve,
    convolve_measures,
    delta_function,
    delta_measure,
    uniform_measure,
)
from harmop import actions
from harmop.linalg import SizeCapError, commutant
from harmop.actions import (
    Superoperator,
    bullet,
    bullet_via_comultiplication,
    coassociativity_defect,
    comultiplication,
    displacement_table,
    dual_unitary,
    flip_unitary,
    fundamental_unitary,
    left_regular,
    module_action,
    mult_op,
    pi_quotient,
    schur_mask,
    theta,
    theta_hat,
    theta_hat_sum_form,
    transpose_index,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)
D4 = dihedral_group(4)


def _rand(group, rng):
    n = group.order
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rand_fn(group, rng):
    n = group.order
    return GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def right_regular(group, x):
    """rho(x): permutation matrix sending delta_b to delta_{b x^-1}."""
    return actions._perm_matrix(group.table[:, int(group.inverse[x])])


def trace_pairing(t_mat, omega):
    """<T, omega> = Tr(T omega)."""
    return complex(np.einsum("ij,ji->", t_mat, omega))


def _unit(group, a, b):
    e = np.zeros((group.order, group.order), dtype=complex)
    e[a, b] = 1.0
    return e


# ---------------------------------------------------------------------------
# regular representations

def test_regular_representations_at_identity():
    for g in (Z4, S3):
        assert np.array_equal(left_regular(g, 0), np.eye(g.order))
        assert np.array_equal(right_regular(g, 0), np.eye(g.order))


def test_left_regular_composition_and_unitarity():
    g = S3
    for x in range(6):
        lam = left_regular(g, x)
        assert np.array_equal(lam @ left_regular(g, int(g.inverse[x])), np.eye(6))
        assert np.abs(lam @ lam.conj().T - np.eye(6)).max() == 0.0
        for y in range(6):
            assert np.array_equal(lam @ left_regular(g, y), left_regular(g, g.mul(x, y)))


def test_right_regular_composition():
    g = S3
    for x in range(6):
        for y in range(6):
            lhs = right_regular(g, x) @ right_regular(g, y)
            assert np.array_equal(lhs, right_regular(g, g.mul(x, y)))


def test_left_and_right_translations_commute():
    g = D4
    for x in range(8):
        for y in range(8):
            lam, rho = left_regular(g, x), right_regular(g, y)
            assert np.array_equal(lam @ rho, rho @ lam)


def test_regular_action_on_functions():
    # lambda(x) delta_b = delta_{xb} and rho(x) delta_b = delta_{b x^-1}
    g = S3
    for x in range(6):
        for b in range(6):
            assert left_regular(g, x)[g.mul(x, b), b] == 1.0
            assert right_regular(g, x)[g.mul(b, int(g.inverse[x])), b] == 1.0


def test_mult_op_diagonal():
    f = GroupFunction(Z4, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(mult_op(f), np.diag([1.0, 2.0, 3.0, 4.0]))


# ---------------------------------------------------------------------------
# the convolution action

def test_theta_delta_e_is_identity():
    rng = np.random.default_rng(0)
    t_mat = _rand(S3, rng)
    assert np.abs(theta(delta_measure(S3, 0)).apply(t_mat) - t_mat).max() == 0.0


def test_theta_single_atom_conjugates():
    rng = np.random.default_rng(1)
    for t in range(6):
        t_mat = _rand(S3, rng)
        rho = right_regular(S3, t)
        expected = rho @ t_mat @ rho.conj().T
        assert np.abs(theta(delta_measure(S3, t)).apply(t_mat) - expected).max() < 1e-14


def test_theta_uniform_z2_on_matrix_unit():
    out = theta(uniform_measure(Z2)).apply(_unit(Z2, 0, 1))
    expected = (_unit(Z2, 0, 1) + _unit(Z2, 1, 0)) / 2  # rho(1) E01 rho(1) = E10
    assert np.abs(out - expected).max() < 1e-14


def test_theta_reproduces_convolution_on_multiplication_operators():
    rng = np.random.default_rng(2)
    for g in (Z4, S3, D4):
        for _ in range(5):
            mu = Measure(g, rng.random(g.order) + 1j * rng.random(g.order))
            phi = _rand_fn(g, rng)
            lhs = theta(mu).apply(mult_op(phi))
            rhs = mult_op(convolve(mu, phi))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_theta_is_multiplicative_for_convolution():
    rng = np.random.default_rng(3)
    for _ in range(5):
        mu = Measure(S3, rng.random(6))
        nu = Measure(S3, rng.random(6))
        t_mat = _rand(S3, rng)
        lhs = theta(mu).apply(theta(nu).apply(t_mat))
        rhs = theta(convolve_measures(mu, nu)).apply(t_mat)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_theta_is_unital_for_probability_measures():
    rng = np.random.default_rng(31)
    for g in (Z4, S3):
        w = rng.random(g.order)
        mu = Measure(g, w / w.sum())
        assert np.abs(theta(mu).apply(np.eye(g.order)) - np.eye(g.order)).max() < 1e-14


def test_theta_duality_formula():
    # <Theta(mu) T, omega> = sum_t mu(t) <rho(t) T rho(t^-1), omega>
    rng = np.random.default_rng(4)
    mu = Measure(S3, rng.random(6))
    t_mat, omega = _rand(S3, rng), _rand(S3, rng)
    lhs = trace_pairing(theta(mu).apply(t_mat), omega)
    rhs = sum(
        mu.weights[t] * trace_pairing(
            right_regular(S3, t) @ t_mat @ right_regular(S3, int(S3.inverse[t])), omega
        )
        for t in range(6)
    )
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# the multiplier action

def test_theta_hat_constant_one_is_identity():
    rng = np.random.default_rng(5)
    t_mat = _rand(D4, rng)
    assert np.abs(theta_hat(constant_function(D4)).apply(t_mat) - t_mat).max() == 0.0


def test_theta_hat_scales_translations():
    rng = np.random.default_rng(6)
    sigma = _rand_fn(S3, rng)
    for x in range(6):
        out = theta_hat(sigma).apply(left_regular(S3, x))
        assert np.abs(out - sigma.values[x] * left_regular(S3, x)).max() < 1e-14


def test_theta_hat_delta_e_extracts_diagonal():
    rng = np.random.default_rng(7)
    t_mat = _rand(S3, rng)
    out = theta_hat(delta_function(S3, 0)).apply(t_mat)
    assert np.abs(out - np.diag(np.diag(t_mat))).max() == 0.0


def test_theta_hat_multiplicative():
    rng = np.random.default_rng(8)
    s1, s2 = _rand_fn(D4, rng), _rand_fn(D4, rng)
    t_mat = _rand(D4, rng)
    lhs = theta_hat(GroupFunction(D4, s1.values * s2.values)).apply(t_mat)
    rhs = theta_hat(s1).apply(theta_hat(s2).apply(t_mat))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_theta_hat_bimodule_property():
    rng = np.random.default_rng(9)
    sigma, f, g = (_rand_fn(S3, rng) for _ in range(3))
    t_mat = _rand(S3, rng)
    lhs = theta_hat(sigma).apply(mult_op(f) @ t_mat @ mult_op(g))
    rhs = mult_op(f) @ theta_hat(sigma).apply(t_mat) @ mult_op(g)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_theta_hat_fixes_multiplication_operators_when_unital():
    rng = np.random.default_rng(10)
    sigma = _rand_fn(S3, rng)
    sigma = GroupFunction(S3, np.concatenate([[1.0], sigma.values[1:]]))
    f = _rand_fn(S3, rng)
    assert np.abs(theta_hat(sigma).apply(mult_op(f)) - mult_op(f)).max() < 1e-14


def test_theta_hat_scales_multiplication_operators_in_general():
    rng = np.random.default_rng(32)
    sigma, f = _rand_fn(S3, rng), _rand_fn(S3, rng)
    out = theta_hat(sigma).apply(mult_op(f))
    assert np.abs(out - sigma.values[0] * mult_op(f)).max() < 1e-14


def test_dense_materialization_capped():
    big = cyclic_group(30)
    phi = theta_hat(constant_function(big))
    with pytest.raises(SizeCapError):
        phi.dense()
    t_mat = np.eye(30)
    assert np.abs(phi.apply(t_mat) - t_mat).max() == 0.0  # apply stays usable


def test_sum_form_constant_one():
    rng = np.random.default_rng(11)
    t_mat = _rand(Z4, rng)
    from harmop.linalg import psd_factorize

    pairs = psd_factorize(schur_mask(constant_function(Z4)))
    assert len(pairs) == 1
    assert np.abs(theta_hat_sum_form(constant_function(Z4), t_mat) - t_mat).max() < 1e-12


def test_sum_form_matches_schur_mask():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sigma = _rand_fn(D4, rng)
        t_mat = _rand(D4, rng)
        diff = np.abs(
            theta_hat(sigma).apply(t_mat) - theta_hat_sum_form(sigma, t_mat)
        ).max()
        assert diff <= 1e-10


def test_sum_form_delta_e():
    rng = np.random.default_rng(13)
    t_mat = _rand(S3, rng)
    out = theta_hat_sum_form(delta_function(S3, 0), t_mat)
    assert np.abs(out - np.diag(np.diag(t_mat))).max() < 1e-12


# ---------------------------------------------------------------------------
# superoperator plumbing

def test_representations_agree_on_matrix_units():
    rng = np.random.default_rng(14)
    sigma = _rand_fn(Z4, rng)
    mu = Measure(Z4, rng.random(4))
    for phi in (theta_hat(sigma), theta(mu)):
        dense = phi.dense()
        for a in range(4):
            for b in range(4):
                unit = _unit(Z4, a, b)
                expected = (dense @ unit.reshape(-1)).reshape(4, 4)
                assert np.abs(phi.apply(unit) - expected).max() < 1e-12


def test_conj_sum_matches_explicit_conjugation_on_nonabelian_group():
    # on S3 a left/right mix-up in the index relabeling changes the result
    rng = np.random.default_rng(19)
    mu = Measure(S3, rng.random(6) + 1j * rng.random(6))
    phi = theta(mu)
    rhos = [right_regular(S3, x) for x in range(6)]
    t_mat = _rand(S3, rng)
    expected = sum(w * (rho @ t_mat @ rho.conj().T) for w, rho in zip(mu.weights, rhos))
    assert np.abs(phi.apply(t_mat) - expected).max() < 1e-12
    expected_dense = sum(w * np.kron(rho, rho.conj()) for w, rho in zip(mu.weights, rhos))
    assert np.abs(phi.dense() - expected_dense).max() < 1e-12


def test_transpose_index_and_dense_pre_adjoint():
    rng = np.random.default_rng(20)
    x = _rand(S3, rng)
    assert np.array_equal(x.reshape(-1)[transpose_index(6)], x.T.reshape(-1))
    swap = np.eye(36)[transpose_index(6)]
    mu = Measure(S3, rng.random(6) + 1j * rng.random(6))
    sigma = _rand_fn(S3, rng)
    for phi in (theta_hat(sigma), theta(mu), Superoperator(S3, sigma.values, mu.weights)):
        # the pre-adjoint for the trace pairing is the transpose conjugated by the swap
        assert np.array_equal(phi.pre_adjoint().dense(), swap @ phi.dense().T @ swap)
    assert np.array_equal(flip_unitary(S3), swap)
    with pytest.raises(ValueError, match="6 values each"):
        Superoperator(S3, np.ones(5), mu.weights)


def test_pre_adjoint_of_identity():
    rng = np.random.default_rng(15)
    ident = Superoperator(Z4, np.ones(4), np.eye(4)[Z4.identity])
    t_mat = _rand(Z4, rng)
    assert np.abs(ident.pre_adjoint().apply(t_mat) - t_mat).max() == 0.0


def test_pre_adjoint_of_schur_mask_is_transpose():
    rng = np.random.default_rng(16)
    sigma = _rand_fn(S3, rng)
    star = theta_hat(sigma).pre_adjoint()
    assert star.kind == "schur"
    assert np.array_equal(schur_mask(GroupFunction(S3, star.sigma)), schur_mask(sigma).T)
    t_mat = _rand(S3, rng)
    assert np.array_equal(star.apply(t_mat), schur_mask(sigma).T * t_mat)


def test_pre_adjoint_duality_all_kinds():
    rng = np.random.default_rng(17)
    sigma = _rand_fn(S3, rng)
    mu = Measure(S3, rng.random(6) + 1j * rng.random(6))
    for phi in (theta_hat(sigma), theta(mu)):
        star = phi.pre_adjoint()
        for _ in range(100):
            t_mat, omega = _rand(S3, rng), _rand(S3, rng)
            lhs = trace_pairing(phi.apply(t_mat), omega)
            rhs = trace_pairing(t_mat, star.apply(omega))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pre_adjoint_consistent_across_representations():
    rng = np.random.default_rng(18)
    sigma = _rand_fn(Z4, rng)
    mu = Measure(Z4, rng.random(4))
    swap = np.eye(16)[transpose_index(4)]
    t_mat = _rand(Z4, rng)
    for phi in (theta_hat(sigma), theta(mu)):
        star_dense = swap @ phi.dense().T @ swap
        expected = (star_dense @ t_mat.reshape(-1)).reshape(4, 4)
        assert np.abs(phi.pre_adjoint().apply(t_mat) - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# the doubled space

def test_fundamental_unitary_basis_action():
    g = Z3
    w = fundamental_unitary(g)
    assert np.abs(w @ w.conj().T - np.eye(9)).max() == 0.0
    for a in range(3):
        for b in range(3):
            src = np.zeros(9)
            src[3 * a + b] = 1.0
            dst = w @ src
            assert dst[3 * a + g.mul(int(g.inverse[a]), b)] == 1.0


def test_dual_unitary_identity():
    for g in (Z3, S3):
        w = fundamental_unitary(g)
        flip = flip_unitary(g)
        assert np.abs(dual_unitary(g) - flip @ w.conj().T @ flip).max() == 0.0


def test_comultiplication_of_identity():
    assert np.abs(comultiplication(Z3, np.eye(3)) - np.eye(9)).max() == 0.0


def test_comultiplication_of_translations():
    for g in (Z4, S3):
        for x in range(g.order):
            lam = left_regular(g, x)
            expected = np.kron(lam, lam)  # basis chase delta_(a,b) -> delta_(xa,xb)
            assert np.abs(comultiplication(g, lam) - expected).max() == 0.0


def test_comultiplication_of_matrix_units():
    g = Z3
    for a in range(3):
        for b in range(3):
            expected = np.kron(left_regular(g, g.mul(a, int(g.inverse[b]))), _unit(g, a, b))
            assert np.abs(comultiplication(g, _unit(g, a, b)) - expected).max() == 0.0


def test_comultiplication_is_star_homomorphism():
    rng = np.random.default_rng(19)
    s_mat, t_mat = _rand(S3, rng), _rand(S3, rng)
    lhs = comultiplication(S3, s_mat @ t_mat)
    rhs = comultiplication(S3, s_mat) @ comultiplication(S3, t_mat)
    assert np.abs(lhs - rhs).max() < 1e-12
    lhs = comultiplication(S3, s_mat.conj().T)
    rhs = comultiplication(S3, s_mat).conj().T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_coassociativity_on_basis():
    for g in (Z3, Z4):
        for a in range(g.order):
            for b in range(g.order):
                assert coassociativity_defect(g, _unit(g, a, b)) <= 1e-10


def _comultiplication_oracle(group, t_mat):
    """W_hat (1 tensor T) W_hat* as a relabeling of kron(1, T)."""
    inv = np.argsort(actions._pair_perm_w_hat(group))
    return np.kron(np.eye(group.order), t_mat)[np.ix_(inv, inv)]


def _coassociativity_oracle(group, t_mat):
    """(Gamma tensor id)Gamma(T) - (id tensor Gamma)Gamma(T) formed as two
    n^3 x n^3 matrices from kron and an identity lift of the middle leg."""
    n = group.order
    gamma_t = _comultiplication_oracle(group, t_mat)
    perm = actions._pair_perm_w_hat(group)
    a, b, c = np.unravel_index(np.arange(n ** 3), (n, n, n))
    # (Gamma tensor id): conjugate (1 tensor X) on legs (1,2) by W_hat
    p1 = np.ravel_multi_index((perm[a * n + b] // n, perm[a * n + b] % n, c), (n, n, n))
    inv1 = np.argsort(p1)
    left = np.kron(np.eye(n), gamma_t)[np.ix_(inv1, inv1)]
    # (id tensor Gamma): insert an identity middle leg, conjugate legs (2,3)
    p2 = np.ravel_multi_index((a, perm[b * n + c] // n, perm[b * n + c] % n), (n, n, n))
    inv2 = np.argsort(p2)
    four = gamma_t.reshape(n, n, n, n)
    lifted = np.einsum("acdf,be->abcdef", four, np.eye(n)).reshape(n ** 3, n ** 3)
    right = lifted[np.ix_(inv2, inv2)]
    return float(np.abs(left - right).max())


SMALL = (Z2, Z3, Z4, cyclic_group(5), Z6, S3)


def test_comultiplication_matches_kron_oracle():
    rng = np.random.default_rng(40)
    for g in SMALL + (D4, symmetric_group(4)):
        t_mat = _rand(g, rng)
        assert np.array_equal(comultiplication(g, t_mat), _comultiplication_oracle(g, t_mat))


def test_coassociativity_defect_matches_kron_oracle():
    rng = np.random.default_rng(41)
    for g in SMALL:
        for _ in range(4):
            t_mat = _rand(g, rng)
            defect = coassociativity_defect(g, t_mat)
            assert defect <= 1e-12, g.name
            assert abs(defect - _coassociativity_oracle(g, t_mat)) <= 1e-12, g.name


def _swapped_w_hat(i, j):
    """The W_hat index map with its entries i and j swapped."""
    good = actions._pair_perm_w_hat

    def broken(group):
        perm = good(group).copy()
        perm[[i, j]] = perm[[j, i]]
        return perm
    return broken


def test_coassociativity_defect_matches_oracle_on_broken_w_hat(monkeypatch):
    """Two swapped entries of the W_hat index map break coassociativity; the
    index-map defect must see it, and agree with the kron oracle."""
    rng = np.random.default_rng(42)
    for g in (Z3, Z4, cyclic_group(5), Z6, S3):
        n = g.order
        for i, j in ((0, n * n - 1), (1, n + 2)):
            with monkeypatch.context() as patch:
                patch.setattr(actions, "_pair_perm_w_hat", _swapped_w_hat(i, j))
                t_mat = _rand(g, rng)
                defect = coassociativity_defect(g, t_mat)
                oracle = _coassociativity_oracle(g, t_mat)
            assert defect > 0.1, (g.name, i, j)
            assert abs(defect - oracle) <= 1e-12, (g.name, i, j)


Z25 = cyclic_group(25)
DOUBLED_SPACE_ENTRY_POINTS = {
    "comultiplication": lambda m: comultiplication(Z25, m),
    "coassociativity_defect": lambda m: coassociativity_defect(Z25, m),
    "module_action": lambda m: module_action(Z25, "left", m, m),
    "bullet_via_comultiplication": lambda m: bullet_via_comultiplication(Z25, m, m),
    "fundamental_unitary": lambda m: fundamental_unitary(Z25),
    "dual_unitary": lambda m: dual_unitary(Z25),
    "flip_unitary": lambda m: flip_unitary(Z25),
    "Superoperator.dense": lambda m: theta_hat(constant_function(Z25)).dense(),
    "commutant": lambda m: commutant([m]),
}


@pytest.mark.parametrize("entry", sorted(DOUBLED_SPACE_ENTRY_POINTS))
def test_doubled_space_caps_at_order_25(entry):
    """Each doubled-space entry point, the dense superoperator and the
    commutant refuse order 25 before allocating: each would form an
    n^2 x n^2 array of at least 8 * 25^4 bytes (3.1 MB)."""
    mat = np.eye(25, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="order 24"):
            DOUBLED_SPACE_ENTRY_POINTS[entry](mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# ---------------------------------------------------------------------------
# predual product and module actions

def test_pi_quotient_of_normalized_identity():
    out = pi_quotient(S3, np.eye(6) / 6)
    # Tr(lambda(x))/6 counts fixed points of b -> xb
    expected = delta_function(S3, 0).values
    assert np.abs(out.values - expected).max() < 1e-14


def test_pi_quotient_surjective():
    n = S3.order
    mat = np.zeros((n, n * n))
    for k in range(n * n):
        omega = np.zeros(n * n)
        omega[k] = 1.0
        mat[:, k] = pi_quotient(S3, omega.reshape(n, n)).values.real
    assert np.linalg.matrix_rank(mat) == n


def test_pi_intertwines_pre_adjoint():
    rng = np.random.default_rng(20)
    for _ in range(10):
        phi = _rand_fn(Z6, rng)
        rho = _rand(Z6, rng)
        lhs = pi_quotient(Z6, theta_hat(phi).pre_adjoint().apply(rho)).values
        rhs = pi_quotient(Z6, rho).values * phi.values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_bullet_associative():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b, c = (_rand(Z4, rng) for _ in range(3))
        lhs = bullet(Z4, bullet(Z4, a, b), c)
        rhs = bullet(Z4, a, bullet(Z4, b, c))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_bullet_pi_multiplicative():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a, b = _rand(Z4, rng), _rand(Z4, rng)
        lhs = pi_quotient(Z4, bullet(Z4, a, b)).values
        rhs = pi_quotient(Z4, a).values * pi_quotient(Z4, b).values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_pi_and_bullet_act_on_displacement_stripes():
    # pi(omega)(x) sums omega over S_{x^-1}; omega . rho scales stripe x of
    # rho by the sum of omega over S_x
    rng = np.random.default_rng(26)
    disp = displacement_table(S3)
    omega, rho = _rand(S3, rng), _rand(S3, rng)
    sums = np.array([omega[disp == x].sum() for x in range(6)])
    assert np.abs(pi_quotient(S3, omega).values - sums[S3.inverse]).max() < 1e-12
    assert np.abs(bullet(S3, omega, rho) - sums[disp] * rho).max() < 1e-12


def test_bullet_on_diagonals():
    rng = np.random.default_rng(23)
    f = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    g_mat = np.diag(rng.standard_normal(4))
    out = bullet(Z4, f, g_mat)
    expected = trace_pairing(np.eye(4), f) * g_mat
    assert np.abs(out - expected).max() < 1e-12


def _bullet_by_comultiplying_units(group, omega, rho):
    """The contraction by definition: out[b, a] = <Gamma(E_ab), omega tensor
    rho>, one comultiplication per matrix unit."""
    n = group.order
    pair = np.kron(omega, rho)
    out = np.empty((n, n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit[a, b] = 1.0
            out[b, a] = trace_pairing(comultiplication(group, unit), pair)
            unit[a, b] = 0.0
    return out


def test_bullet_matches_comultiplication_contraction():
    rng = np.random.default_rng(24)
    for g in (Z3, Z4, S3, D4, quaternion_group(), dihedral_group(6), symmetric_group(4)):
        for _ in range(3):
            omega, rho = _rand(g, rng), _rand(g, rng)
            fast = bullet(g, omega, rho)
            slow = bullet_via_comultiplication(g, omega, rho)
            assert np.abs(fast - slow).max() < 1e-10, g.name
            if g.order <= 8:
                oracle = _bullet_by_comultiplying_units(g, omega, rho)
                assert np.abs(slow - oracle).max() < 1e-12, g.name


def test_bullet_broadcasts_over_stacks():
    rng = np.random.default_rng(31)
    omegas = np.stack([_rand(S3, rng) for _ in range(3)])
    rhos = np.stack([_rand(S3, rng) for _ in range(2)])
    stacked = bullet(S3, omegas[:, None], rhos[None, :])
    assert stacked.shape == (3, 2, 6, 6)
    for i, omega in enumerate(omegas):
        for j, rho in enumerate(rhos):
            assert np.abs(stacked[i, j] - bullet(S3, omega, rho)).max() < 1e-13


def test_module_action_on_identity():
    rng = np.random.default_rng(25)
    omega = _rand(S3, rng)
    out = module_action(S3, "left", omega, np.eye(6))
    assert np.abs(out - np.trace(omega) * np.eye(6)).max() < 1e-12


def test_right_module_action_is_multiplier_action():
    rng = np.random.default_rng(26)
    for _ in range(10):
        omega, t_mat = _rand(S3, rng), _rand(S3, rng)
        lhs = module_action(S3, "right", omega, t_mat)
        rhs = theta_hat(pi_quotient(S3, omega)).apply(t_mat)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_left_module_action_on_matrix_units():
    rng = np.random.default_rng(27)
    omega = _rand(Z4, rng)
    for a in range(4):
        for b in range(4):
            out = module_action(Z4, "left", omega, _unit(Z4, a, b))
            coeff = trace_pairing(_unit(Z4, a, b), omega)
            expected = coeff * left_regular(Z4, Z4.mul(a, int(Z4.inverse[b])))
            assert np.abs(out - expected).max() < 1e-12


def test_left_module_action_lands_in_translation_span():
    rng = np.random.default_rng(28)
    lams = np.stack([left_regular(S3, x).reshape(-1) for x in range(6)], axis=1)
    proj = lams @ np.linalg.pinv(lams)
    for _ in range(5):
        omega, t_mat = _rand(S3, rng), _rand(S3, rng)
        out = module_action(S3, "left", omega, t_mat).reshape(-1)
        assert np.linalg.norm(proj @ out - out) < 1e-10


def test_multiplier_action_commutes_with_left_module_action():
    rng = np.random.default_rng(29)
    for _ in range(10):
        phi = _rand_fn(S3, rng)
        omega, t_mat = _rand(S3, rng), _rand(S3, rng)
        lhs = theta_hat(phi).apply(module_action(S3, "left", omega, t_mat))
        rhs = module_action(S3, "left", omega, theta_hat(phi).apply(t_mat))
        assert np.abs(lhs - rhs).max() <= 1e-10


def _bullet_oracle(group, omega, rho):
    """The contraction through the kron of omega and rho, gathered at the
    W_hat index map: out[b, a] = sum_c pair[P[c n + b], P[c n + a]]."""
    pair = np.kron(omega, rho)
    perm = actions._pair_perm_w_hat(group).reshape(group.order, -1)
    return pair[perm[:, :, None], perm[:, None, :]].sum(axis=0)


def _module_action_oracle(group, side, omega, t_mat):
    """The slice map of the whole n^2 x n^2 Gamma(T), as an einsum."""
    n = group.order
    four = comultiplication(group, t_mat).reshape(n, n, n, n)
    if side == "left":
        return np.einsum("abcd,db->ac", four, omega)
    return np.einsum("abcd,ca->bd", four, omega)


ORACLE_ZOO = (Z2, Z3, Z4, cyclic_group(5), Z6, S3, D4, quaternion_group(), dihedral_group(6),
              cyclic_group(12), symmetric_group(4), dihedral_group(12))


def _doubled_oracle_gaps(group, omega, second):
    """Largest distance of bullet_via_comultiplication and both module
    actions from their kron and einsum forms, and the three outputs."""
    outs = [bullet_via_comultiplication(group, omega, second)]
    gaps = [np.abs(outs[0] - _bullet_oracle(group, omega, second)).max()]
    for side in ("left", "right"):
        outs.append(module_action(group, side, omega, second))
        gaps.append(np.abs(outs[-1] - _module_action_oracle(group, side, omega, second)).max())
    return max(gaps), outs


def test_doubled_oracles_match_the_kron_and_einsum_forms():
    rng = np.random.default_rng(43)
    for g in ORACLE_ZOO:
        for _ in range(2):
            gap, _ = _doubled_oracle_gaps(g, _rand(g, rng), _rand(g, rng))
            assert gap <= 1e-12, g.name


def test_doubled_oracles_match_the_kron_and_einsum_forms_on_broken_w_hat(monkeypatch):
    """Two swapped entries of the W_hat index map move all three outputs
    (by 0.92 to 12.7 at this seed); the index forms must move with the kron
    and einsum forms, which a closed form (bullet, theta_hat of pi) would not."""
    rng = np.random.default_rng(44)
    for g in ORACLE_ZOO:
        n = g.order
        omega, second = _rand(g, rng), _rand(g, rng)
        _, true = _doubled_oracle_gaps(g, omega, second)
        for i, j in ((0, n * n - 1), (1, n + 1)):
            with monkeypatch.context() as patch:
                patch.setattr(actions, "_pair_perm_w_hat", _swapped_w_hat(i, j))
                gap, outs = _doubled_oracle_gaps(g, omega, second)
            assert gap <= 1e-12, (g.name, i, j)
            for out, ref in zip(outs, true):
                assert np.abs(out - ref).max() > 0.1, (g.name, i, j)


def test_doubled_oracles_form_no_n4_array():
    """On S4 an n^2 x n^2 complex array is 5.3 MB; the n^3 index forms stay
    under 1 MB."""
    g = symmetric_group(4)
    rng = np.random.default_rng(45)
    omega, second = _rand(g, rng), _rand(g, rng)
    for run in (lambda: bullet_via_comultiplication(g, omega, second),
                lambda: module_action(g, "left", omega, second),
                lambda: module_action(g, "right", omega, second)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


def test_module_action_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side must be"):
        module_action(S3, "up", np.eye(6), np.eye(6))
