import numpy as np
import pytest

from harmop.groups import cyclic_group, dihedral_group, symmetric_group
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
from harmop.actions import (
    OperatorMatrix,
    SizeCapError,
    Superoperator,
    bullet,
    bullet_via_comultiplication,
    coassociativity_defect,
    comultiplication,
    dual_unitary,
    flip_unitary,
    fundamental_unitary,
    left_regular,
    module_action,
    mult_op,
    operator_from_json,
    operator_to_json,
    pi_quotient,
    pre_adjoint,
    right_regular,
    schur_mask,
    theta,
    theta_hat,
    theta_hat_sum_form,
    trace_pairing,
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
        assert np.array_equal(lam @ left_regular(g, g.inv(x)), np.eye(6))
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
            assert right_regular(g, x)[g.mul(b, g.inv(x)), b] == 1.0


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
            right_regular(S3, t) @ t_mat @ right_regular(S3, S3.inv(t)), omega
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
    phi = Superoperator(big, "schur", mask=np.ones((30, 30)))
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
        dense = Superoperator(Z4, "dense", matrix=phi.dense())
        for a in range(4):
            for b in range(4):
                unit = _unit(Z4, a, b)
                assert np.abs(phi.apply(unit) - dense.apply(unit)).max() < 1e-12


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
    matrix = rng.standard_normal((36, 36))
    swap = np.eye(36)[transpose_index(6)]
    star = Superoperator(S3, "dense", matrix=matrix).pre_adjoint()
    assert np.array_equal(star.matrix, swap @ matrix.T @ swap)
    assert np.array_equal(flip_unitary(S3), swap)


def test_pre_adjoint_of_identity():
    rng = np.random.default_rng(15)
    ident = Superoperator(Z4, "schur", mask=np.ones((4, 4)))
    t_mat = _rand(Z4, rng)
    assert np.abs(pre_adjoint(ident).apply(t_mat) - t_mat).max() == 0.0


def test_pre_adjoint_of_schur_mask_is_transpose():
    rng = np.random.default_rng(16)
    sigma = _rand_fn(S3, rng)
    star = theta_hat(sigma).pre_adjoint()
    assert star.kind == "schur"
    assert np.abs(star.mask - schur_mask(sigma).T).max() == 0.0


def test_pre_adjoint_duality_all_kinds():
    rng = np.random.default_rng(17)
    sigma = _rand_fn(S3, rng)
    mu = Measure(S3, rng.random(6) + 1j * rng.random(6))
    maps = [
        theta_hat(sigma),
        theta(mu),
        Superoperator(S3, "dense", matrix=rng.standard_normal((36, 36))),
    ]
    for phi in maps:
        star = phi.pre_adjoint()
        for _ in range(100):
            t_mat, omega = _rand(S3, rng), _rand(S3, rng)
            lhs = trace_pairing(phi.apply(t_mat), omega)
            rhs = trace_pairing(t_mat, star.apply(omega))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pre_adjoint_consistent_across_representations():
    rng = np.random.default_rng(18)
    sigma = _rand_fn(Z4, rng)
    phi = theta_hat(sigma)
    as_dense = Superoperator(Z4, "dense", matrix=phi.dense())
    t_mat = _rand(Z4, rng)
    assert np.abs(
        phi.pre_adjoint().apply(t_mat) - as_dense.pre_adjoint().apply(t_mat)
    ).max() < 1e-12


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
            assert dst[3 * a + g.mul(g.inv(a), b)] == 1.0


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
            expected = np.kron(left_regular(g, g.mul(a, g.inv(b))), _unit(g, a, b))
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


def test_size_caps():
    big = cyclic_group(30)
    with pytest.raises(SizeCapError):
        comultiplication(big, np.eye(30))
    with pytest.raises(SizeCapError):
        coassociativity_defect(cyclic_group(8), np.eye(8))


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


def test_bullet_on_diagonals():
    rng = np.random.default_rng(23)
    f = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    g_mat = np.diag(rng.standard_normal(4))
    out = bullet(Z4, f, g_mat)
    expected = trace_pairing(np.eye(4), f) * g_mat
    assert np.abs(out - expected).max() < 1e-12


def test_bullet_matches_comultiplication_contraction():
    rng = np.random.default_rng(24)
    for g in (Z3, Z4, S3):
        for _ in range(3):
            omega, rho = _rand(g, rng), _rand(g, rng)
            fast = bullet(g, omega, rho)
            slow = bullet_via_comultiplication(g, omega, rho)
            assert np.abs(fast - slow).max() < 1e-10


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
            expected = coeff * left_regular(Z4, Z4.mul(a, Z4.inv(b)))
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


def test_operator_json_round_trip():
    rng = np.random.default_rng(30)
    op = OperatorMatrix(Z4, _rand(Z4, rng))
    doc = operator_to_json(op)
    back = operator_from_json(doc, Z4)
    assert np.abs(back.matrix - op.matrix).max() == 0.0
    with pytest.raises(ValueError):
        operator_from_json(doc, Z6)
