import numpy as np
import pytest

from harmop.groups import all_subgroups, cyclic_group, generated_subgroup, symmetric_group
from harmop.functions import (
    GroupFunction,
    Measure,
    constant_function,
    delta_function,
    delta_measure,
    indicator_function,
    uniform_measure,
)
from harmop.linalg import (
    DEFAULT_TOL,
    Subspace,
    double_commutant,
    projector_distance,
    subspace_contains,
    subspace_equal,
)
from harmop.actions import (
    Superoperator,
    left_regular,
    right_regular,
    theta,
    theta_hat,
    trace_pairing,
    transpose_index,
)
from harmop.harmonic import (
    ConvergenceError,
    fixed_points,
    harmonic_functionals,
    harmonic_functions,
    harmonic_operators,
    invariant_algebra,
    limit_product,
    linfty_perp_suite,
    pre_annihilator_ideal,
    verify_main_theorem,
    willis_ideal,
)
from harmop.generators import (
    random_adapted_measure,
    random_positive_definite,
    random_translation_combination,
    random_unit_at_identity,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
A3 = (0, 3, 4)


def _diag_span(n):
    basis = np.zeros((n * n, n), dtype=complex)
    for a in range(n):
        basis[a * n + a, a] = 1.0
    return Subspace(n * n, basis)


# ---------------------------------------------------------------------------
# fixed points

def test_fixed_points_of_identity():
    ident = Superoperator(Z4, "schur", mask=np.ones((4, 4)))
    assert fixed_points(ident).dim == 16


def test_fixed_points_of_delta_mask_are_diagonals():
    space = fixed_points(theta_hat(delta_function(S3, 0)))
    assert space.dim == 6
    assert subspace_equal(space, _diag_span(6))


def test_fixed_points_of_uniform_convolution_action_z2():
    space = fixed_points(theta(uniform_measure(Z2)))
    # independent oracle: solve rho(x) X = X rho(x) for both x by brute force
    rows = []
    for x in range(2):
        rho = right_regular(Z2, x)
        rows.append(np.kron(rho, np.eye(2)) - np.kron(np.eye(2), rho.T))
    _, s, vh = np.linalg.svd(np.vstack(rows))
    kernel = vh[np.sum(s > 1e-9):].conj().T
    oracle = Subspace(4, kernel)
    assert space.dim == 2
    assert subspace_equal(space, oracle)


# ---------------------------------------------------------------------------
# harmonic functions

def test_harmonic_functions_for_point_mass_at_identity():
    assert harmonic_functions(delta_measure(Z4, 0)).dim == 4


def test_harmonic_functions_adapted_z4():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    space = harmonic_functions(mu)
    assert space.dim == 1
    assert space.contains_vector(np.ones(4) / 2)
    # brute force: every basis vector really is fixed by the averaging
    for k in range(space.dim):
        phi = space.basis[:, k]
        averaged = np.array([
            sum(mu.weights[t] * phi[Z4.mul(x, t)] for t in range(4)) for x in range(4)
        ])
        assert np.abs(averaged - phi).max() < 1e-10


def test_harmonic_functions_nonadapted_z4():
    space = harmonic_functions(delta_measure(Z4, 2))
    assert space.dim == 2
    # functions constant on the cosets {0, 2} and {1, 3}
    for target in ([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]):
        assert space.contains_vector(np.array(target) / np.sqrt(2))


def test_harmonic_functions_requires_probability():
    with pytest.raises(ValueError):
        harmonic_functions(Measure(Z4, [0.5, 0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# harmonic functionals and operators

def test_harmonic_functionals_constant_one():
    assert harmonic_functionals(constant_function(S3)).dim == 6


def test_harmonic_functionals_delta_e():
    space = harmonic_functionals(delta_function(S3, 0))
    assert space.dim == 1
    assert space.contains_vector(np.eye(6).reshape(-1) / np.sqrt(6))


def test_harmonic_functionals_subgroup_indicator():
    sigma = indicator_function(S3, A3)
    space = harmonic_functionals(sigma)
    assert space.dim == 3
    algebra = double_commutant([left_regular(S3, h) for h in A3], 6)
    assert projector_distance(space, algebra) <= DEFAULT_TOL.eq_tol


def test_harmonic_operators_dimensions():
    assert harmonic_operators(constant_function(S3)).dim == 36
    assert harmonic_operators(delta_function(S3, 0)).dim == 6
    sigma = indicator_function(S3, A3)
    space = harmonic_operators(sigma)
    pair_count = sum(
        1 for a in range(6) for b in range(6) if S3.mul(a, S3.inv(b)) in A3
    )
    assert space.dim == pair_count == 18


# ---------------------------------------------------------------------------
# the main three-route check

def test_main_theorem_subgroup_indicator_s3():
    report = verify_main_theorem(indicator_function(S3, A3))
    assert report.p1_mode
    assert report.dims == {
        "fixed_points": 18, "generated_algebra": 18, "stripe_span": 18,
    }
    assert max(report.distances.values()) <= 1e-8
    assert report.passed


def test_main_theorem_adapted_sigma_gives_diagonals():
    for g in (Z4, S3):
        report = verify_main_theorem(delta_function(g, 0))
        assert report.passed
        assert report.expected_dim == g.order
        space = harmonic_operators(delta_function(g, 0))
        assert subspace_equal(space, _diag_span(g.order))


def test_main_theorem_at_the_doubled_space_cap():
    # order 24 is SUPEROP_CAP; the commutator stacks reach 27648 x 576
    s4 = symmetric_group(4)
    report = verify_main_theorem(delta_function(s4, s4.identity))
    assert report.passed
    assert report.dims == {"fixed_points": 24, "generated_algebra": 24, "stripe_span": 24}


def test_main_theorem_constant_sigma_gives_everything():
    report = verify_main_theorem(constant_function(S3))
    assert report.passed
    assert report.expected_dim == 36


def test_main_theorem_random_pd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        report = verify_main_theorem(random_positive_definite(S3, rng))
        assert report.p1_mode
        assert report.passed


def test_main_theorem_inclusion_mode_for_general_sigma():
    rng = np.random.default_rng(1)
    sigma = random_unit_at_identity(Z4, rng, level_set=[0, 1])
    report = verify_main_theorem(sigma)
    assert not report.p1_mode
    assert set(report.dims) == {"fixed_points", "bimodule_span", "stripe_span"}
    assert max(report.distances.values()) <= 1e-8
    assert report.passed


# ---------------------------------------------------------------------------
# limit products

def test_limit_product_point_mass_is_plain_product():
    rng = np.random.default_rng(2)
    f = GroupFunction(Z4, rng.standard_normal(4))
    g_fn = GroupFunction(Z4, rng.standard_normal(4))
    result = limit_product("function", f, g_fn, delta_measure(Z4, 0))
    assert np.abs(result.value.values - f.values * g_fn.values).max() < 1e-12


def test_limit_product_constants():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    result = limit_product("function", constant_function(Z4, 2.5),
                           constant_function(Z4, -1.5), mu)
    assert np.abs(result.value.values - (-3.75)).max() < 1e-10
    assert result.residual <= 1e-8


def test_limit_product_uniform_mean():
    rng = np.random.default_rng(3)
    f = GroupFunction(S3, rng.standard_normal(6))
    g_fn = GroupFunction(S3, rng.standard_normal(6))
    with pytest.warns(UserWarning):
        result = limit_product("function", f, g_fn, uniform_measure(S3))
    mean = np.mean(f.values * g_fn.values)
    assert np.abs(result.value.values - mean).max() < 1e-10


def test_limit_product_operator_mode_stays_harmonic():
    rng = np.random.default_rng(4)
    mu = random_adapted_measure(S3, rng)
    s_mat = random_translation_combination(S3, rng)
    t_mat = random_translation_combination(S3, rng)
    result = limit_product("operator", s_mat, t_mat, mu)
    action = theta(mu)
    assert np.abs(action.apply(result.value) - result.value).max() <= 1e-8


def test_limit_product_nonconvergence_raises():
    # periodic walk, non-harmonic input: the averages decay like 1/n only
    with pytest.warns(UserWarning):
        with pytest.raises(ConvergenceError) as err:
            limit_product("function", delta_function(Z4, 0), delta_function(Z4, 0),
                          delta_measure(Z4, 1), max_n=200)
    assert err.value.residual > 0


def test_limit_product_requires_probability():
    with pytest.raises(ValueError):
        limit_product("function", constant_function(Z4), constant_function(Z4),
                      Measure(Z4, [0.5, 0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# ideals

def test_pre_annihilator_of_identity_map():
    ident = Superoperator(Z4, "schur", mask=np.ones((4, 4)))
    assert pre_annihilator_ideal(ident).dim == 0


def test_pre_annihilator_of_delta_mask():
    space = pre_annihilator_ideal(theta_hat(delta_function(S3, 0)))
    assert space.dim == 30
    offdiag = Subspace.from_span([
        np.eye(6)[:, [a]] @ np.eye(6)[[b], :] for a in range(6) for b in range(6) if a != b
    ])
    assert subspace_equal(space, offdiag)


def test_duality_dimensions_and_orthogonality():
    rng = np.random.default_rng(5)
    cases = [
        theta_hat(random_positive_definite(S3, rng)),
        theta(random_adapted_measure(S3, rng)),
        theta_hat(random_unit_at_identity(S3, rng)),
    ]
    for phi in cases:
        fixed = fixed_points(phi)
        ideal = pre_annihilator_ideal(phi)
        assert fixed.dim + ideal.dim == 36
        if fixed.dim and ideal.dim:
            pairings = ideal.basis.T @ fixed.basis[transpose_index(6)]
            assert np.abs(pairings).max() <= 1e-10


def test_ideal_suite_subgroup_indicator():
    report = linfty_perp_suite(indicator_function(S3, A3))
    assert report.dim_ideal == 36 - 18
    assert report.dim_fixed == 18
    assert report.dim_linfty_perp == 30
    assert report.dim_traceless == 35
    assert report.sigma_at_identity_is_one
    assert report.ideal_in_perp_residual <= 1e-8
    assert report.perp_in_traceless_residual <= 1e-8
    assert report.ideal_closure_residual <= 1e-10
    assert report.perp_closure_residual <= 1e-10
    assert report.quotient_formula_residual <= 1e-10
    assert report.orthogonality_residual <= 1e-10
    assert report.passed


def test_ideal_suite_nonunital_sigma_skips_chain():
    sigma = GroupFunction(Z4, [0.5, 1.0, 0.3, 0.7])
    report = linfty_perp_suite(sigma)
    assert not report.sigma_at_identity_is_one
    assert report.ideal_in_perp_residual is None


def test_invariant_algebra_trivial_subgroup():
    report = invariant_algebra(generated_subgroup(S3, []))
    assert report.orbit_count == 6
    assert report.passed


def test_invariant_algebra_whole_group():
    report = invariant_algebra(generated_subgroup(S3, list(range(6))))
    assert report.orbit_count == 1
    assert report.dim_invariant == 1
    assert report.passed


def test_invariant_algebra_a3():
    report = invariant_algebra(generated_subgroup(S3, [3]))
    assert report.orbit_count == 2
    assert report.distance <= 1e-8
    assert report.passed


def test_willis_ideal_point_mass():
    assert willis_ideal(delta_measure(Z4, 0)).dim == 0


def test_willis_ideal_adapted_z4():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    assert willis_ideal(mu).dim == 3


def test_willis_ideal_orthogonal_to_harmonic():
    rng = np.random.default_rng(6)
    for g in (Z4, S3):
        for _ in range(5):
            mu = random_adapted_measure(g, rng)
            ideal = willis_ideal(mu)
            space = harmonic_functions(mu)
            assert ideal.dim + space.dim == g.order
            pairings = ideal.basis.T @ space.basis  # bilinear sum_x f(x) phi(x)
            assert np.abs(pairings).max() <= 1e-10


def test_crossed_product_degenerate_case():
    rng = np.random.default_rng(7)
    vn = double_commutant([left_regular(S3, x) for x in range(6)], 6)
    for _ in range(5):
        mu = random_adapted_measure(S3, rng)
        fixed = fixed_points(theta(mu))
        assert projector_distance(fixed, vn) <= 1e-8


def test_nonadapted_fixed_points_are_translation_commutant():
    # averaging over unitary conjugations fixes exactly the common fixed
    # points, the commutant of the right translations in the support group
    from harmop.linalg import commutant

    mu = delta_measure(Z4, 2)
    fixed = fixed_points(theta(mu))
    comm = commutant([right_regular(Z4, 2)], 4)
    assert fixed.dim == 8
    assert projector_distance(fixed, comm) <= 1e-8


def test_general_sigma_fixed_points_inside_stripes():
    rng = np.random.default_rng(8)
    for _ in range(5):
        sigma = random_unit_at_identity(S3, rng, level_set=[0, 1, 2])
        fixed = fixed_points(theta_hat(sigma))
        from harmop.harmonic import _bimodule_span, _stripe_span
        from harmop.functions import level_set_one

        level = sorted(level_set_one(sigma))
        stripe = _stripe_span(S3, level)
        span = _bimodule_span(S3, level, DEFAULT_TOL)
        assert subspace_contains(span, fixed)
        assert subspace_contains(fixed, stripe)
