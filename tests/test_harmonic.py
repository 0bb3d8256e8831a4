import contextlib
import functools

import numpy as np
import pytest

from harmop.groups import (
    all_subgroups,
    builtin_group,
    cyclic_group,
    generated_subgroup,
    symmetric_group,
)
from harmop.functions import (
    GroupFunction,
    Measure,
    constant_function,
    convolution_matrix,
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
    mult_op,
    pi_quotient,
    right_regular,
    schur_mask,
    theta,
    theta_hat,
    trace_pairing,
    transpose_index,
)
from harmop.harmonic import (
    bullet_closure_residual,
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
    random_nonadapted_measure,
    random_operator,
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

def _cesaro_gaps(advance, product, limit, steps, window):
    """The definitional ergodic limit, kept as an oracle: the Cesaro averages
    (1/N) sum_{k=1..N} advance^k(product).  Returns their largest max-norm
    distance to ``limit`` over N in [steps, steps + window) and over N in
    [2 steps, 2 steps + window).  On a periodic walk the distance at N
    depends on N modulo the period, so a window of at least one period
    compares like with like."""
    state, total, gaps = product, np.zeros_like(product), []
    for k in range(1, 2 * steps + window):
        state = advance(state)
        total = total + state
        gaps.append(float(np.abs(total / k - limit).max()))
    return max(gaps[steps - 1:steps - 1 + window]), max(gaps[2 * steps - 1:])


def test_limit_product_point_mass_is_plain_product():
    rng = np.random.default_rng(2)
    f = GroupFunction(Z4, rng.standard_normal(4))
    g_fn = GroupFunction(Z4, rng.standard_normal(4))
    limit = limit_product("function", f, g_fn, delta_measure(Z4, 0))
    assert np.abs(limit.values - f.values * g_fn.values).max() < 1e-12


def test_limit_product_constants():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    limit = limit_product("function", constant_function(Z4, 2.5),
                          constant_function(Z4, -1.5), mu)
    assert np.abs(limit.values - (-3.75)).max() < 1e-12


def test_limit_product_uniform_mean():
    rng = np.random.default_rng(3)
    f = GroupFunction(S3, rng.standard_normal(6))
    g_fn = GroupFunction(S3, rng.standard_normal(6))
    with pytest.warns(UserWarning, match="not harmonic"):
        limit = limit_product("function", f, g_fn, uniform_measure(S3))
    mean = np.mean(f.values * g_fn.values)
    assert np.abs(limit.values - mean).max() < 1e-12


def test_limit_product_operator_mode_stays_harmonic():
    rng = np.random.default_rng(4)
    mu = random_adapted_measure(S3, rng)
    s_mat = random_translation_combination(S3, rng)
    t_mat = random_translation_combination(S3, rng)
    limit = limit_product("operator", s_mat, t_mat, mu)
    action = theta(mu)
    assert np.abs(action.apply(limit) - limit).max() <= 1e-12


def test_limit_product_periodic_walks_converge_to_the_mean():
    # mu = delta_1 on Z_n walks with period n: its convolution powers never settle,
    # yet the Cesaro averages converge to the mean, and only like 1/N
    rng = np.random.default_rng(6)
    for n in (4, 6):
        group = cyclic_group(n)
        mu = delta_measure(group, 1)
        f = GroupFunction(group, rng.standard_normal(n))
        g_fn = GroupFunction(group, rng.standard_normal(n))
        with pytest.warns(UserWarning, match="not harmonic"):
            limit = limit_product("function", f, g_fn, mu)
        product = f.values * g_fn.values
        assert np.abs(limit.values - product.mean()).max() < 1e-12
        early, late = _cesaro_gaps(functools.partial(np.matmul, convolution_matrix(mu)),
                                   product, limit.values, 200, n)
        assert 1e-6 < early and late <= 0.6 * early, (n, early, late)


def _limit_measures(group, rng):
    """An adapted measure, a measure inside a proper subgroup, and one on the
    smallest subgroup whose left and right cosets differ, if there is one."""
    mus = [random_adapted_measure(group, rng), random_nonadapted_measure(group, rng)]
    skew = [s for s in all_subgroups(group) if s.left_cosets() != s.right_cosets()]
    if skew:
        weights = np.zeros(group.order)
        weights[list(skew[0].members)] = rng.uniform(0.1, 1.0, size=len(skew[0]))
        mus.append(Measure(group, weights / weights.sum()))
    return mus


@pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8", "Z2xZ4", "S4"])
def test_limit_product_agrees_with_independent_routes(name):
    group = builtin_group(name)
    n = group.order
    rng = np.random.default_rng(7)
    for mu in _limit_measures(group, rng):
        f = GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g_fn = GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        s_mat, t_mat = random_operator(group, rng), random_operator(group, rng)
        # delta_e fixes everything, so only then are the factors harmonic
        trivial = mu.support() == (group.identity,)
        with contextlib.nullcontext() if trivial else pytest.warns(UserWarning,
                                                                   match="not harmonic"):
            limit = limit_product("function", f, g_fn, mu)
            op_limit = limit_product("operator", s_mat, t_mat, mu)
            diag_limit = limit_product("operator", mult_op(f), mult_op(g_fn), mu)
        # function mode: the orthogonal projector onto the null space of C - I
        projected = harmonic_functions(mu).projector @ (f.values * g_fn.values)
        assert np.abs(limit.values - projected).max() <= 1e-12
        # operator mode: a fixed point of Theta(mu), reached by its Cesaro averages
        action = theta(mu)
        assert np.abs(action.apply(op_limit) - op_limit).max() <= 1e-12
        early, late = _cesaro_gaps(action.apply, s_mat @ t_mat, op_limit, 200, n)
        assert early <= 1e-12 or late <= 0.6 * early, (mu.support(), early, late)
        # on multiplication operators the two modes agree
        assert np.abs(diag_limit - mult_op(limit)).max() <= 1e-12


def test_limit_product_rejects_inputs_from_another_group():
    mu = uniform_measure(Z4)
    with pytest.raises(ValueError, match="different groups"):
        limit_product("function", constant_function(S3), constant_function(S3), mu)
    with pytest.raises(ValueError, match="group order 4"):
        limit_product("operator", np.eye(6), np.eye(6), mu)


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
    assert report.worst_residual == max(
        report.orthogonality_residual, report.perp_in_traceless_residual,
        report.ideal_closure_residual, report.perp_closure_residual,
        report.quotient_formula_residual,
    )


def _closure_residual_by_products(group, ideal):
    """Oracle for bullet_closure_residual: stack every product of a point-mass
    mask with a basis element, project, and loop over the basis for the
    products with matrix units on the right."""
    n = group.order
    proj = ideal.projector
    mats = [ideal.basis[:, k].reshape(n, n) for k in range(ideal.dim)]
    residual = 0.0
    products = []
    for z in range(n):
        mask_t = schur_mask(delta_function(group, z)).T
        products.extend((mask_t * mat).reshape(-1) for mat in mats)
    if products:
        stack = np.stack(products, axis=1)
        residual = float(np.linalg.norm(stack - proj @ stack, axis=0).max())
    unit_defect = np.linalg.norm(np.eye(n * n) - proj, axis=0)
    for mat in mats:
        scale = np.abs(schur_mask(pi_quotient(group, mat)).T).reshape(-1)
        residual = max(residual, float((scale * unit_defect).max()))
    return residual


def _tilted_diagonal(group, angle):
    """The diagonal units, with E_00 turned by `angle` towards a unit on the
    stripe of a non-identity element: not closed under the predual product."""
    n = group.order
    basis = _diag_span(n).basis.copy()
    basis[:, 0] = 0.0
    basis[0, 0] = np.cos(angle)
    basis[1, 0] = np.sin(angle)  # E_01 is off the diagonal: not on the stripe of e
    return Subspace(n * n, basis)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D6", "S4"])
def test_bullet_closure_residual_matches_the_product_oracle(name):
    g = builtin_group(name)
    n = g.order
    rng = np.random.default_rng(n)
    closed = [
        pre_annihilator_ideal(theta_hat(random_positive_definite(g, rng))),
        pre_annihilator_ideal(theta(random_adapted_measure(g, rng))),
        Subspace(n * n, np.eye(n * n)[:, ~np.eye(n, dtype=bool).ravel()]),  # zero diagonal
    ]
    not_closed = [
        Subspace.from_span(rng.standard_normal((3, n * n))),
        Subspace.from_span(rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))),
        _tilted_diagonal(g, 1e-3),
    ]
    residuals = [bullet_closure_residual(g, s) for s in closed + not_closed]
    oracle = [_closure_residual_by_products(g, s) for s in closed + not_closed]
    assert np.abs(np.subtract(residuals, oracle)).max() <= 1e-12
    assert max(residuals[:3]) <= DEFAULT_TOL.eq_tol < min(residuals[3:])


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
