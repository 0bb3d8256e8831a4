import contextlib
import dataclasses
import functools
import tracemalloc

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
    level_set_one,
    uniform_measure,
)
from harmop.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    commutant,
    double_commutant,
    inclusion_residual,
    null_space,
    projector_distance,
    range_space,
)
from harmop import actions, functions, harmonic, linalg
from harmop.actions import (
    Superoperator,
    bullet,
    left_regular,
    mult_op,
    pi_quotient,
    schur_mask,
    theta,
    theta_hat,
    transpose_index,
)
from harmop.support import annihilator_ideal, operator_support
from harmop.harmonic import (
    bullet_closure_residual,
    fixed_points,
    harmonic_functionals,
    harmonic_functions,
    harmonic_operators,
    invariant_algebra,
    limit_product,
    linfty_perp_suite,
    pre_annihilator_dim,
    pre_annihilator_ideal,
    verify_main_theorem,
    willis_ideal,
)
from harmop.generators import (
    random_adapted_measure,
    random_nonadapted_measures,
    random_operator,
    random_positive_definite,
    random_sparse_operator,
    random_translation_combination,
    random_unit_at_identity,
)

from spans import coordinate_span, in_span, projector
from test_actions import right_regular, trace_pairing
from test_linalg import counted_commutant

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
    ident = Superoperator(Z4, np.ones(4), np.eye(4)[Z4.identity])
    assert fixed_points(ident).dim == 16


def test_fixed_points_of_delta_mask_are_diagonals():
    space = fixed_points(theta_hat(delta_function(S3, 0)))
    assert space.dim == 6
    assert projector_distance(space, _diag_span(6)) <= 1e-8


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
    assert projector_distance(space, oracle) <= 1e-8


def _dense_map_scale(dense):
    """The largest absolute row sum of a dense map, at least 1."""
    return max(1.0, float(np.abs(dense).sum(axis=1).max()))


def dense_fixed_points(phi, tol=DEFAULT_TOL):
    """Reference for fixed_points: the null space of the n^2 x n^2 map minus
    the identity."""
    dense = phi.dense()
    return null_space(dense - np.eye(dense.shape[0]), tol, scale=_dense_map_scale(dense))


def dense_pre_annihilator(phi, tol=DEFAULT_TOL):
    """Reference for pre_annihilator_ideal: the range of the dense pre-adjoint
    minus the identity."""
    dense = phi.pre_adjoint().dense()
    return range_space(dense - np.eye(dense.shape[0]), tol, scale=_dense_map_scale(dense))


def _oracle_maps(g, rng):
    """theta(mu) for adapted, non-adapted and complex mu, theta_hat(sigma)
    for positive definite, generic and point-mass sigma, and one composite
    whose sigma is 1 on the subgroup that supp mu generates."""
    [nonadapted] = random_nonadapted_measures(g, rng, 1)
    weights = rng.random(g.order) + 1j * rng.random(g.order)
    level = generated_subgroup(g, nonadapted.support()).members
    pinned = random_unit_at_identity(g, rng, level_set=level)
    return {
        "theta(adapted)": theta(random_adapted_measure(g, rng)),
        "theta(nonadapted)": theta(nonadapted),
        "theta(complex)": theta(Measure(g, weights / weights.sum())),
        "theta_hat(pd)": theta_hat(random_positive_definite(g, rng)),
        "theta_hat(nonpd)": theta_hat(random_unit_at_identity(g, rng)),
        "theta_hat(delta_e)": theta_hat(delta_function(g, g.identity)),
        "composite": Superoperator(g, pinned.values, nonadapted.weights),
    }


@pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8", "Z2xZ4", "D6", "S4", "D12", "Z24"])
def test_stripe_solve_matches_the_dense_oracle(name):
    g = builtin_group(name)
    swap = transpose_index(g.order)
    for label, phi in _oracle_maps(g, np.random.default_rng(60 + g.order)).items():
        for route, oracle in ((fixed_points, dense_fixed_points),
                              (pre_annihilator_ideal, dense_pre_annihilator)):
            got, want = route(phi), oracle(phi)
            assert got.dim == want.dim, (label, route.__name__)
            assert projector_distance(got, want) <= 1e-12, (label, route.__name__)
        assert pre_annihilator_dim(phi) == dense_pre_annihilator(phi).dim, label
        # the pre-adjoint is the transpose conjugated by the swap, composites too
        assert np.array_equal(phi.pre_adjoint().dense(), phi.dense().T[np.ix_(swap, swap)]), label


def test_one_decomposition_per_distinct_stripe_block(monkeypatch):
    """Every block is sigma(x) R - I with one R, so theta(mu) has one block
    to decompose and theta_hat(sigma) one per distinct value of sigma."""
    g = builtin_group("D4")
    rng = np.random.default_rng(3)
    sigma = GroupFunction(g, rng.standard_normal(4)[np.arange(g.order) % 4])
    counts = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        counts.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for phi in (theta(random_adapted_measure(g, rng)), theta_hat(sigma)):
        fixed_points(phi)
        pre_annihilator_ideal(phi)
        pre_annihilator_dim(phi)
    assert counts == [1, 1, 1, 4, 4, 4]


def test_stripe_blocks_do_not_read_the_convolution_matrix(monkeypatch):
    """fixed_points(theta(mu)) builds its blocks from the group table, so a
    wrong convolution_matrix moves harmonic_functions and leaves it alone."""
    g = builtin_group("D4")
    mu = Measure(g, np.eye(g.order)[[g.identity, 1]].mean(axis=0))  # supp mu generates <1>
    fixed, functions_before = fixed_points(theta(mu)), harmonic_functions(mu)

    def wrong(measure):
        return np.eye(measure.group.order)

    monkeypatch.setattr(harmonic, "convolution_matrix", wrong)
    monkeypatch.setattr(functions, "convolution_matrix", wrong)
    assert harmonic_functions(mu).dim == g.order != functions_before.dim
    assert np.array_equal(fixed_points(theta(mu)).basis, fixed.basis)


# ---------------------------------------------------------------------------
# harmonic functions

def test_harmonic_functions_for_point_mass_at_identity():
    assert harmonic_functions(delta_measure(Z4, 0)).dim == 4


def test_harmonic_functions_adapted_z4():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    space = harmonic_functions(mu)
    assert space.dim == 1
    assert in_span(space, np.ones(4) / 2)
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
        assert in_span(space, np.array(target) / np.sqrt(2))


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
    assert in_span(space, np.eye(6).reshape(-1) / np.sqrt(6))


def test_harmonic_functionals_subgroup_indicator():
    sigma = indicator_function(S3, A3)
    space = harmonic_functionals(sigma)
    assert space.dim == 3
    algebra = double_commutant([left_regular(S3, h) for h in A3], 6)
    assert projector_distance(space, algebra) <= DEFAULT_TOL.eq_tol


def _functionals_by_svd(sigma):
    """Oracle for harmonic_functionals: the dense lambda(x) over the level
    set, stacked and orthonormalized by an SVD."""
    g = sigma.group
    level = sorted(level_set_one(sigma))
    if not level:
        return Subspace.zero(g.order ** 2)
    return Subspace.from_span(np.stack([left_regular(g, x).reshape(-1) for x in level]))


def _orbit_span_by_loops(sub):
    """Oracle for the coset basis of invariant_algebra: one diagonal unit
    per coset member, weighted 1/sqrt(|coset|), in a double loop."""
    n = sub.parent.order
    cosets = sub.right_cosets()
    basis = np.zeros((n * n, len(cosets)), dtype=complex)
    for k, coset in enumerate(cosets):
        for y in coset:
            basis[y * n + y, k] = 1.0 / np.sqrt(len(coset))
    return Subspace(n * n, basis)


@pytest.mark.parametrize("name", ["Z6", "Z2xZ4", "S3", "D4", "Q8", "S4"])
def test_index_scatters_match_the_dense_constructions(name, monkeypatch):
    g = builtin_group(name)
    rng = np.random.default_rng(12)
    subs = all_subgroups(g)
    sigmas = [indicator_function(g, sub) for sub in subs]  # delta_e and 1 among them
    sigmas += [random_positive_definite(g, rng), random_unit_at_identity(g, rng),
               random_unit_at_identity(g, rng, level_set=[0, 1, 2])]
    for sigma in sigmas:
        space, oracle = harmonic_functionals(sigma), _functionals_by_svd(sigma)
        assert space.dim == oracle.dim
        assert projector_distance(space, oracle) <= 1e-12
    for sub in subs:
        # with the loop basis standing in for the commutant, the report
        # compares the scattered coset basis against it
        oracle = _orbit_span_by_loops(sub)
        monkeypatch.setattr(harmonic, "commutant", lambda gens, n, tol: oracle)
        report = invariant_algebra(sub)
        assert report.dim_invariant == report.dim_commutant == oracle.dim
        assert report.distance <= 1e-12


def test_harmonic_operators_dimensions():
    assert harmonic_operators(constant_function(S3)).dim == 36
    assert harmonic_operators(delta_function(S3, 0)).dim == 6
    sigma = indicator_function(S3, A3)
    space = harmonic_operators(sigma)
    pair_count = sum(
        1 for a in range(6) for b in range(6) if S3.mul(a, int(S3.inverse[b])) in A3
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
        assert projector_distance(space, _diag_span(g.order)) <= 1e-8


def test_main_theorem_at_the_doubled_space_cap():
    # order 24 is SUPEROP_CAP; the commutant's stage-2 matrices here are at
    # most 14400 x 24, where the Sylvester stacks were 14400 x 576
    s4 = symmetric_group(4)
    report = verify_main_theorem(delta_function(s4, s4.identity))
    assert report.passed
    assert report.dims == {"fixed_points": 24, "generated_algebra": 24, "stripe_span": 24}


SWEEP_ZOO = ("Z6", "S3", "D4", "Q8", "Z2xZ4", "D6")


@pytest.mark.parametrize("rank_tol", [1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("name", SWEEP_ZOO)
def test_verdicts_hold_across_a_decade_of_rank_tol(name, rank_tol):
    tol = Tolerances(rank_tol=rank_tol)
    g = builtin_group(name)
    for sub in all_subgroups(g):
        report = invariant_algebra(sub, tol)
        assert report.passed
        assert report.dim_commutant == g.order // len(sub)
    rng = np.random.default_rng(SWEEP_ZOO.index(name))
    for _ in range(3):
        assert verify_main_theorem(random_positive_definite(g, rng), tol).passed


@pytest.mark.parametrize("rank_tol", [1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("name", SWEEP_ZOO)
def test_support_fixed_points_and_ideals_hold_across_a_decade_of_rank_tol(name, rank_tol):
    tol = Tolerances(rank_tol=rank_tol)
    g = builtin_group(name)
    n = g.order
    rng = np.random.default_rng(SWEEP_ZOO.index(name))
    # the hull of the annihilator ideal is the support, and the ideal is the
    # functions vanishing there
    for density in (0.05, 0.3):
        t_mat = random_sparse_operator(g, rng, density)
        ideal, hull = annihilator_ideal(g, t_mat, tol)
        supp = operator_support(g, t_mat, tol)
        assert hull.members == supp.members
        assert ideal.dim == n - len(supp)
    # the fixed points and the pre-annihilator ideal are complementary
    for action in (theta(random_adapted_measure(g, rng)),
                   theta(random_nonadapted_measures(g, rng, 1)[0]),
                   theta_hat(random_positive_definite(g, rng))):
        assert fixed_points(action, tol).dim + pre_annihilator_ideal(action, tol).dim == n * n
    # the harmonic functions have the index dimension, the Willis ideal the rest
    for mu in (random_adapted_measure(g, rng), random_nonadapted_measures(g, rng, 1)[0]):
        index = n // len(generated_subgroup(g, mu.support(tol)))
        assert harmonic_functions(mu, tol).dim == index
        assert willis_ideal(mu, tol).dim == n - index
    for _ in range(2):
        assert linfty_perp_suite(random_positive_definite(g, rng), tol).passed


def test_main_theorem_constant_sigma_gives_everything():
    report = verify_main_theorem(constant_function(S3))
    assert report.passed
    assert report.expected_dim == 36


def test_main_theorem_at_the_cap_with_constant_sigma_takes_one_commutant(monkeypatch):
    # L = G: the first commutant is the scalars, so route (B) is its block form,
    # M_24 in one block, with no second pass and no pairwise products
    calls = counted_commutant(monkeypatch)
    report = verify_main_theorem(constant_function(builtin_group("S4")))
    assert calls == [25]  # lambda(G) and the diagonal
    assert report.passed
    assert set(report.dims.values()) == {576}


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
    limit = limit_product(f, g_fn, delta_measure(Z4, 0))
    assert np.abs(limit.values - f.values * g_fn.values).max() < 1e-12


def test_limit_product_constants():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    limit = limit_product(constant_function(Z4, 2.5), constant_function(Z4, -1.5), mu)
    assert np.abs(limit.values - (-3.75)).max() < 1e-12


def test_limit_product_uniform_mean():
    rng = np.random.default_rng(3)
    f = GroupFunction(S3, rng.standard_normal(6))
    g_fn = GroupFunction(S3, rng.standard_normal(6))
    with pytest.warns(UserWarning, match="not harmonic"):
        limit = limit_product(f, g_fn, uniform_measure(S3))
    mean = np.mean(f.values * g_fn.values)
    assert np.abs(limit.values - mean).max() < 1e-12


def test_limit_product_operator_mode_stays_harmonic():
    rng = np.random.default_rng(4)
    mu = random_adapted_measure(S3, rng)
    s_mat = random_translation_combination(S3, rng)
    t_mat = random_translation_combination(S3, rng)
    limit = limit_product(s_mat, t_mat, mu)
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
            limit = limit_product(f, g_fn, mu)
        product = f.values * g_fn.values
        assert np.abs(limit.values - product.mean()).max() < 1e-12
        early, late = _cesaro_gaps(functools.partial(np.matmul, convolution_matrix(mu)),
                                   product, limit.values, 200, n)
        assert 1e-6 < early and late <= 0.6 * early, (n, early, late)


def _limit_measures(group, rng):
    """An adapted measure, a measure inside a proper subgroup, and one on the
    smallest subgroup whose left and right cosets differ, if there is one."""
    mus = [random_adapted_measure(group, rng), random_nonadapted_measures(group, rng, 1)[0]]
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
            limit = limit_product(f, g_fn, mu)
            op_limit = limit_product(s_mat, t_mat, mu)
            diag_limit = limit_product(mult_op(f), mult_op(g_fn), mu)
        # function mode: the orthogonal projector onto the null space of C - I
        projected = projector(harmonic_functions(mu)) @ (f.values * g_fn.values)
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
        limit_product(constant_function(S3), constant_function(S3), mu)
    with pytest.raises(ValueError, match="group order 4"):
        limit_product(np.eye(6), np.eye(6), mu)


def test_limit_product_rejects_a_function_with_a_matrix():
    mu = uniform_measure(Z4)
    for a, b in ((constant_function(Z4), np.eye(4)), (np.eye(4), constant_function(Z4))):
        with pytest.raises(ValueError, match="not one of each"):
            limit_product(a, b, mu)


def test_limit_product_requires_probability():
    with pytest.raises(ValueError):
        limit_product(constant_function(Z4), constant_function(Z4),
                      Measure(Z4, [0.5, 0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# ideals

def test_pre_annihilator_of_identity_map():
    ident = Superoperator(Z4, np.ones(4), np.eye(4)[Z4.identity])
    assert pre_annihilator_ideal(ident).dim == 0


def test_pre_annihilator_of_delta_mask():
    space = pre_annihilator_ideal(theta_hat(delta_function(S3, 0)))
    assert space.dim == 30
    offdiag = Subspace.from_span([
        np.eye(6)[:, [a]] @ np.eye(6)[[b], :] for a in range(6) for b in range(6) if a != b
    ])
    assert projector_distance(space, offdiag) <= 1e-8


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


def test_ideal_suite_dimension_mismatch_reads_inf():
    report = linfty_perp_suite(indicator_function(S3, A3))
    assert report.passed
    broken = dataclasses.replace(report, dim_fixed=report.dim_fixed - 1)
    assert broken.worst_residual == np.inf and not broken.passed


def _suite_masks(monkeypatch, sigma):
    """Run the suite and capture the masks it reads off the Schur map: the
    ideal and the fixed points."""
    masks, original = [], harmonic._schur_masks

    def recording(action, tol):
        masks.append(original(action, tol))
        return masks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harmonic, "_schur_masks", recording)
        report = linfty_perp_suite(sigma)
    [(ideal, fixed)] = masks
    assert (report.dim_ideal, report.dim_fixed) == (ideal.sum(), fixed.sum())
    return report, fixed, ideal


@pytest.mark.parametrize("name", ["S4", "D12", "Z2xZ2xZ6"])
@pytest.mark.parametrize("scale", [0.5, -0.5, 2.0, -2.0])
def test_suite_decides_sigma_e_at_its_own_cutoff(monkeypatch, name, scale):
    # sigma = 1 except sigma(e) = 1 + scale * c: the constant 1 moved inside
    # (|scale| < 1) or outside the cutoff c of the suite's masks
    g = builtin_group(name)
    values = np.ones(g.order)
    values[g.identity] += scale * DEFAULT_TOL.rank_tol
    report, fixed, ideal = _suite_masks(monkeypatch, GroupFunction(g, values))
    inside = abs(scale) < 1
    assert report.sigma_at_identity_is_one == fixed[0, 0] == (not ideal[0, 0]) == inside
    assert report.ideal_in_perp_residual == (0.0 if inside else None)
    assert report.passed


def _near_one_sigma(group, rng):
    """A function with values 1 +- c/2 and 1 +- 2c at four non-identity
    elements, c the suite's cutoff: the first two sit inside it, the last
    two outside."""
    values = random_unit_at_identity(group, rng).values.copy()
    cut = DEFAULT_TOL.rank_tol * max(1.0, float(np.abs(values).max()))
    others = [x for x in range(group.order) if x != group.identity][:4]
    values[others] = [1 + cut / 2, 1 - 0.5j * cut, 1 + 2 * cut, 1 - 2j * cut]
    return GroupFunction(group, values)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D6", "S4"])
def test_suite_coordinate_spans_match_the_svd_routes(monkeypatch, name):
    g = builtin_group(name)
    n = g.order
    rng = np.random.default_rng(40 + n)
    sigmas = [random_positive_definite(g, rng), random_unit_at_identity(g, rng),
              _near_one_sigma(g, rng)]
    for k, sigma in enumerate(sigmas):
        report, fixed_mask, ideal_mask = _suite_masks(monkeypatch, sigma)
        fixed = coordinate_span(fixed_mask)
        ideal = coordinate_span(ideal_mask)
        svd_fixed = fixed_points(theta_hat(sigma))
        svd_ideal = pre_annihilator_ideal(theta_hat(sigma))
        assert (fixed.dim, ideal.dim) == (svd_fixed.dim, svd_ideal.dim), (name, k)
        assert projector_distance(fixed, svd_fixed) <= 1e-12, (name, k)
        assert projector_distance(ideal, svd_ideal) <= 1e-12, (name, k)
        assert report.passed, (name, k)
    assert fixed.dim == 3 * n  # the identity and the two values within the cutoff


def _dense_suite_residuals(group, ideal_mask, fixed_mask):
    """The suite's mask residuals on dense Subspaces: the pairing of the bases,
    inclusion_residual, bullet_closure_residual and the SVD traceless span."""
    n = group.order
    ideal = coordinate_span(ideal_mask)
    fixed = coordinate_span(fixed_mask)
    perp = coordinate_span(~np.eye(n, dtype=bool))
    traceless = null_space(np.eye(n).reshape(1, -1))
    pairings = ideal.basis.T @ fixed.basis[transpose_index(n)]
    return {
        "dim_traceless": traceless.dim,
        "orthogonality_residual": float(np.abs(pairings).max()) if pairings.size else 0.0,
        "ideal_in_perp_residual": inclusion_residual(ideal, perp),
        "perp_in_traceless_residual": inclusion_residual(perp, traceless),
        "ideal_closure_residual": bullet_closure_residual(group, ideal),
        "perp_closure_residual": bullet_closure_residual(group, perp),
    }


def _suite_against_dense(monkeypatch, sigma):
    """Run the suite and assert that each residual equals its dense oracle."""
    report, fixed, ideal = _suite_masks(monkeypatch, sigma)
    oracle = _dense_suite_residuals(sigma.group, ideal, fixed)
    if not report.sigma_at_identity_is_one:
        oracle["ideal_in_perp_residual"] = None
    assert {key: getattr(report, key) for key in oracle} == oracle
    return report


def _off_stripe(schur_masks):
    """schur_masks with the unit (0, 1) also fixed and (1, 0) out of the
    ideal: masks that are not constant on the stripes of 0 * 1^-1 and
    1 * 0^-1, so the ideal cuts a stripe."""
    def masks(action, tol):
        ideal, fixed = schur_masks(action, tol)
        fixed[0, 1], ideal[1, 0] = True, False
        return ideal, fixed
    return masks


def _untransposed(self):
    """A pre-adjoint that leaves sigma and mu where they are."""
    return self


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D6", "S4"])
def test_suite_residuals_equal_the_dense_oracle(monkeypatch, name):
    g = builtin_group(name)
    rng = np.random.default_rng(40 + g.order)
    r = next(x for x in range(g.order) if g.inverse[x] != x)
    sigmas = [random_positive_definite(g, rng), random_unit_at_identity(g, rng),
              _near_one_sigma(g, rng), random_unit_at_identity(g, rng, level_set=[r]),
              GroupFunction(g, rng.standard_normal(g.order))]  # sigma(e) != 1
    for k, sigma in enumerate(sigmas):
        assert _suite_against_dense(monkeypatch, sigma).passed, (name, k)
    assert linfty_perp_suite(sigmas[0]).quotient_formula_residual \
        == _quotient_residual_by_pairs(g) == 0.0

    with monkeypatch.context() as patch:
        patch.setattr(harmonic, "_schur_masks", _off_stripe(harmonic._schur_masks))
        broken = _suite_against_dense(monkeypatch, sigmas[0])
    assert (broken.ideal_closure_residual, broken.passed) == (1.0, False)

    with monkeypatch.context() as patch:
        patch.setattr(Superoperator, "pre_adjoint", _untransposed)
        broken = _suite_against_dense(monkeypatch, sigmas[3])
    assert (broken.orthogonality_residual, broken.passed) == (1.0, False)


def test_suite_forms_no_doubled_space_array(monkeypatch):
    """One complex 576 x 576 array is 5.3 MB; the suite on S4 builds no
    Subspace, calls no decomposition and peaks far below that."""
    sigma = random_positive_definite(builtin_group("S4"), np.random.default_rng(7))

    def refuse(*args, **kwargs):
        raise AssertionError("the ideal suite reached a dense route")

    for module, name in ((np.linalg, "svd"), (np.linalg, "qr"), (Subspace, "__init__")):
        monkeypatch.setattr(module, name, refuse)
    tracemalloc.start()
    try:
        report = linfty_perp_suite(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2_000_000, peak


def _diagonal_units(n):
    """The matrix units E_aa; they span the multiplication operators."""
    return list(np.eye(n)[:, :, None] * np.eye(n))


def _quotient_residual_by_pairs(group):
    """The per-pair form of the suite's quotient check: bullet(E_ff, E_gg)
    against Tr(E_ff) E_gg, one bullet call per pair."""
    n = group.order
    units = _diagonal_units(n)
    return max(
        float(np.abs(bullet(group, f_mat, g_mat) - trace_pairing(np.eye(n), f_mat) * g_mat).max())
        for f_mat in units for g_mat in units
    )


def test_suite_checks_fail_on_broken_pre_adjoint_and_quotient(monkeypatch):
    rng = np.random.default_rng(41)
    r = next(x for x in range(S3.order) if S3.inverse[x] != x)
    sigma = random_unit_at_identity(S3, rng, level_set=[r])  # r^-1 is not in the level set
    report = linfty_perp_suite(sigma)
    assert report.passed and report.orthogonality_residual == 0.0
    assert report.quotient_formula_residual == _quotient_residual_by_pairs(S3) == 0.0

    with monkeypatch.context() as patch:
        patch.setattr(Superoperator, "pre_adjoint", _untransposed)
        broken = linfty_perp_suite(sigma)
    assert not broken.passed
    assert broken.orthogonality_residual == 1.0
    assert broken.dim_ideal + broken.dim_fixed == broken.dim_traceless + 1

    def pi_summed_over_x(group, omega):
        return omega[..., np.arange(group.order), group.table].sum(axis=-2)

    with monkeypatch.context() as patch:
        patch.setattr(actions, "_pi_gather", pi_summed_over_x)
        broken = linfty_perp_suite(sigma)
        per_pair = _quotient_residual_by_pairs(S3)
    assert not broken.passed
    assert broken.quotient_formula_residual == per_pair == 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_suite_rejects_non_finite_sigma(bad):
    values = np.ones(S3.order, dtype=complex)
    values[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linfty_perp_suite(GroupFunction(S3, values))


def _closure_residual_by_products(group, ideal):
    """Oracle for bullet_closure_residual: stack every product of a point-mass
    mask with a basis element, project, and loop over the basis for the
    products with matrix units on the right."""
    n = group.order
    proj = projector(ideal)
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


def _units_form(group, members):
    """The oracle for harmonic._subgroup_generators: lambda(h) for each member
    and every unit E_aa in place of the one diagonal."""
    return [left_regular(group, h) for h in members] + _diagonal_units(group.order)


@pytest.mark.parametrize("name", SWEEP_ZOO + ("S4", "D12", "Z24", "Z2xZ12", "Z2xZ2xZ6"))
def test_one_multiplication_operator_gives_the_commutant_of_all_units(name):
    g = builtin_group(name)
    for sub in all_subgroups(g):
        space = commutant(harmonic._subgroup_generators(g, sub), g.order)
        oracle = commutant(_units_form(g, sub), g.order)
        assert space.dim == oracle.dim == g.order // len(sub)
        assert projector_distance(space, oracle) <= 1e-10


@pytest.mark.parametrize("name", SWEEP_ZOO)
def test_route_b_gives_the_algebra_of_all_units_on_p1_level_sets(name):
    g = builtin_group(name)
    for sub in all_subgroups(g):
        algebra = double_commutant(harmonic._subgroup_generators(g, sub), g.order)
        oracle = double_commutant(_units_form(g, sub), g.order)
        assert algebra.dim == oracle.dim == g.order * len(sub)
        assert projector_distance(algebra, oracle) <= 1e-10


def test_invariant_algebra_stage_two_has_one_row_block_per_generator(monkeypatch):
    g = builtin_group("Z24")
    n = g.order
    shapes = []
    original = linalg.null_space

    def recording(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(linalg, "null_space", recording)
    for sub in all_subgroups(g):
        shapes.clear()
        assert invariant_algebra(sub).passed
        assert len(shapes) == 1 and shapes[0][0] <= (len(sub) + 1) * n * n, shapes


def test_invariant_algebra_memory_over_the_subgroups_of_z24():
    # with all 24 units as generators the largest stage-2 matrix was 58.8 MB
    subs = all_subgroups(builtin_group("Z24"))
    tracemalloc.start()
    try:
        assert all(invariant_algebra(sub).passed for sub in subs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


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


def test_invariant_algebra_dimension_mismatch_reads_inf(monkeypatch):
    original = harmonic.commutant

    def short(gens, n, tol):
        comm = original(gens, n, tol)
        return Subspace(comm.ambient_dim, comm.basis[:, 1:])

    monkeypatch.setattr(harmonic, "commutant", short)
    report = invariant_algebra(generated_subgroup(S3, [3]))
    assert report.dim_commutant == report.orbit_count - 1
    assert report.metric == np.inf and not report.passed


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

        level = sorted(level_set_one(sigma))
        stripe = _stripe_span(S3, level)
        span = _bimodule_span(S3, level, DEFAULT_TOL)
        assert inclusion_residual(span, fixed) <= 1e-8
        assert inclusion_residual(fixed, stripe) <= 1e-8
