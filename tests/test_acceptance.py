"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from harmop.groups import (
    all_subgroups,
    builtin_group,
    cyclic_group,
    direct_product,
    generated_subgroup,
    symmetric_group,
)
from harmop.functions import (
    GroupFunction,
    Measure,
    check_adaptedness_equivalence,
    constant_function,
    convolve,
    delta_function,
    indicator_function,
    is_adapted_measure,
    level_set_one,
)
from harmop.linalg import (
    DEFAULT_TOL,
    Subspace,
    double_commutant,
    projector_distance,
)
from harmop.actions import (
    bullet,
    coassociativity_defect,
    left_regular,
    module_action,
    mult_op,
    pi_quotient,
    theta,
    theta_hat,
    theta_hat_sum_form,
    trace_pairing,
)
from harmop.support import annihilator_ideal, operator_support
from harmop.harmonic import (
    fixed_points,
    harmonic_functions,
    invariant_algebra,
    limit_product,
    linfty_perp_suite,
    verify_main_theorem,
)
from harmop.generators import (
    random_adapted_measure,
    random_nonadapted_measure,
    random_operator,
    random_positive_definite,
    random_probability_measure,
    random_sparse_operator,
    random_translation_combination,
    random_unit_at_identity,
)

MAIN_GROUPS = [
    builtin_group("Z6"),
    builtin_group("Z2xZ4"),
    builtin_group("S3"),
    builtin_group("D4"),
    builtin_group("Q8"),
]

ABELIAN_LE_12 = (
    [cyclic_group(n) for n in range(1, 13)]
    + [
        direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(2), cyclic_group(4)),
        direct_product(cyclic_group(2), cyclic_group(6)),
        direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
        direct_product(cyclic_group(3), cyclic_group(3)),
    ]
)


def _criterion_sigmas(group, rng, pd_count=20):
    sigmas = [("delta_e", delta_function(group, group.identity))]
    for sub in all_subgroups(group):
        sigmas.append((f"ind{len(sigmas)}", indicator_function(group, sub.members)))
    for i in range(pd_count):
        sigmas.append((f"pd{i}", random_positive_definite(group, rng)))
    return sigmas


def test_criterion_01_main_theorem_three_routes():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = 0
    for group in MAIN_GROUPS:
        for name, sigma in _criterion_sigmas(group, rng):
            report = verify_main_theorem(sigma)
            assert report.p1_mode, (group.name, name)
            assert max(report.distances.values()) <= 1e-8, (group.name, name)
            expected = group.order * len(report.level_set)
            assert all(d == expected for d in report.dims.values()), (group.name, name)
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (main theorem, three routes, {cases} cases, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_02_dual_form_agreement():
    rng = np.random.default_rng(102)
    groups = MAIN_GROUPS + [cyclic_group(12), symmetric_group(4)]
    worst = 0.0
    for group in groups:
        n = group.order
        for i in range(100):
            if i % 2 == 0:
                sigma = random_positive_definite(group, rng)
            else:
                sigma = random_unit_at_identity(group, rng)
            t_mat = random_operator(group, rng)
            diff = np.abs(
                theta_hat(sigma).apply(t_mat) - theta_hat_sum_form(sigma, t_mat)
            ).max()
            worst = max(worst, float(diff))
            assert diff <= 1e-10, group.name
    print(f"\nACCEPTANCE 2 (Schur vs factorization sum, worst {worst:.2e}): PASS")


def test_criterion_03_support_laws():
    rng = np.random.default_rng(103)
    tol = DEFAULT_TOL
    for group in MAIN_GROUPS:
        n = group.order
        for i in range(200):
            t_mat = random_sparse_operator(group, rng, density=0.4 if i % 2 else 1.0)
            supp = set(operator_support(group, t_mat, tol))
            _, hull = annihilator_ideal(group, t_mat, tol)
            assert set(hull) == supp, group.name
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            values *= rng.random(n) < 0.5
            phi = GroupFunction(group, values)
            masked = theta_hat(phi).apply(t_mat)
            supp_phi = set(int(x) for x in np.flatnonzero(np.abs(values) > tol.entry_tol))
            assert set(operator_support(group, masked, tol)) <= (supp_phi & supp)
            assert (len(supp) == 0) == (np.abs(t_mat).max() <= tol.entry_tol)
        for _ in range(50):
            f = GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert tuple(operator_support(group, mult_op(f), tol)) == (group.identity,)
        for x in range(n):
            assert tuple(operator_support(group, left_regular(group, x), tol)) == (x,)
        assert len(operator_support(group, np.zeros((n, n)), tol)) == 0
    print("\nACCEPTANCE 3 (support laws on 200 operators per group): PASS")


def test_criterion_04_choquet_deny_and_coset_reduction():
    rng = np.random.default_rng(104)
    for group in ABELIAN_LE_12:
        n = group.order
        for _ in range(50):
            mu = random_adapted_measure(group, rng)
            assert harmonic_functions(mu).dim == 1, group.name
        has_proper = any(len(s) < n for s in all_subgroups(group))
        if not has_proper:
            continue
        for _ in range(50):
            mu = random_nonadapted_measure(group, rng)
            space = harmonic_functions(mu)
            sub = generated_subgroup(group, mu.support())
            index = n // len(sub)
            assert space.dim == index, group.name
            # independent oracle: the span of the left-coset indicators
            cosets = sub.left_cosets()
            basis = np.zeros((n, len(cosets)))
            for k, coset in enumerate(cosets):
                basis[list(coset), k] = 1.0 / np.sqrt(len(coset))
            assert projector_distance(space, Subspace(n, basis)) <= 1e-8
    print("\nACCEPTANCE 4 (harmonic dimension = coset index, abelian <= 12): PASS")


def test_criterion_05_adaptedness_equivalence_exhaustive():
    rng = np.random.default_rng(105)
    patterns = [(1.0,), (0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)]
    checked = 0
    for group in ABELIAN_LE_12:
        n = group.order
        for weights in patterns:
            k = len(weights)
            if k > n:
                continue
            for atoms in itertools.permutations(range(n), k):
                # skip permutations that repeat an unordered choice
                if weights == (0.5, 0.5) and atoms[0] > atoms[1]:
                    continue
                if weights == (1 / 3, 1 / 3, 1 / 3) and list(atoms) != sorted(atoms):
                    continue
                if weights == (0.5, 0.25, 0.25) and atoms[1] > atoms[2]:
                    continue
                w = np.zeros(n)
                for atom, weight in zip(atoms, weights):
                    w[atom] = weight
                report = check_adaptedness_equivalence(Measure(group, w))
                assert report.agree, (group.name, atoms, weights)
                checked += 1
        for _ in range(100):
            report = check_adaptedness_equivalence(random_probability_measure(group, rng))
            assert report.agree, group.name
            checked += 1
    print(f"\nACCEPTANCE 5 (adaptedness equivalence, {checked} measures): PASS")


def test_criterion_06_convolution_fixed_points_are_translations():
    rng = np.random.default_rng(106)
    for group in MAIN_GROUPS:
        n = group.order
        vn = double_commutant([left_regular(group, x) for x in range(n)], n)
        for _ in range(20):
            mu = random_adapted_measure(group, rng)
            fixed = fixed_points(theta(mu))
            assert projector_distance(fixed, vn) <= 1e-8, group.name
    print("\nACCEPTANCE 6 (fixed points of adapted convolution = translation algebra): PASS")


def test_criterion_07_hopf_identities():
    rng = np.random.default_rng(107)
    for group in [cyclic_group(4), cyclic_group(5), cyclic_group(6), symmetric_group(3)]:
        n = group.order
        unit = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                unit[a, b] = 1.0
                assert coassociativity_defect(group, unit) <= 1e-10, group.name
                unit[a, b] = 0.0
    for group in [cyclic_group(4), symmetric_group(3), builtin_group("D4"),
                  cyclic_group(12)]:
        n = group.order
        for _ in range(100):
            a, b, c = (random_operator(group, rng) for _ in range(3))
            assoc = np.abs(
                bullet(group, bullet(group, a, b), c)
                - bullet(group, a, bullet(group, b, c))
            ).max()
            assert assoc <= 1e-10, group.name
            mult = np.abs(
                pi_quotient(group, bullet(group, a, b)).values
                - pi_quotient(group, a).values * pi_quotient(group, b).values
            ).max()
            assert mult <= 1e-10, group.name
            rightmod = np.abs(
                module_action(group, "right", a, b)
                - theta_hat(pi_quotient(group, a)).apply(b)
            ).max()
            assert rightmod <= 1e-10, group.name
            phi = GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            leftmod = np.abs(
                theta_hat(phi).apply(module_action(group, "left", a, b))
                - module_action(group, "left", a, theta_hat(phi).apply(b))
            ).max()
            assert leftmod <= 1e-10, group.name
            quotient_identity = np.abs(
                pi_quotient(group, theta_hat(phi).pre_adjoint().apply(a)).values
                - pi_quotient(group, a).values * phi.values
            ).max()
            assert quotient_identity <= 1e-10, group.name
    print("\nACCEPTANCE 7 (comultiplication and module identities): PASS")


def test_criterion_08_ideal_suite():
    rng = np.random.default_rng(108)
    for group in MAIN_GROUPS:
        n = group.order
        for name, sigma in _criterion_sigmas(group, rng):
            report = linfty_perp_suite(sigma)
            level = level_set_one(sigma)
            assert report.dim_ideal == n * n - n * len(level), (group.name, name)
            assert report.orthogonality_residual <= 1e-10, (group.name, name)
            assert report.sigma_at_identity_is_one
            assert report.ideal_in_perp_residual <= 1e-8, (group.name, name)
            assert report.perp_in_traceless_residual <= 1e-8, (group.name, name)
            assert report.ideal_closure_residual <= 1e-10, (group.name, name)
            assert report.perp_closure_residual <= 1e-10, (group.name, name)
            assert report.quotient_formula_residual <= 1e-10, (group.name, name)
    print("\nACCEPTANCE 8 (predual ideal suite): PASS")


def test_criterion_09_limit_products():
    rng = np.random.default_rng(109)
    for group in MAIN_GROUPS:
        n = group.order
        for make_measure in (random_adapted_measure, random_nonadapted_measure):
            for _ in range(10):
                mu = make_measure(group, rng)
                c, d = rng.standard_normal(2)
                limit = limit_product("function", constant_function(group, c),
                                      constant_function(group, d), mu)
                assert np.abs(limit.values - c * d).max() <= 1e-10, group.name
                s_mat = random_translation_combination(group, rng)
                t_mat = random_translation_combination(group, rng)
                limit = limit_product("operator", s_mat, t_mat, mu)
                assert np.abs(theta(mu).apply(limit) - limit).max() <= 1e-10, group.name
                assert np.abs(limit - s_mat @ t_mat).max() <= 1e-10, group.name
                # a non-harmonic product still has a harmonic limit
                f = GroupFunction(group, rng.standard_normal(n))
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "first factor is not harmonic")
                    limit = limit_product("function", f, constant_function(group, c), mu)
                assert np.abs(convolve(mu, limit).values - limit.values).max() <= 1e-10
                assert abs(limit.values.sum() - c * f.values.sum()) <= 1e-10, group.name
    print("\nACCEPTANCE 9 (ergodic limit products): PASS")


def test_criterion_10_commutant_identity():
    for group in MAIN_GROUPS:
        for sub in all_subgroups(group):
            report = invariant_algebra(sub)
            assert report.distance <= 1e-8, (group.name, sub.members)
            assert report.dim_invariant == report.orbit_count == report.dim_commutant
    print("\nACCEPTANCE 10 (commutant of translations + diagonal = orbit functions): PASS")
