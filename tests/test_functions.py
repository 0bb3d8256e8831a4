import copy

import numpy as np
import pytest

from harmop.groups import (
    Subgroup,
    characters,
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
    convolution_matrix,
    convolve,
    convolve_measures,
    delta_function,
    delta_measure,
    fs_transform,
    function_from_json,
    function_to_json,
    gram_matrix,
    in_p1,
    indicator_function,
    is_adapted_measure,
    is_positive_definite,
    level_set_one,
    measure_from_json,
    measure_to_json,
    uniform_measure,
)
from harmop.generators import random_positive_definite, random_unit_at_identity

Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)
A3 = (0, 3, 4)  # even permutations in lexicographic order


def test_delta_e_positive_definite():
    ok, witness = is_positive_definite(delta_function(S3, 0))
    assert ok
    assert np.array_equal(witness.gram, np.eye(6))


def test_constant_one_positive_definite():
    ok, witness = is_positive_definite(constant_function(Z4))
    assert ok
    assert np.array_equal(witness.gram, np.ones((4, 4)))
    assert witness.min_eigenvalue > -1e-12


def test_character_positive_definite_rank_one_gram():
    gamma = characters(Z4)[1]
    sigma = GroupFunction(Z4, gamma)
    ok, witness = is_positive_definite(sigma)
    assert ok
    # K[x][y] = gamma(x)^-1 gamma(y) = conj(gamma(x)) gamma(y), a rank-1 Gram
    expected = np.outer(np.conj(gamma), gamma)
    assert np.abs(witness.gram - expected).max() < 1e-12
    assert np.linalg.matrix_rank(witness.gram) == 1


def test_shifted_delta_not_positive_definite():
    ok, witness = is_positive_definite(delta_function(Z4, 1))
    assert not ok
    assert witness.min_eigenvalue < -0.5


def test_pd_consequences():
    rng = np.random.default_rng(0)
    for group in (Z6, S3):
        for _ in range(5):
            replay = copy.deepcopy(rng)
            sigma = random_positive_definite(group, rng)
            vals = sigma.values
            assert np.all(np.abs(vals) <= abs(vals[0]) + 1e-12)
            for x in range(group.order):
                assert abs(vals[int(group.inverse[x])] - np.conj(vals[x])) < 1e-12
            # against the loop <lambda(x) xi, xi> / ||xi||^2 on the same draw
            xi = replay.standard_normal(group.order) + 1j * replay.standard_normal(group.order)
            loop = [np.vdot(xi, xi[group.table[int(group.inverse[x])]]) for x in range(group.order)]
            assert np.abs(vals - np.array(loop) / np.vdot(xi, xi)).max() < 1e-14


def test_indicator_of_subgroup_positive_definite():
    # brute-force PSD check of the Gram plus the level set
    h = generated_subgroup(Z6, [3])
    sigma = indicator_function(Z6, h.members)
    ok, witness = is_positive_definite(sigma)
    assert ok
    eigs = np.linalg.eigvalsh((witness.gram + witness.gram.conj().T) / 2)
    assert eigs.min() > -1e-12
    level = level_set_one(sigma)
    assert isinstance(level, Subgroup)
    assert level.members == h.members


def test_level_set_constant_one():
    level = level_set_one(constant_function(S3))
    assert isinstance(level, Subgroup)
    assert level.members == tuple(range(6))


def test_level_set_delta_e():
    level = level_set_one(delta_function(S3, 0))
    assert isinstance(level, Subgroup)
    assert level.members == (0,)


def test_level_set_non_p1_returns_plain_set():
    sigma = GroupFunction(Z4, [1.0, 1.0, 3.0, -1.0])
    level = level_set_one(sigma)
    assert isinstance(level, frozenset)
    assert level == {0, 1}


def test_level_set_is_a_subgroup_exactly_in_p1():
    rng = np.random.default_rng(3)
    sigmas = [random_positive_definite(S3, rng) for _ in range(3)]
    sigmas += [random_unit_at_identity(S3, rng, level_set=[0, 3, 4]) for _ in range(3)]
    sigmas += [GroupFunction(Z4, 2.0 * np.ones(4)), indicator_function(S3, A3)]
    verdicts = [(isinstance(level_set_one(s), Subgroup), in_p1(s)) for s in sigmas]
    assert all(a == b for a, b in verdicts)
    assert {b for _, b in verdicts} == {True, False}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
def test_non_finite_values_are_rejected(bad):
    values = np.ones(4, dtype=complex)
    values[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GroupFunction(Z4, values)
    with pytest.raises(ValueError, match="non-finite"):
        Measure(Z4, values)


def test_in_p1_requires_unit_value_at_identity():
    sigma = GroupFunction(Z4, 2.0 * np.ones(4))
    ok, _ = is_positive_definite(sigma)
    assert ok
    assert not in_p1(sigma)


def test_is_adapted_measure():
    z2 = cyclic_group(2)
    assert not is_adapted_measure(delta_measure(z2, 0))
    for g in (Z4, S3):
        assert is_adapted_measure(uniform_measure(g))
    assert not is_adapted_measure(delta_measure(Z4, 2))  # <{2}> = {0, 2}
    with pytest.raises(ValueError):
        is_adapted_measure(Measure(Z4, [2.0, 0, 0, 0]))


def test_fs_transform_delta_e():
    hat = fs_transform(delta_measure(Z6, 0))
    assert np.abs(hat - 1.0).max() < 1e-12


def test_fs_transform_uniform_picks_trivial_character():
    # orthogonality: sum of a nontrivial character vanishes
    for g in (Z4, Z6):
        hat = fs_transform(uniform_measure(g))
        expected = np.zeros(g.order)
        expected[0] = 1.0
        assert np.abs(hat - expected).max() < 1e-12


def test_fs_transform_z4_two_atoms():
    mu = Measure(Z4, [0, 0.5, 0, 0.5])
    hat = fs_transform(mu)
    assert np.abs(hat - np.array([1.0, 0.0, -1.0, 0.0])).max() < 1e-12


def test_adaptedness_equivalence_examples():
    z2 = cyclic_group(2)
    rep = check_adaptedness_equivalence(delta_measure(z2, 0))
    assert (rep.measure_side, rep.transform_side) == (False, False)
    rep = check_adaptedness_equivalence(uniform_measure(cyclic_group(3)))
    assert (rep.measure_side, rep.transform_side) == (True, True)
    mu = Measure(Z6, [0, 0, 0.5, 0.5, 0, 0])
    rep = check_adaptedness_equivalence(mu)
    assert rep.measure_side and rep.transform_side and rep.agree


def test_adaptedness_equivalence_random():
    from harmop.generators import random_probability_measure

    rng = np.random.default_rng(1)
    for g in (Z4, Z6, direct_product(cyclic_group(2), cyclic_group(2))):
        for _ in range(25):
            rep = check_adaptedness_equivalence(random_probability_measure(g, rng))
            assert rep.agree


def test_convolve_delta_e_is_unit():
    rng = np.random.default_rng(2)
    phi = GroupFunction(S3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    out = convolve(delta_measure(S3, 0), phi)
    assert np.abs(out.values - phi.values).max() < 1e-14


def test_convolve_uniform_averages():
    rng = np.random.default_rng(3)
    phi = GroupFunction(S3, rng.standard_normal(6))
    out = convolve(uniform_measure(S3), phi)
    assert np.abs(out.values - phi.values.mean()).max() < 1e-14


def test_convolve_z4_shift():
    out = convolve(delta_measure(Z4, 1), delta_function(Z4, 0))
    expected = np.zeros(4)
    expected[3] = 1.0  # phi(x+1) is nonzero only at x = 3
    assert np.abs(out.values - expected).max() == 0.0


def test_convolve_group_mismatch():
    with pytest.raises(ValueError):
        convolve(delta_measure(Z4, 0), delta_function(Z6, 0))


def test_convolution_associativity_pins_measure_product():
    rng = np.random.default_rng(4)
    for g in (Z6, S3):
        for _ in range(5):
            mu = Measure(g, rng.random(g.order))
            nu = Measure(g, rng.random(g.order))
            phi = GroupFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            lhs = convolve(mu, convolve(nu, phi)).values
            rhs = convolve(convolve_measures(mu, nu), phi).values
            assert np.abs(lhs - rhs).max() < 1e-12


def test_convolution_matrix_matches_convolve():
    rng = np.random.default_rng(5)
    mu = Measure(S3, rng.random(6))
    phi = GroupFunction(S3, rng.standard_normal(6))
    assert np.abs(convolution_matrix(mu) @ phi.values - convolve(mu, phi).values).max() < 1e-14


def test_function_json_round_trip():
    rng = np.random.default_rng(6)
    phi = GroupFunction(Z4, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    doc = function_to_json(phi)
    back = function_from_json(doc, Z4)
    assert np.abs(back.values - phi.values).max() == 0.0
    with pytest.raises(ValueError):
        function_from_json(doc, Z6)


def test_measure_json_round_trip():
    mu = Measure(Z4, [0.25, 0.25, 0.5, 0.0])
    doc = measure_to_json(mu)
    back = measure_from_json(doc, Z4)
    assert np.abs(back.weights - mu.weights).max() == 0.0
    assert back.is_probability()
    with pytest.raises(ValueError):
        measure_from_json({"group": "Z4", "weights": [1.0]}, Z4)


def test_json_rejects_malformed_cells():
    from harmop.groups import SchemaError, cyclic_group

    z2 = cyclic_group(2)
    for bad in (
        {"group": "Z2", "values": [[1.0], [0.0, 0.0]]},
        {"group": "Z2", "values": [["a", 0], [0, 0]]},
    ):
        with pytest.raises(SchemaError):
            function_from_json(bad, z2)
    with pytest.raises(SchemaError):
        measure_from_json({"group": "Z2", "weights": ["x", 0.5]}, z2)


def test_gram_matrix_shape():
    sigma = indicator_function(S3, A3)
    k = gram_matrix(sigma)
    for x in range(6):
        for y in range(6):
            assert k[x, y] == sigma.values[S3.mul(int(S3.inverse[x]), y)]


def test_level_set_of_coset_invariant_state_is_a_subgroup():
    # a vector constant on the right cosets of H yields a positive definite
    # function whose level set contains H and is itself a subgroup
    rng = np.random.default_rng(7)
    for g, gens in ((S3, [3]), (Z6, [2]), (Z6, [3])):
        h = generated_subgroup(g, gens)
        xi = np.zeros(g.order, dtype=complex)
        for coset in h.right_cosets():
            val = rng.standard_normal() + 1j * rng.standard_normal()
            for y in coset:
                xi[y] = val
        vals = np.array(
            [np.vdot(xi, xi[g.table[int(g.inverse[x])]]) for x in range(g.order)]
        ) / np.vdot(xi, xi)
        sigma = GroupFunction(g, vals)
        assert in_p1(sigma)
        level = level_set_one(sigma)
        assert isinstance(level, Subgroup)
        assert set(h.members) <= set(level)
