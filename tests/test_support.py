import tracemalloc

import numpy as np
import pytest

import harmop.support as support
from harmop.groups import (
    builtin_group,
    cyclic_group,
    dihedral_group,
    generated_subgroup,
    symmetric_group,
)
from harmop.functions import GroupFunction, indicator_function, uniform_measure
from harmop.generators import random_sparse_operator
from harmop.linalg import (
    CHUNK_ENTRIES,
    DEFAULT_TOL,
    LinAlgContractError,
    Subspace,
    null_space,
    projector_distance,
)
from harmop.actions import displacement_table, left_regular, mult_op, theta_hat
from harmop.harmonic import limit_product
from harmop.support import (
    annihilator_ideal,
    annihilator_ideals,
    operator_support,
    operator_supports,
)

from spans import in_span, projector

S3 = symmetric_group(3)
D4 = dihedral_group(4)
Z4 = cyclic_group(4)


def _rand(group, rng, density=1.0):
    n = group.order
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if density < 1.0:
        mat = mat * (rng.random((n, n)) < density)
    return mat


def test_support_of_multiplication_operator():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = GroupFunction(S3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert tuple(operator_support(S3, mult_op(f))) == (0,)


def test_support_of_translations():
    for g in (S3, D4):
        for x in range(g.order):
            assert tuple(operator_support(g, left_regular(g, x))) == (x,)


def test_support_of_zero_and_near_zero():
    assert len(operator_support(S3, np.zeros((6, 6)))) == 0
    tiny = np.full((6, 6), DEFAULT_TOL.entry_tol / 10)
    assert len(operator_support(S3, tiny)) == 0
    spike = np.zeros((6, 6))
    spike[2, 5] = 1.0
    assert len(operator_support(S3, spike)) == 1


def test_annihilator_of_identity_operator():
    ideal, hull = annihilator_ideal(S3, np.eye(6))
    assert ideal.dim == 5
    assert tuple(hull) == (0,)
    # the ideal is exactly the functions vanishing at e
    assert np.abs(ideal.basis[0, :]).max() < 1e-12


def test_annihilator_of_full_operator():
    rng = np.random.default_rng(1)
    t_mat = rng.standard_normal((6, 6)) + 0.5  # all entries nonzero a.s.
    assert np.all(np.abs(t_mat) > DEFAULT_TOL.entry_tol)
    ideal, hull = annihilator_ideal(S3, t_mat)
    assert ideal.dim == 0
    assert tuple(hull) == tuple(range(6))


def test_annihilator_of_zero_operator():
    ideal, hull = annihilator_ideal(S3, np.zeros((6, 6)))
    assert ideal.dim == 6
    assert tuple(hull) == ()


def test_annihilator_is_an_ideal():
    rng = np.random.default_rng(2)
    t_mat = _rand(D4, rng, density=0.4)
    ideal, _ = annihilator_ideal(D4, t_mat)
    for k in range(ideal.dim):
        phi = ideal.basis[:, k]
        for _ in range(3):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert in_span(ideal, f * phi / max(1.0, np.linalg.norm(f * phi)))


def test_hull_equals_support():
    rng = np.random.default_rng(3)
    for g in (S3, D4, Z4):
        for _ in range(25):
            t_mat = _rand(g, rng, density=0.35)
            supp = set(operator_support(g, t_mat))
            _, hull = annihilator_ideal(g, t_mat)
            assert set(hull) == supp


def test_masked_support_law():
    rng = np.random.default_rng(4)
    for _ in range(25):
        t_mat = _rand(D4, rng, density=0.5)
        values = (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        values *= rng.random(8) < 0.5
        phi = GroupFunction(D4, values)
        masked = theta_hat(phi).apply(t_mat)
        supp_m = set(operator_support(D4, masked))
        supp_phi = set(int(x) for x in np.flatnonzero(np.abs(values) > DEFAULT_TOL.entry_tol))
        supp_t = set(operator_support(D4, t_mat))
        assert supp_m <= (supp_phi & supp_t)


def test_support_of_sum_and_adjoint():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s_mat = _rand(S3, rng, density=0.3)
        t_mat = _rand(S3, rng, density=0.3)
        union = set(operator_support(S3, s_mat)) | set(operator_support(S3, t_mat))
        assert set(operator_support(S3, s_mat + t_mat)) <= union
        adj = set(operator_support(S3, s_mat.conj().T))
        assert adj == {int(S3.inverse[x]) for x in operator_support(S3, s_mat)}


def test_constant_on_subgroup_action():
    # T supported in a subgroup, phi constant there: the action is scaling by phi(e)
    rng = np.random.default_rng(6)
    a3 = generated_subgroup(S3, [3])
    disp = displacement_table(S3)
    stripe = np.isin(disp, a3.members)
    for _ in range(5):
        t_mat = _rand(S3, rng) * stripe
        assert set(operator_support(S3, t_mat)) <= set(a3.members)
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        values[list(a3.members)] = c
        phi = GroupFunction(S3, values)
        out = theta_hat(phi).apply(t_mat)
        assert np.abs(out - phi.values[0] * t_mat).max() < 1e-12


def test_support_of_subgroup_indicator_mask():
    # the mask of 1_H is supported exactly on H
    h = generated_subgroup(D4, [2])
    sigma = indicator_function(D4, h.members)
    masked = theta_hat(sigma).apply(np.ones((8, 8)))
    assert tuple(operator_support(D4, masked)) == h.members


def _is_ideal_by_loop(space):
    # the (basis column, point mass) loop that the closed form replaced
    proj = projector(space)
    for k in range(space.dim):
        for x in range(space.ambient_dim):
            prod = np.zeros(space.ambient_dim, dtype=complex)
            prod[x] = space.basis[x, k]
            if np.linalg.norm(proj @ prod - prod) > DEFAULT_TOL.eq_tol:
                return False
    return True


@pytest.mark.parametrize("span", [
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],  # a coordinate span: an ideal
    [[1.0, 5e-9, 0.0, 0.0]],  # tilted within eq_tol
    [[1.0, 2e-8, 0.0, 0.0]],  # tilted beyond eq_tol
    [[1.0, 1.0, 1.0, 1.0]],  # the constants
    [],  # the zero ideal
])
def test_ideal_check_matches_point_mass_loop(monkeypatch, span):
    space = Subspace.from_span(span) if span else Subspace.zero(4)
    monkeypatch.setattr(support, "null_spaces", lambda stack, tol: [space] * len(stack))
    t_mat = np.zeros((4, 4))
    if _is_ideal_by_loop(space):
        assert annihilator_ideal(Z4, t_mat)[0] is space
    else:
        with pytest.raises(LinAlgContractError):
            annihilator_ideal(Z4, t_mat)


@pytest.mark.parametrize("call", [
    operator_support,
    annihilator_ideal,
    lambda g, t: limit_product(t, t, uniform_measure(g)),
], ids=["operator_support", "annihilator_ideal", "limit_product"])
def test_operator_of_the_wrong_shape_is_a_value_error(call):
    with pytest.raises(ValueError, match="group order 4"):
        call(cyclic_group(4), np.eye(3))


# ---------------------------------------------------------------------------
# the stacked cores against the per-operator route they replaced

ORACLE_GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D4", "Q8", "Z2xZ4", "D6", "Z12",
                 "S4", "D12", "D30"]


def _support_oracle(group, t_mat):
    return tuple(int(x) for x in np.unique(displacement_table(group)[np.abs(t_mat) >
                                                                     DEFAULT_TOL.entry_tol]))


def _annihilator_oracle(group, t_mat):
    """null_space of the full n^2 x n map phi -> mask(phi) * T of one
    operator, its leak check through Subspace.residuals, and the hull off
    the zero rows of the basis."""
    n = group.order
    columns = np.zeros((n * n, n), dtype=complex)
    columns[np.arange(n * n), displacement_table(group).ravel()] = t_mat.ravel()
    ideal = null_space(columns)
    leak = ideal.residuals(np.eye(n))
    assert not np.any(np.abs(ideal.basis) * leak[:, None] > DEFAULT_TOL.eq_tol)
    rows = np.linalg.norm(ideal.basis, axis=1)
    return ideal, tuple(int(x) for x in np.flatnonzero(rows <= DEFAULT_TOL.rank_tol))


def _mixed_stack(group, rng):
    """The zero operator, a full-support one, sparse ones of norm 1e6 and
    1e-6 next to each other (in one chunk up to D30), a sparser one and a
    single entry: nonzero counts differ, so every stack pads."""
    n = group.order
    single = np.zeros((n, n))
    single[n - 1, 0] = 3.0
    return np.array([np.zeros((n, n)), _rand(group, rng), 1e6 * _rand(group, rng, 0.3),
                     1e-6 * _rand(group, rng, 0.5), _rand(group, rng, 0.1), single])


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_stacked_cores_match_the_per_operator_route(name):
    group = builtin_group(name)
    stack = _mixed_stack(group, np.random.default_rng(group.order))
    marks = operator_supports(group, stack)
    pairs = annihilator_ideals(group, stack)
    assert len(marks) == len(pairs) == len(stack)
    for t_mat, row, (ideal, hull) in zip(stack, marks, pairs):
        expected_ideal, expected_hull = _annihilator_oracle(group, t_mat)
        assert tuple(np.flatnonzero(row).tolist()) == _support_oracle(group, t_mat)
        assert hull.members == expected_hull == _support_oracle(group, t_mat)
        assert ideal.dim == expected_ideal.dim == group.order - len(hull)
        assert projector_distance(ideal, expected_ideal) <= 1e-12
        assert annihilator_ideal(group, t_mat)[1] == hull
        assert operator_support(group, t_mat).members == hull.members


def test_support_marks_take_any_iterable_of_operators():
    stack = _mixed_stack(D4, np.random.default_rng(7))
    marks = operator_supports(D4, stack)
    assert np.array_equal(operator_supports(D4, iter(list(stack))), marks)
    assert operator_supports(D4, []).shape == (0, 8)
    with pytest.raises(ValueError, match="group order 8"):
        operator_supports(D4, [np.eye(4)])


def test_stacked_hull_core_stays_within_the_chunk_budget():
    """20 operators of density 0.3 on Z120 would make a 170 MB stack of maps
    at once; in chunks the peak is at most one chunk of CHUNK_ENTRIES
    complex entries and numpy's QR copy of it."""
    z120 = builtin_group("Z120")
    rng = np.random.default_rng(9)
    stack = np.array([random_sparse_operator(z120, rng) for _ in range(20)])
    tracemalloc.start()
    try:
        pairs = annihilator_ideals(z120, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [hull.members for _, hull in pairs] == [_support_oracle(z120, t) for t in stack]
    assert peak <= 2 * 16 * CHUNK_ENTRIES, peak
