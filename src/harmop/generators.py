"""Seeded random inputs for the verification suites."""

from __future__ import annotations

import numpy as np

from .groups import GroupTable, all_subgroups, generated_subgroup
from .functions import GroupFunction, Measure
from .actions import displacement_table


def random_positive_definite(group: GroupTable, rng: np.random.Generator) -> GroupFunction:
    """sigma(x) = <lambda(x) xi, xi> / ||xi||^2 for a random vector xi;
    positive definite with sigma(e) = 1 by construction."""
    n = group.order
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return GroupFunction(group, xi[group.table[group.inverse]] @ xi.conj() / np.vdot(xi, xi))


def random_unit_at_identity(group: GroupTable, rng: np.random.Generator,
                            level_set=None) -> GroupFunction:
    """A generically non-positive-definite function with value 1 at e; if
    ``level_set`` indices are given, the value is pinned to 1 there too."""
    n = group.order
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values[group.identity] = 1.0
    if level_set is not None:
        for x in level_set:
            values[x] = 1.0
    return GroupFunction(group, values)


def _weights_on(group: GroupTable, support, rng: np.random.Generator) -> Measure:
    w = np.zeros(group.order, dtype=complex)
    raw = rng.uniform(0.1, 1.0, size=len(support))
    w[list(support)] = raw / raw.sum()
    return Measure(group, w)


def random_adapted_measure(group: GroupTable, rng: np.random.Generator) -> Measure:
    """A probability measure whose support generates the group: sample a
    support, then grow it until it generates."""
    n = group.order
    size = int(rng.integers(1, n + 1))
    support = set(int(x) for x in rng.choice(n, size=size, replace=False))
    while len(generated_subgroup(group, support)) < n:
        support.add(int(rng.integers(0, n)))
    return _weights_on(group, sorted(support), rng)


def random_nonadapted_measures(group: GroupTable, rng: np.random.Generator, count: int) -> list[Measure]:
    """``count`` probability measures, each inside a proper subgroup drawn
    from one enumeration of the subgroups."""
    proper = [s for s in all_subgroups(group) if len(s) < group.order]
    if not proper:
        raise ValueError(f"{group.name} has no proper subgroup; every measure is adapted")
    measures = []
    for _ in range(count):
        sub = proper[int(rng.integers(0, len(proper)))]
        size = int(rng.integers(1, len(sub) + 1))
        support = rng.choice(sub.members, size=size, replace=False)
        measures.append(_weights_on(group, [int(x) for x in support], rng))
    return measures


def random_probability_measure(group: GroupTable, rng: np.random.Generator) -> Measure:
    size = int(rng.integers(1, group.order + 1))
    support = rng.choice(group.order, size=size, replace=False)
    return _weights_on(group, [int(x) for x in support], rng)


def random_operator(group: GroupTable, rng: np.random.Generator) -> np.ndarray:
    n = group.order
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_sparse_operator(group: GroupTable, rng: np.random.Generator,
                           density: float = 0.3) -> np.ndarray:
    mat = random_operator(group, rng)
    return mat * (rng.random(mat.shape) < density)


def random_translation_combination(group: GroupTable, rng: np.random.Generator) -> np.ndarray:
    """A random element of the span of the left translations: sum_x c_x
    lambda(x) has entry c_x at (a, b) exactly when a b^-1 = x."""
    coeff = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return coeff[displacement_table(group)]
