"""Functions and measures on a finite group: positive definiteness, level
sets, adaptedness on both sides of the Fourier-Stieltjes transform, and the
convolution action.

Convolution convention, fixed repo-wide: (mu conv phi)(x) = sum_t mu(t) phi(x t).
This is the unique choice under which the convolution action on multiplication
operators agrees with conjugation by right translations (see actions.theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, SchemaError, Subgroup, characters, generated_subgroup
from .linalg import DEFAULT_TOL, Tolerances, diagonal_cutoff, psd_eigh


class ToleranceMisconfiguration(ValueError):
    """A verified structural fact failed at the configured tolerances."""


def _group_vector(group: GroupTable, entries, what: str) -> np.ndarray:
    """A read-only complex copy of one finite entry per group element."""
    vec = np.array(entries, dtype=complex)
    if vec.shape != (group.order,):
        raise ValueError(f"expected {group.order} {what}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} are non-finite at {np.flatnonzero(~np.isfinite(vec)).tolist()}")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class GroupFunction:
    """A complex-valued function on the group, as its value vector."""

    group: GroupTable
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _group_vector(self.group, self.values, "values"))

    def __call__(self, x: int) -> complex:
        return complex(self.values[x])


@dataclass(frozen=True)
class Measure:
    """A complex measure on the group, as its weight vector."""

    group: GroupTable
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _group_vector(self.group, self.weights, "weights"))

    def is_probability(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        w = self.weights
        return (
            float(np.abs(w.imag).max(initial=0.0)) <= tol.entry_tol
            and float(w.real.min()) >= -tol.entry_tol
            and abs(float(w.real.sum()) - 1.0) <= tol.entry_tol
        )

    def support(self, tol: Tolerances = DEFAULT_TOL) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(np.abs(self.weights) > tol.entry_tol))


@dataclass(frozen=True)
class PDWitness:
    """Gram matrix K[x][y] = sigma(x^-1 y) and its smallest eigenvalue."""

    gram: np.ndarray
    min_eigenvalue: float


# ---------------------------------------------------------------------------
# basic constructors

def delta_function(group: GroupTable, x: int) -> GroupFunction:
    v = np.zeros(group.order, dtype=complex)
    v[x] = 1.0
    return GroupFunction(group, v)


def constant_function(group: GroupTable, c: complex = 1.0) -> GroupFunction:
    return GroupFunction(group, np.full(group.order, c, dtype=complex))


def indicator_function(group: GroupTable, members) -> GroupFunction:
    v = np.zeros(group.order, dtype=complex)
    v[list(members)] = 1.0
    return GroupFunction(group, v)


def delta_measure(group: GroupTable, x: int) -> Measure:
    w = np.zeros(group.order, dtype=complex)
    w[x] = 1.0
    return Measure(group, w)


def uniform_measure(group: GroupTable) -> Measure:
    return Measure(group, np.full(group.order, 1.0 / group.order, dtype=complex))


# ---------------------------------------------------------------------------
# positive definiteness and level sets

def gram_matrix(sigma: GroupFunction) -> np.ndarray:
    """K[x][y] = sigma(x^-1 y)."""
    g = sigma.group
    return sigma.values[g.table[g.inverse, :]]


def is_positive_definite(sigma: GroupFunction,
                         tol: Tolerances = DEFAULT_TOL) -> tuple[bool, PDWitness]:
    """PSD test (linalg.psd_eigh) on the Gram matrix K[x][y] = sigma(x^-1 y)."""
    k = gram_matrix(sigma)
    ok, eigs, _ = psd_eigh(k, tol)
    return ok, PDWitness(k, float(eigs.min()))


def in_p1(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive definite with sigma(e) = 1.  (For positive definite sigma the
    norm equals sigma(e), so no norm computation is needed.)"""
    ok, _ = is_positive_definite(sigma, tol)
    return ok and abs(sigma.values[sigma.group.identity] - 1.0) <= tol.eq_tol


def level_set_one(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL):
    """{x : |sigma(x) - 1| <= eq_tol}.  The multiplier action's fixed points
    read sigma(x) = 1 at linalg.diagonal_cutoff, so an x the two tests decide
    differently raises ToleranceMisconfiguration.

    Returns a Subgroup exactly when sigma is in P1(G), the level set verified
    to be one; otherwise a plain frozenset.  Callers read P1 off the type.
    """
    dist = np.abs(sigma.values - 1.0)
    cut = diagonal_cutoff(sigma.values, tol)
    split = np.flatnonzero((dist <= tol.eq_tol) != (dist <= cut))
    if split.size:
        x = int(split[0])
        raise ToleranceMisconfiguration(
            f"|sigma({x}) - 1| = {dist[x]:.3g} reads as sigma = 1 at only one of "
            f"eq_tol={tol.eq_tol:g} and the rank cutoff {cut:.3g}")
    members = frozenset(int(x) for x in np.flatnonzero(dist <= tol.eq_tol))
    if in_p1(sigma, tol):
        try:
            return Subgroup(sigma.group, tuple(members))
        except ValueError as exc:
            raise ToleranceMisconfiguration(
                f"level set {sorted(members)} of a P1 function is not a subgroup; "
                f"eq_tol={tol.eq_tol} is misconfigured"
            ) from exc
    return members


def is_adapted_measure(mu: Measure, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the support of the probability measure generates the group."""
    if not mu.is_probability(tol):
        raise ValueError("adaptedness is defined for probability measures")
    return len(generated_subgroup(mu.group, mu.support(tol))) == mu.group.order


# ---------------------------------------------------------------------------
# Fourier-Stieltjes side (abelian groups)

def fs_transform(mu: Measure) -> np.ndarray:
    """mu_hat(gamma) = sum_x conj(gamma(x)) mu(x), aligned with the rows of
    characters(G) (trivial character first)."""
    return characters(mu.group).conj() @ mu.weights


@dataclass(frozen=True)
class AdaptednessReport:
    measure_side: bool
    transform_side: bool
    unit_characters: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.measure_side == self.transform_side


def check_adaptedness_equivalence(mu: Measure,
                                  tol: Tolerances = DEFAULT_TOL) -> AdaptednessReport:
    """Compare support-generation adaptedness with the transform-side test
    {gamma : mu_hat(gamma) = 1} = {trivial character}."""
    measure_side = is_adapted_measure(mu, tol)
    hat = fs_transform(mu)
    unit = tuple(int(i) for i in np.flatnonzero(np.abs(hat - 1.0) <= tol.eq_tol))
    transform_side = unit == (0,)
    return AdaptednessReport(measure_side, transform_side, unit)


# ---------------------------------------------------------------------------
# convolution

def same_group(g1: GroupTable, g2: GroupTable) -> bool:
    return g1 is g2 or (g1.order == g2.order and np.array_equal(g1.table, g2.table))


def convolve(mu: Measure, phi: GroupFunction) -> GroupFunction:
    """(mu conv phi)(x) = sum_t mu(t) phi(x t)."""
    if not same_group(mu.group, phi.group):
        raise ValueError("measure and function live on different groups")
    g = phi.group
    return GroupFunction(g, phi.values[g.table] @ mu.weights)


def convolve_measures(mu: Measure, nu: Measure) -> Measure:
    """(mu conv nu)(u) = sum_t mu(t) nu(t^-1 u); the unique product with
    convolve(mu, convolve(nu, phi)) = convolve(mu conv nu, phi)."""
    if not same_group(mu.group, nu.group):
        raise ValueError("measures live on different groups")
    g = mu.group
    return Measure(g, mu.weights @ nu.weights[g.table[g.inverse]])


def convolution_matrix(mu: Measure) -> np.ndarray:
    """Matrix C with (mu conv phi) = C phi, i.e. C[x][y] = mu(x^-1 y)."""
    g = mu.group
    return mu.weights[g.table[g.inverse]]


# ---------------------------------------------------------------------------
# JSON wire formats

def function_to_json(phi: GroupFunction) -> dict:
    return {
        "group": phi.group.name,
        "values": [[float(v.real), float(v.imag)] for v in phi.values],
    }


def function_from_json(document: dict, group: GroupTable) -> GroupFunction:
    if not isinstance(document, dict) or "values" not in document:
        raise SchemaError("function document must be an object with a 'values' field")
    if document.get("group") != group.name:
        raise SchemaError(
            f"function document is for group {document.get('group')!r}, not {group.name!r}"
        )
    vals = document["values"]
    if len(vals) != group.order or not all(_is_re_im_pair(p) for p in vals):
        raise SchemaError(f"'values' must be {group.order} [re, im] pairs")
    return GroupFunction(group, np.array([complex(re, im) for re, im in vals]))


def _is_re_im_pair(p) -> bool:
    return (
        isinstance(p, (list, tuple))
        and len(p) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
    )


def measure_to_json(mu: Measure) -> dict:
    if float(np.abs(mu.weights.imag).max(initial=0.0)) > 0:
        raise ValueError("only real-weight measures have a wire format")
    return {"group": mu.group.name, "weights": [float(w.real) for w in mu.weights]}


def measure_from_json(document: dict, group: GroupTable) -> Measure:
    if not isinstance(document, dict) or "weights" not in document:
        raise SchemaError("measure document must be an object with a 'weights' field")
    if document.get("group") != group.name:
        raise SchemaError(
            f"measure document is for group {document.get('group')!r}, not {group.name!r}"
        )
    weights = document["weights"]
    if len(weights) != group.order or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
    ):
        raise SchemaError(f"'weights' must be {group.order} numbers")
    return Measure(group, np.array([float(w) for w in weights], dtype=complex))
