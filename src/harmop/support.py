"""The support of an arbitrary operator and its annihilator ideal.

An operator T has a nonzero entry at (a, b) exactly when it moves weight
along the displacement a*b^-1, so supp T = {a b^-1 : |T[a][b]| > entry_tol}.
The definitional route (common zeros of the ideal of functions whose
multiplier action kills T) is kept alongside as an independent oracle; the
two must agree exactly as index sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable
from .linalg import DEFAULT_TOL, LinAlgContractError, Subspace, Tolerances, null_space
from .actions import _operator, displacement_table


@dataclass(frozen=True)
class SupportSet:
    members: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def operator_support(group: GroupTable, t_mat: np.ndarray,
                     tol: Tolerances = DEFAULT_TOL) -> SupportSet:
    """supp T = {a b^-1 : |T[a][b]| > entry_tol}."""
    t_mat = _operator(group, t_mat)
    disp = displacement_table(group)
    members = np.unique(disp[np.abs(t_mat) > tol.entry_tol])
    return SupportSet(tuple(int(x) for x in members))


def annihilator_ideal(group: GroupTable, t_mat: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> tuple[Subspace, SupportSet]:
    """The ideal {phi : theta_hat(phi)(T) = 0} and its hull.

    The ideal is the null space of the linear map phi -> mask(phi) * T from
    functions to matrices; the hull is the common zero set of the ideal and
    always equals operator_support(T).
    """
    t_mat = _operator(group, t_mat)
    n = group.order
    disp = displacement_table(group)
    # column x of the map: the part of T sitting on displacement x
    columns = np.zeros((n * n, n), dtype=complex)
    columns[np.arange(n * n), disp.ravel()] = t_mat.ravel()
    ideal = null_space(columns, tol)
    # ideal property: multiplying a basis element by any function stays
    # inside; the point masses suffice by bilinearity, and the product of
    # phi with the point mass at x leaves the space by |phi(x)| ||(P - I) e_x||
    leak = ideal.residuals(np.eye(n))
    if np.any(np.abs(ideal.basis) * leak[:, None] > tol.eq_tol):
        raise LinAlgContractError("annihilator space is not an ideal; tolerances skewed")
    # x lies in the hull iff every ideal element vanishes at x iff the
    # orthonormal basis has a (numerically) zero row there
    row_norms = np.linalg.norm(ideal.basis, axis=1)
    hull = tuple(int(x) for x in np.flatnonzero(row_norms <= tol.rank_tol))
    return ideal, SupportSet(hull)
