"""The support of an arbitrary operator and its annihilator ideal.

An operator T has a nonzero entry at (a, b) exactly when it moves weight
along the displacement a*b^-1, so supp T = {a b^-1 : |T[a][b]| > entry_tol}.
The definitional route (common zeros of the ideal of functions whose
multiplier action kills T) is kept alongside as an independent oracle; the
two must agree exactly as index sets.  Both work on stacks of operators;
the single-operator functions are those stacks of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable
from .linalg import (
    CHUNK_ENTRIES,
    DEFAULT_TOL,
    LinAlgContractError,
    Subspace,
    Tolerances,
    null_spaces,
)
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


def _operator_stack(group: GroupTable, t_stack) -> np.ndarray:
    """t_stack as a (count, |G|, |G|) array; any other shape is a ValueError."""
    t_stack = np.asarray(t_stack)
    n = group.order
    if t_stack.ndim != 3 or t_stack.shape[1:] != (n, n):
        raise ValueError(f"operator stack shape {t_stack.shape} does not match group order {n}")
    return t_stack


def operator_supports(group: GroupTable, operators,
                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Boolean marks of supp T for each T of a (count, n, n) stack or an
    iterable of n x n operators: marks[k, x] iff |T_k[a][b]| > entry_tol for
    some (a, b) with a b^-1 = x.  Each chunk of CHUNK_ENTRIES entries is read
    in one scatter through the displacement table."""
    n = group.order
    disp = displacement_table(group)
    operators, chunks = iter(operators), []
    while chunk := list(itertools.islice(operators, max(1, CHUNK_ENTRIES // (n * n)))):
        k, a, b = np.nonzero(np.abs(_operator_stack(group, chunk)) > tol.entry_tol)
        marks = np.zeros((len(chunk), n), dtype=bool)
        marks[k, disp[a, b]] = True
        chunks.append(marks)
    return np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=bool)


def operator_support(group: GroupTable, t_mat: np.ndarray,
                     tol: Tolerances = DEFAULT_TOL) -> SupportSet:
    """supp T = {a b^-1 : |T[a][b]| > entry_tol}."""
    marks = operator_supports(group, _operator(group, t_mat)[None], tol)[0]
    return SupportSet(tuple(np.flatnonzero(marks).tolist()))


def annihilator_ideals(group: GroupTable, t_stack,
                       tol: Tolerances = DEFAULT_TOL) -> list[tuple[Subspace, SupportSet]]:
    """annihilator_ideal of each T of a (count, n, n) stack.

    Row (a, b) of the map phi -> mask(phi) * T holds T[a][b] in column
    a b^-1 and nothing else, so only the rows of the nonzero entries are
    built, in row-major order, and go to null_spaces at most CHUNK_ENTRIES
    entries at a time (one operator's map, if that is larger), padded with
    zero rows to the chunk's largest count.
    """
    t_stack = _operator_stack(group, t_stack)
    n = group.order
    disp = displacement_table(group).ravel()
    flat = t_stack.reshape(len(t_stack), n * n)
    nonzero = flat != 0
    counts = nonzero.sum(axis=1)
    # the leak check below forms an n x n matrix per operator too
    step = max(1, CHUNK_ENTRIES // (max(int(counts.max(initial=0)), n) * n))
    out = []
    for start in range(0, len(flat), step):
        width = int(counts[start:start + step].max())
        # nonzero entries first; the entries after them are exact zeros
        order = np.argsort(~nonzero[start:start + step], axis=1, kind="stable")[:, :width]
        maps = np.zeros((len(order), width, n), dtype=np.result_type(flat, float))
        maps[np.arange(len(order))[:, None], np.arange(width), disp[order]] = \
            np.take_along_axis(flat[start:start + step], order, axis=1)
        ideals = null_spaces(maps, tol)
        bases = np.zeros((len(ideals), n, n), dtype=complex)  # zero columns change no B B*
        for basis, ideal in zip(bases, ideals):
            basis[:, :ideal.dim] = ideal.basis
        # ideal property: multiplying a basis element by any function stays
        # inside; the point masses suffice by bilinearity, and the product of
        # phi with the point mass at x leaves the space by |phi(x)| ||(P - I) e_x||
        leak = np.linalg.norm(np.eye(n) - bases @ bases.conj().swapaxes(1, 2), axis=1)
        if np.any(np.abs(bases) * leak[:, :, None] > tol.eq_tol):
            raise LinAlgContractError("annihilator space is not an ideal; tolerances skewed")
        # x lies in the hull iff every ideal element vanishes at x iff the
        # orthonormal basis has a (numerically) zero row there
        hulls = np.linalg.norm(bases, axis=2) <= tol.rank_tol
        out += [(ideal, SupportSet(tuple(np.flatnonzero(hull).tolist())))
                for ideal, hull in zip(ideals, hulls)]
    return out


def annihilator_ideal(group: GroupTable, t_mat: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> tuple[Subspace, SupportSet]:
    """The ideal {phi : theta_hat(phi)(T) = 0} and its hull.

    The ideal is the null space of the linear map phi -> mask(phi) * T from
    functions to matrices; the hull is the common zero set of the ideal and
    always equals operator_support(T).
    """
    return annihilator_ideals(group, _operator(group, t_mat)[None], tol)[0]
