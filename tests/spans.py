"""Membership of a vector in a Subspace, and the dense projector oracle, for
the tests."""

import numpy as np

from harmop.linalg import DEFAULT_TOL, Subspace


def projector(space) -> np.ndarray:
    """The orthogonal projector B B* of space, ambient_dim x ambient_dim: the
    library compares subspaces from their bases, so only the tests form it."""
    return space.basis @ space.basis.conj().T


def in_span(space, v) -> bool:
    """||v - B B* v|| <= eq_tol * max(1, ||v||) for the basis B of space."""
    v = np.asarray(v, dtype=complex).reshape(-1, 1)
    norm = np.linalg.norm(v)
    return norm == 0 or space.residuals(v)[0] <= DEFAULT_TOL.eq_tol * max(1.0, norm)


def coordinate_span(mask) -> Subspace:
    """span{E_ab : mask[a, b]}, with basis columns in row-major order."""
    mask = np.asarray(mask, dtype=bool)
    basis = np.eye(mask.size)[:, np.flatnonzero(mask)]
    return Subspace(mask.size, basis)
