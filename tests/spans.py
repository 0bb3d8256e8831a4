"""Membership of a vector in a Subspace, for the tests."""

import numpy as np

from harmop.linalg import DEFAULT_TOL


def in_span(space, v) -> bool:
    """||P v - v|| <= eq_tol * max(1, ||v||) for the projector P of space."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    return norm == 0 or np.linalg.norm(space.projector @ v - v) <= DEFAULT_TOL.eq_tol * max(1.0, norm)
