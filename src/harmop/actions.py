"""The two actions on B(l2(G)) and the comultiplication machinery.

Conventions, fixed repo-wide:

* Operators are |G| x |G| complex matrices over the delta basis; matrices are
  vectorized row-major, so vec(A X B) = kron(A, B^T) vec(X).
* lambda(x)[a][b] = 1 iff a = x*b,   rho(x)[a][b] = 1 iff b = a*x.
* The trace pairing <T, omega> = Tr(T @ omega) is the single duality used by
  pre-adjoints, the quotient map onto functions, and the predual product.
* The multiplier action of sigma is entrywise multiplication by the mask
  m[a][b] = sigma(a b^-1).  This mask is forced by requiring a normal map that
  commutes with multiplication operators on both sides and scales lambda(x)
  by sigma(x); the factorization sum form below is the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import SUPEROP_CAP, GroupTable, SchemaError
from .functions import GroupFunction, Measure
from .linalg import DEFAULT_TOL, Tolerances, psd_factorize


class SizeCapError(ValueError):
    """The group is too large for a doubled-space computation."""


@dataclass(frozen=True)
class OperatorMatrix:
    """An operator on l2(G); doubles as a trace-class element under the
    trace pairing."""

    group: GroupTable
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.group.order
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _perm_matrix(perm: np.ndarray) -> np.ndarray:
    """The permutation matrix sending basis vector i to basis vector perm[i]."""
    mat = np.zeros((len(perm), len(perm)))
    mat[perm, np.arange(len(perm))] = 1.0
    return mat.astype(complex)


def left_regular(group: GroupTable, x: int) -> np.ndarray:
    """lambda(x): permutation matrix sending delta_b to delta_{x b}."""
    return _perm_matrix(group.table[x])


def right_regular(group: GroupTable, x: int) -> np.ndarray:
    """rho(x): permutation matrix sending delta_b to delta_{b x^-1}."""
    return _perm_matrix(group.table[:, group.inv(x)])


def transpose_index(n: int) -> np.ndarray:
    """Flat permutation s with vec(X^T) = vec(X)[s] for n x n matrices X."""
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def mult_op(f: GroupFunction) -> np.ndarray:
    """M_f, the diagonal multiplication operator."""
    return np.diag(f.values)


def trace_pairing(t_mat: np.ndarray, omega: np.ndarray) -> complex:
    """<T, omega> = Tr(T omega)."""
    return complex(np.einsum("ij,ji->", t_mat, omega))


def displacement_table(group: GroupTable) -> np.ndarray:
    """disp[a][b] = index of a * b^-1; the mask of sigma is sigma[disp]."""
    return group.table[:, group.inverse]


def schur_mask(sigma: GroupFunction) -> np.ndarray:
    """m[a][b] = sigma(a b^-1)."""
    return sigma.values[displacement_table(sigma.group)]


class Superoperator:
    """A linear map on the n x n matrices, in one of three forms.

    schur:    T -> mask * T (entrywise)
    conj_sum: T -> sum_i weights[i] rho(elements[i]) T rho(elements[i])^-1
    dense:    vec(out) = matrix @ vec(T), row-major vec

    Conjugation by rho(x) relabels entries, (rho(x) T rho(x)^-1)[a, b] =
    T[a x, b x], so a conjugation sum holds the index rows a -> a x.
    """

    def __init__(self, group: GroupTable, kind: str, *, mask=None,
                 weights=None, elements=None, matrix=None):
        self.group = group
        self.kind = kind
        n = group.order
        if kind == "schur":
            self.mask = np.asarray(mask, dtype=complex)
            if self.mask.shape != (n, n):
                raise ValueError("mask size mismatch")
        elif kind == "conj_sum":
            self.weights = np.asarray(weights, dtype=complex)
            self.elements = tuple(int(x) for x in elements)
            if len(self.weights) != len(self.elements):
                raise ValueError("weights and elements differ in length")
            self._perms = group.table[:, list(self.elements)].T
        elif kind == "dense":
            self.matrix = np.asarray(matrix, dtype=complex)
            if self.matrix.shape != (n * n, n * n):
                raise ValueError("dense superoperator size mismatch")
        else:
            raise ValueError(f"unknown superoperator kind {kind!r}")
        self._dense: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Superoperator({self.group.name}, {self.kind})"

    def apply(self, t_mat: np.ndarray) -> np.ndarray:
        t_mat = np.asarray(t_mat, dtype=complex)
        n = self.group.order
        if t_mat.shape != (n, n):
            raise ValueError(f"operator shape {t_mat.shape} does not match group order {n}")
        if self.kind == "schur":
            return self.mask * t_mat
        if self.kind == "conj_sum":
            out = np.zeros((n, n), dtype=complex)
            for w, p in zip(self.weights, self._perms):
                out += w * t_mat[np.ix_(p, p)]
            return out
        return (self.matrix @ t_mat.reshape(-1)).reshape(n, n)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            n = self.group.order
            if self.kind != "dense" and n > SUPEROP_CAP:
                raise SizeCapError(
                    f"dense superoperators are capped at order {SUPEROP_CAP}, got {n}"
                )
            if self.kind == "schur":
                self._dense = np.diag(self.mask.reshape(-1))
            elif self.kind == "conj_sum":
                acc = np.zeros((n * n, n * n), dtype=complex)
                rows = np.arange(n * n)
                for w, p in zip(self.weights, self._perms):
                    acc[rows, (n * p[:, None] + p[None, :]).ravel()] += w
                self._dense = acc
            else:
                self._dense = self.matrix
        return self._dense

    def pre_adjoint(self) -> "Superoperator":
        """The map with <Phi(T), omega> = <T, Phi_*(omega)> for the trace
        pairing.  A Schur mask dualizes to its transpose; a conjugation sum
        dualizes to the sum over inverted elements."""
        g = self.group
        if self.kind == "schur":
            return Superoperator(g, "schur", mask=self.mask.T)
        if self.kind == "conj_sum":
            return Superoperator(g, "conj_sum", weights=self.weights,
                                 elements=[g.inv(x) for x in self.elements])
        s = transpose_index(g.order)
        return Superoperator(g, "dense", matrix=self.matrix.T[np.ix_(s, s)])


def theta(mu: Measure) -> Superoperator:
    """The convolution action: Theta(mu)(T) = sum_t mu(t) rho(t) T rho(t)^-1.

    On multiplication operators it reproduces convolution:
    Theta(mu)(M_phi) = M_{convolve(mu, phi)}.
    """
    nz = np.flatnonzero(mu.weights != 0)
    return Superoperator(mu.group, "conj_sum", weights=mu.weights[nz], elements=nz)


def theta_hat(sigma: GroupFunction) -> Superoperator:
    """The multiplier action: entrywise multiplication by sigma(a b^-1).

    Scales lambda(x) by sigma(x), fixes every M_f when sigma(e) = 1, commutes
    with M_f T M_g on both sides, and is multiplicative in sigma.
    """
    return Superoperator(sigma.group, "schur", mask=schur_mask(sigma))


def theta_hat_sum_form(sigma: GroupFunction, t_mat: np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """sum_i M_{u_i} T M_{v_i} for a rank factorization mask = sum_i u_i v_i^T.

    Independent oracle for the Schur realization: any factorization of the
    mask gives the same entrywise product.
    """
    t_mat = np.asarray(t_mat, dtype=complex)
    pairs = psd_factorize(schur_mask(sigma), tol)
    n = sigma.group.order
    out = np.zeros((n, n), dtype=complex)
    for u, v in pairs:
        out += (u[:, None] * t_mat) * v[None, :]
    return out


def pre_adjoint(phi: Superoperator) -> Superoperator:
    return phi.pre_adjoint()


# ---------------------------------------------------------------------------
# the doubled space

def _check_doubled_cap(group: GroupTable) -> None:
    if group.order > SUPEROP_CAP:
        raise SizeCapError(
            f"doubled-space computation capped at order {SUPEROP_CAP}, got {group.order}"
        )


def _pair_perm_w(group: GroupTable) -> np.ndarray:
    """Flat permutation of the basis delta_(a,b) -> delta_(a, a^-1 b)."""
    n = group.order
    a, b = np.divmod(np.arange(n * n), n)
    return group.table[group.inverse[a], b] + n * a


def _pair_perm_w_hat(group: GroupTable) -> np.ndarray:
    """Flat permutation of the basis delta_(a,b) -> delta_(b a, b)."""
    n = group.order
    a, b = np.divmod(np.arange(n * n), n)
    return n * group.table[b, a] + b


def fundamental_unitary(group: GroupTable) -> np.ndarray:
    """W on l2(G x G): (W xi)(x, y) = xi(x, x y), as an n^2 x n^2 matrix in
    row-major pair order."""
    _check_doubled_cap(group)
    return _perm_matrix(_pair_perm_w(group))


def flip_unitary(group: GroupTable) -> np.ndarray:
    """The tensor flip delta_(a,b) -> delta_(b,a)."""
    _check_doubled_cap(group)
    return _perm_matrix(transpose_index(group.order))


def dual_unitary(group: GroupTable) -> np.ndarray:
    """W_hat = flip W* flip; sends delta_(a,b) to delta_(b a, b)."""
    _check_doubled_cap(group)
    return _perm_matrix(_pair_perm_w_hat(group))


def comultiplication(group: GroupTable, t_mat: np.ndarray) -> np.ndarray:
    """Gamma(T) = W_hat (1 tensor T) W_hat* on the doubled space.

    A unital *-homomorphism; on the basis it acts by
    Gamma(lambda(x)) = lambda(x) tensor lambda(x) and
    Gamma(E_ab) = lambda(a b^-1) tensor E_ab.
    """
    _check_doubled_cap(group)
    t_mat = np.asarray(t_mat, dtype=complex)
    n = group.order
    if t_mat.shape != (n, n):
        raise ValueError(f"operator shape {t_mat.shape} does not match group order {n}")
    perm = _pair_perm_w_hat(group)
    inv_perm = np.argsort(perm)
    big = np.kron(np.eye(n), t_mat)
    # conjugation by a permutation matrix is a relabeling of rows and columns
    return big[np.ix_(inv_perm, inv_perm)]


def coassociativity_defect(group: GroupTable, t_mat: np.ndarray) -> float:
    """Max-entry difference of (Gamma tensor id)Gamma(T) and
    (id tensor Gamma)Gamma(T); materializes n^3 x n^3 matrices, so |G| <= 6."""
    if group.order > 6:
        raise SizeCapError("coassociativity check capped at order 6")
    n = group.order
    gamma_t = comultiplication(group, t_mat)
    perm = _pair_perm_w_hat(group)
    a, b, c = np.unravel_index(np.arange(n ** 3), (n, n, n))
    # (Gamma tensor id): conjugate (1 tensor X) on legs (1,2) by W_hat
    p1 = np.ravel_multi_index((perm[a * n + b] // n, perm[a * n + b] % n, c), (n, n, n))
    inv1 = np.argsort(p1)
    left = np.kron(np.eye(n), gamma_t)[np.ix_(inv1, inv1)]
    # (id tensor Gamma): insert an identity middle leg, conjugate legs (2,3)
    p2 = np.ravel_multi_index((a, perm[b * n + c] // n, perm[b * n + c] % n), (n, n, n))
    inv2 = np.argsort(p2)
    four = gamma_t.reshape(n, n, n, n)
    lifted = np.einsum("acdf,be->abcdef", four, np.eye(n)).reshape(n ** 3, n ** 3)
    right = lifted[np.ix_(inv2, inv2)]
    return float(np.abs(left - right).max())


# ---------------------------------------------------------------------------
# predual product, module actions, quotient map

def pi_quotient(group: GroupTable, omega: np.ndarray) -> GroupFunction:
    """pi(omega)(x) = <lambda(x), omega> = Tr(lambda(x) omega); the quotient
    of a trace-class element onto a function on the group."""
    omega = np.asarray(omega, dtype=complex)
    n = group.order
    cols = np.broadcast_to(np.arange(n), (n, n))
    return GroupFunction(group, omega[cols, group.table].sum(axis=1))


def bullet(group: GroupTable, omega: np.ndarray, rho_mat: np.ndarray) -> np.ndarray:
    """The predual product: <omega . rho, T> = <omega tensor rho, Gamma(T)>.

    Closed form: omega . rho = theta_hat(pi(omega))_* (rho), i.e. the mask of
    pi(omega) transposed, applied entrywise to rho.  Checked against the
    direct Gamma contraction in bullet_via_comultiplication.
    """
    omega = np.asarray(omega, dtype=complex)
    rho_mat = np.asarray(rho_mat, dtype=complex)
    mask = schur_mask(pi_quotient(group, omega))
    return mask.T * rho_mat


def bullet_via_comultiplication(group: GroupTable, omega: np.ndarray,
                                rho_mat: np.ndarray) -> np.ndarray:
    """Definitional oracle for the predual product: contract Gamma(E_ab)
    against omega tensor rho for every matrix unit."""
    _check_doubled_cap(group)
    n = group.order
    pair = np.kron(np.asarray(omega, dtype=complex), np.asarray(rho_mat, dtype=complex))
    out = np.empty((n, n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit[a, b] = 1.0
            out[b, a] = trace_pairing(comultiplication(group, unit), pair)
            unit[a, b] = 0.0
    return out


def module_action(group: GroupTable, side: str, omega: np.ndarray,
                  t_mat: np.ndarray) -> np.ndarray:
    """The module actions of trace-class elements on operators.

    side="left":  omega . T = (id tensor omega)(Gamma(T)), lands in the span
    of the lambda(x).
    side="right": T . omega = (omega tensor id)(Gamma(T)); equals
    theta_hat(pi(omega))(T), the identity that pins every convention here.
    """
    omega = np.asarray(omega, dtype=complex)
    four = comultiplication(group, t_mat).reshape(
        group.order, group.order, group.order, group.order
    )
    if side == "left":
        return np.einsum("abcd,db->ac", four, omega)
    if side == "right":
        return np.einsum("abcd,ca->bd", four, omega)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# JSON wire format

def operator_to_json(op: OperatorMatrix) -> dict:
    return {
        "group": op.group.name,
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in op.matrix],
    }


def operator_from_json(document: dict, group: GroupTable) -> OperatorMatrix:
    if not isinstance(document, dict) or "matrix" not in document:
        raise SchemaError("operator document must be an object with a 'matrix' field")
    if document.get("group") != group.name:
        raise SchemaError(
            f"operator document is for group {document.get('group')!r}, not {group.name!r}"
        )
    from .functions import _is_re_im_pair

    rows = document["matrix"]
    n = group.order
    if len(rows) != n or any(
        len(r) != n or not all(_is_re_im_pair(c) for c in r) for r in rows
    ):
        raise SchemaError(f"'matrix' must be {n}x{n} with [re, im] cells")
    mat = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    return OperatorMatrix(group, mat)
