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

import numpy as np

from .groups import GroupTable
from .functions import GroupFunction, Measure
from .linalg import DEFAULT_TOL, Tolerances, check_cap, psd_factorize


def _perm_matrix(perm: np.ndarray) -> np.ndarray:
    """The permutation matrix sending basis vector i to basis vector perm[i]."""
    mat = np.zeros((len(perm), len(perm)))
    mat[perm, np.arange(len(perm))] = 1.0
    return mat.astype(complex)


def left_regular(group: GroupTable, x: int) -> np.ndarray:
    """lambda(x): permutation matrix sending delta_b to delta_{x b}."""
    return _perm_matrix(group.table[x])


def _operator(group: GroupTable, t_mat) -> np.ndarray:
    """t_mat as a complex |G| x |G| array; any other shape is a ValueError."""
    t_mat = np.asarray(t_mat, dtype=complex)
    if t_mat.shape != (group.order, group.order):
        raise ValueError(
            f"operator shape {t_mat.shape} does not match group order {group.order}")
    return t_mat


def transpose_index(n: int) -> np.ndarray:
    """Flat permutation s with vec(X^T) = vec(X)[s] for n x n matrices X."""
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def mult_op(f: GroupFunction) -> np.ndarray:
    """M_f, the diagonal multiplication operator."""
    return np.diag(f.values)


def displacement_table(group: GroupTable) -> np.ndarray:
    """disp[a][b] = index of a * b^-1; the mask of sigma is sigma[disp]."""
    return group.table[:, group.inverse]


def _mask_of(group: GroupTable, values: np.ndarray) -> np.ndarray:
    return values[..., displacement_table(group)]


def schur_mask(sigma: GroupFunction) -> np.ndarray:
    """m[a][b] = sigma(a b^-1)."""
    return _mask_of(sigma.group, sigma.values)


def stripe_index(group: GroupTable) -> np.ndarray:
    """idx[x, b] = n * (x b) + b, the flat index of (x b, b): row x of
    vec(T)[idx] is the stripe row b -> T[x b, b] of S_x = {(a, b) : a b^-1 = x}."""
    return group.order * group.table + np.arange(group.order)


class Superoperator:
    """T -> sigma(a b^-1) sum_t mu(t) T[a t, b t]: theta_hat(sigma) after
    theta(mu), which commute.  Both keep every stripe S_x: on the stripe row
    r_x(b) = T[x b, b] the map is r_x -> sigma(x) R r_x, with one n x n block
    R[b, b t] = mu(t) for every stripe."""

    def __init__(self, group: GroupTable, sigma, mu):
        self.group = group
        self.sigma = np.asarray(sigma, dtype=complex)
        self.mu = np.asarray(mu, dtype=complex)
        if self.sigma.shape != (group.order,) or self.mu.shape != (group.order,):
            raise ValueError(f"sigma and mu need {group.order} values each")
        self._dense: np.ndarray | None = None

    @property
    def kind(self) -> str:
        """'schur' for mu = delta_e, 'conj_sum' for sigma = 1, else 'composite';
        perfbench's tracer reads it."""
        delta_e = np.count_nonzero(self.mu) == 1 and self.mu[self.group.identity] == 1
        return "schur" if delta_e else "conj_sum" if np.all(self.sigma == 1) else "composite"

    def __repr__(self) -> str:
        return f"Superoperator({self.group.name}, {self.kind})"

    def stripe_block(self) -> np.ndarray:
        """R with R[b, b t] = mu(t), read off the group table."""
        out = np.zeros(self.group.table.shape, dtype=complex)
        out[np.arange(self.group.order)[:, None], self.group.table] = self.mu
        return out

    def apply(self, t_mat: np.ndarray) -> np.ndarray:
        """The defining sum over the support of mu, one index gather per t."""
        g = self.group
        t_mat = _operator(g, t_mat)
        support = self.mu.nonzero()[0]
        rows = g.table.T[support]  # row k: a -> a t_k
        terms = t_mat[rows[:, :, None], rows[:, None, :]].reshape(len(support), -1)
        return self.sigma[displacement_table(g)] * (self.mu[support] @ terms).reshape(t_mat.shape)

    def dense(self) -> np.ndarray:
        """The n^2 x n^2 matrix over row-major vec(T): the block sigma(x) R on
        the coordinates of each stripe S_x."""
        if self._dense is None:
            n = self.group.order
            check_cap(n, "dense superoperators")
            idx = stripe_index(self.group)
            self._dense = np.zeros((n * n, n * n), dtype=complex)
            self._dense[idx[:, :, None], idx[:, None, :]] = self.sigma[:, None, None] * self.stripe_block()
        return self._dense

    def pre_adjoint(self) -> "Superoperator":
        """The map with <Phi(T), omega> = <T, Phi_*(omega)> for the trace
        pairing: the mask of sigma dualizes to its transpose and conjugation
        by rho(t) to conjugation by rho(t^-1), so sigma and mu are read at
        inverted arguments; the two actions commute, so composites do too."""
        inv = self.group.inverse
        return Superoperator(self.group, self.sigma[inv], self.mu[inv])


def theta(mu: Measure) -> Superoperator:
    """The convolution action: Theta(mu)(T) = sum_t mu(t) rho(t) T rho(t)^-1.

    On multiplication operators it reproduces convolution:
    Theta(mu)(M_phi) = M_{convolve(mu, phi)}.
    """
    return Superoperator(mu.group, np.ones(mu.group.order), mu.weights)


def theta_hat(sigma: GroupFunction) -> Superoperator:
    """The multiplier action: entrywise multiplication by sigma(a b^-1).

    Scales lambda(x) by sigma(x), fixes every M_f when sigma(e) = 1, commutes
    with M_f T M_g on both sides, and is multiplicative in sigma.
    """
    g = sigma.group
    delta_e = np.zeros(g.order, dtype=complex)
    delta_e[g.identity] = 1.0
    return Superoperator(g, sigma.values, delta_e)


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


# ---------------------------------------------------------------------------
# the doubled space

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
    check_cap(group.order, "doubled-space computation")
    return _perm_matrix(_pair_perm_w(group))


def flip_unitary(group: GroupTable) -> np.ndarray:
    """The tensor flip delta_(a,b) -> delta_(b,a)."""
    check_cap(group.order, "doubled-space computation")
    return _perm_matrix(transpose_index(group.order))


def dual_unitary(group: GroupTable) -> np.ndarray:
    """W_hat = flip W* flip; sends delta_(a,b) to delta_(b a, b)."""
    check_cap(group.order, "doubled-space computation")
    return _perm_matrix(_pair_perm_w_hat(group))


def comultiplication(group: GroupTable, t_mat: np.ndarray) -> np.ndarray:
    """Gamma(T) = W_hat (1 tensor T) W_hat* on the doubled space.

    A unital *-homomorphism; on the basis it acts by
    Gamma(lambda(x)) = lambda(x) tensor lambda(x) and
    Gamma(E_ab) = lambda(a b^-1) tensor E_ab.  Conjugating by W_hat relabels
    (1 tensor T)[(k, c), (k, d)] = T[c, d] to the rows P[k n + c], P[k n + d]
    of the W_hat index map P.
    """
    check_cap(group.order, "doubled-space computation")
    t_mat = _operator(group, t_mat)
    n = group.order
    rows = _pair_perm_w_hat(group).reshape(n, n)
    out = np.zeros((n * n, n * n), dtype=complex)
    out[rows[:, :, None], rows[:, None, :]] = t_mat
    return out


def coassociativity_defect(group: GroupTable, t_mat: np.ndarray) -> float:
    """Max-entry difference of (Gamma tensor id)Gamma(T) and
    (id tensor Gamma)Gamma(T), in O(n^4) without forming either side.

    On flat triples (a, b, c) both sides are relabelings Q (1 tensor 1 tensor
    T) Q* with Q1 = P12 o P23 and Q2 = P23 o P13, where Pij applies the W_hat
    index map to legs i, j.  So side Q has side[Q(k, c), Q(k, d)] = T[c, d] for
    each pair k of the first two legs and is zero elsewhere; each side is read
    at the other's n^4 places through the inverse of its own map.
    """
    check_cap(group.order, "doubled-space computation")
    t_mat = _operator(group, t_mat)
    n = group.order
    perm = _pair_perm_w_hat(group)
    a, b, c = np.unravel_index(np.arange(n ** 3), (n, n, n))
    p12 = perm[a * n + b] * n + c
    p23 = a * n * n + perm[b * n + c]
    w1, w3 = np.divmod(perm[a * n + c], n)
    p13 = w1 * n * n + b * n + w3
    q1, q2 = p12[p23], p23[p13]
    defect = 0.0
    for here, there in ((q1, q2), (q2, q1)):
        # the triple whose image under `there` is the place `here` writes to
        pair, leg = np.divmod(np.argsort(there)[here].reshape(n * n, n), n)
        other = np.where(pair[:, :, None] == pair[:, None, :],
                         t_mat[leg[:, :, None], leg[:, None, :]], 0.0)
        defect = max(defect, float(np.abs(t_mat - other).max()))
    return defect


# ---------------------------------------------------------------------------
# predual product, module actions, quotient map

def _pi_gather(group: GroupTable, omega: np.ndarray) -> np.ndarray:
    """pi over the last two axes: sum_b omega[..., b, x b] for each x."""
    return omega[..., np.arange(group.order), group.table].sum(axis=-1)


def pi_quotient(group: GroupTable, omega: np.ndarray) -> GroupFunction:
    """pi(omega)(x) = Tr(lambda(x) omega), the quotient onto functions on G."""
    return GroupFunction(group, _pi_gather(group, np.asarray(omega, dtype=complex)))


def bullet(group: GroupTable, omega: np.ndarray, rho_mat: np.ndarray) -> np.ndarray:
    """The predual product: <omega . rho, T> = <omega tensor rho, Gamma(T)>.

    Closed form: theta_hat(pi(omega))_*, the transposed mask of pi(omega),
    applied entrywise to rho, over leading stack axes of omega and rho."""
    mask = _mask_of(group, _pi_gather(group, np.asarray(omega, dtype=complex)))
    return mask.swapaxes(-1, -2) * np.asarray(rho_mat, dtype=complex)


def bullet_via_comultiplication(group: GroupTable, omega: np.ndarray,
                                rho_mat: np.ndarray) -> np.ndarray:
    """Definitional oracle for bullet: contract Gamma(E_ab), which has a 1 at
    (P[c n + a], P[c n + b]) for every c with P the W_hat index map, against
    omega tensor rho, so out[b, a] = sum_c pair[P[c n + b], P[c n + a]]; each
    entry of the pair is read off its legs, so the kron is never formed."""
    check_cap(group.order, "doubled-space computation")
    omega, rho_mat = _operator(group, omega), _operator(group, rho_mat)
    first, second = np.divmod(_pair_perm_w_hat(group).reshape(group.order, -1), group.order)
    return (omega[first[:, :, None], first[:, None, :]]
            * rho_mat[second[:, :, None], second[:, None, :]]).sum(axis=0)


def module_action(group: GroupTable, side: str, omega: np.ndarray,
                  t_mat: np.ndarray) -> np.ndarray:
    """The module actions of trace-class elements on operators.

    side="left":  omega . T = (id tensor omega)(Gamma(T)), lands in the span
    of the lambda(x).
    side="right": T . omega = (omega tensor id)(Gamma(T)); equals
    theta_hat(pi(omega))(T), the identity that pins every convention here.
    Gamma(T) holds T[c, d] at (P[k n + c], P[k n + d]) for the W_hat index map
    P; each of those n^3 entries is paired with omega on the traced legs and
    added at its place on the kept legs.
    """
    check_cap(group.order, "doubled-space computation")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    omega, t_mat = _operator(group, omega), _operator(group, t_mat)
    n = group.order
    first, second = np.divmod(_pair_perm_w_hat(group).reshape(n, n), n)
    traced, kept = (second, first) if side == "left" else (first, second)
    terms = (t_mat * omega[traced[:, None, :], traced[:, :, None]]).reshape(-1)
    places = (kept[:, :, None] * n + kept[:, None, :]).reshape(-1)
    return (np.bincount(places, terms.real, n * n)
            + 1j * np.bincount(places, terms.imag, n * n)).reshape(n, n)
