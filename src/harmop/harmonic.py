"""Fixed-point spaces of both actions, the three-route equality check for
the algebra of multiplier-harmonic operators, ergodic limit products, and the
ideal suite in the trace-class predual."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, Subgroup, generated_subgroup
from .functions import (
    GroupFunction,
    Measure,
    convolution_matrix,
    level_set_one,
    same_group,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _in_field,
    check_cap,
    commutant,
    diagonal_cutoff,
    double_commutant,
    inclusion_residual,
    null_space,
    projector_distance,
    range_space,
)
from .actions import (
    Superoperator,
    _operator,
    bullet,
    displacement_table,
    left_regular,
    stripe_index,
    theta_hat,
)


def _map_scale(sigma, mu: np.ndarray) -> float:
    """max(1, max|sigma| sum|mu|), the largest absolute row sum of sigma(x) R
    (Superoperator) and, for sigma = 1, of convolution by mu: the reference
    norm for maps compared against the identity."""
    return max(1.0, float(np.abs(sigma).max() * np.abs(mu).sum()))


def _distinct_blocks(phi: Superoperator, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, float]:
    """The distinct blocks of phi - id, the block of each stripe, and the cut.

    On the stripe S_x phi - id is the block sigma(x) R - I (Superoperator),
    with one R for every stripe, so only the distinct values of sigma give
    distinct blocks.  The cut is rank_tol * _map_scale, the largest absolute
    row sum of the dense map."""
    n = phi.group.order
    check_cap(n, "fixed-point and pre-annihilator bases")
    # a dict rather than np.unique, which at small orders costs a quarter of
    # the whole solve when every value of sigma is distinct
    first = {}
    which = np.array([first.setdefault(v, len(first)) for v in phi.sigma.tolist()])
    blocks = _in_field(np.array(list(first))[:, None, None] * phi.stripe_block() - np.eye(n))
    return blocks, which, tol.rank_tol * _map_scale(phi.sigma, phi.mu)


def _stripe_solve(phi: Superoperator, tol: Tolerances, kernel: bool) -> Subspace:
    """The null space (kernel) or the range of phi - id, from one batched SVD
    of its distinct blocks; each kept vector is scattered into its stripe."""
    n = phi.group.order
    blocks, which, cut = _distinct_blocks(phi, tol)
    u, s, vh = np.linalg.svd(blocks)
    vectors, keep = (vh.conj().swapaxes(1, 2), s <= cut) if kernel else (u, s > cut)
    stripe, col = keep[which].nonzero()
    basis = np.zeros((n * n, len(stripe)), dtype=complex)
    basis[stripe_index(phi.group)[stripe].T, np.arange(len(stripe))] = vectors[which[stripe], :, col].T
    return Subspace(n * n, basis)


def fixed_points(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed vectors of the superoperator over vectorized matrices."""
    return _stripe_solve(phi, tol, kernel=True)


def harmonic_functions(mu: Measure, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """{phi : convolve(mu, phi) = phi}; its dimension is the index of the
    subgroup generated by the support of mu."""
    if not mu.is_probability(tol):
        raise ValueError("harmonic functions are defined for probability measures")
    c_mat = convolution_matrix(mu)
    return null_space(c_mat - np.eye(mu.group.order), tol, scale=_map_scale(1.0, mu.weights))


def harmonic_functionals(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed points of the canonical multiplier action inside the span of the
    left translations: span{lambda(x) : sigma(x) = 1}, vectorized.  The lambda(x)
    have disjoint supports, so the vec(lambda(x)) / sqrt(n) are orthonormal."""
    level = sorted(level_set_one(sigma, tol))
    return _indicator_span(sigma.group.order ** 2, stripe_index(sigma.group)[level])


def harmonic_operators(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed points of the multiplier action on all operators."""
    return fixed_points(theta_hat(sigma), tol)


def _indicator_span(ambient_dim: int, index_sets: np.ndarray) -> Subspace:
    """One normalized indicator per row of ``index_sets``, whose rows are
    pairwise disjoint sets of coordinates, so the basis is orthonormal."""
    count, size = index_sets.shape
    basis = np.zeros((ambient_dim, count), dtype=complex)
    basis[index_sets.T, np.arange(count)] = 1 / math.sqrt(size)
    return Subspace(ambient_dim, basis)


def _subgroup_generators(group: GroupTable, members) -> list[np.ndarray]:
    """lambda(h) for each member and one multiplication operator of norm 1
    with distinct values, whose spectral projections E_aa span L^inf(G)."""
    return [left_regular(group, h) for h in members] + [np.diag(np.linspace(-1.0, 1.0, group.order))]


def _stripe_span(group: GroupTable, level) -> Subspace:
    """span{E_ab : a b^-1 in level}: operators supported on the level set."""
    return _indicator_span(group.order ** 2, stripe_index(group)[list(level)].reshape(-1, 1))


def _bimodule_span(group: GroupTable, level, tol: Tolerances) -> Subspace:
    """span{M_f lambda(x) : x in level, f arbitrary}, built from products."""
    n = group.order
    # row (x, a) is E_aa lambda(x): row a of lambda(x), all other rows zero
    lams = np.array([left_regular(group, x) for x in sorted(level)]).reshape(-1, n, n)
    rows = np.eye(n)[:, :, None] * lams[:, None]
    return Subspace.from_span(rows.reshape(-1, n * n), tol)


@dataclass(frozen=True)
class HarmonicReport:
    """Verdict of the three-route computation of the harmonic-operator algebra."""

    p1_mode: bool
    level_set: tuple[int, ...]
    dims: dict[str, int]
    expected_dim: int | None
    distances: dict[str, float]
    eq_tol: float

    @property
    def distance(self) -> float:
        """The largest route distance; a NaN one propagates."""
        return float(np.max(list(self.distances.values())))

    @property
    def dimension_defect(self) -> float:
        """max |dim - expected_dim| over the routes, 0.0 when none is expected."""
        if self.expected_dim is None:
            return 0.0
        return float(max(abs(d - self.expected_dim) for d in self.dims.values()))

    @property
    def passed(self) -> bool:
        return self.distance <= self.eq_tol and self.dimension_defect == 0  # NaN fails


def verify_main_theorem(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> HarmonicReport:
    """Compare three independent routes to the sigma-harmonic operators.

    (A) fixed points of the multiplier action, a null space stripe by stripe;
    (B) the von Neumann algebra generated by the fixed left translations and
        one diagonal with distinct values, via the double-commutant engine;
    (C) the span of the matrix units supported on the level set of sigma.

    For sigma in P1(G) the three agree with dimension |G| * |level set|.  For
    general sigma the level set need not be a subgroup and (B) can overshoot,
    so only the inclusions span{M_f lambda(x)} <= (A) <= (C) are checked.
    """
    g = sigma.group
    n = g.order
    level_set = level_set_one(sigma, tol)
    p1 = isinstance(level_set, Subgroup)
    level = tuple(int(x) for x in sorted(level_set))
    fixed = harmonic_operators(sigma, tol)
    stripe = _stripe_span(g, level)
    if p1:
        algebra = double_commutant(_subgroup_generators(g, level), n, tol)
        dims = {"fixed_points": fixed.dim, "generated_algebra": algebra.dim, "stripe_span": stripe.dim}
        distances = {
            "fixed_vs_algebra": projector_distance(fixed, algebra),
            "fixed_vs_stripe": projector_distance(fixed, stripe),
            "algebra_vs_stripe": projector_distance(algebra, stripe),
        }
        expected = n * len(level)
    else:
        span = _bimodule_span(g, level, tol)
        dims = {"fixed_points": fixed.dim, "bimodule_span": span.dim, "stripe_span": stripe.dim}
        distances = {
            "span_in_fixed": inclusion_residual(span, fixed),
            "fixed_in_stripe": inclusion_residual(fixed, stripe),
        }
        expected = None
    return HarmonicReport(
        p1_mode=p1,
        level_set=level,
        dims=dims,
        expected_dim=expected,
        distances=distances,
        eq_tol=tol.eq_tol,
    )


# ---------------------------------------------------------------------------
# limit products

def limit_product(a, b, mu: Measure, tol: Tolerances = DEFAULT_TOL) -> GroupFunction | np.ndarray:
    """Ergodic product of two harmonic elements: the limit of the Cesaro
    averages of the n-th power of the action of mu on the plain product.

    convolution_matrix(mu) is doubly stochastic, so by the mean ergodic
    theorem these averages converge to the orthogonal projection onto its
    fixed points, the functions constant on the left cosets xH of the
    subgroup H that supp mu generates.  The limit is that coset average,
    taken exactly, periodic walks included.

    Two GroupFunctions: returns the coset average of a*b as a GroupFunction.
    Two operators: Theta(mu) acts on the stripe row b -> T[x b, b] of each x
    as convolution by mu, so the limit of Theta(mu)^n (a @ b) is the coset
    average of every stripe row of a @ b.  A GroupFunction against an
    operator is a ValueError.
    """
    if not mu.is_probability(tol):
        raise ValueError("limit products are defined for probability measures")
    g = mu.group
    cosets = np.array(generated_subgroup(g, mu.support(tol)).left_cosets())
    on_functions = isinstance(a, GroupFunction)
    if on_functions != isinstance(b, GroupFunction):
        raise ValueError("limit_product takes two GroupFunctions or two operators, not one of each")
    if on_functions:
        if not (same_group(a.group, g) and same_group(b.group, g)):
            raise ValueError("functions and measure live on different groups")
        blocks = cosets
        factors = (a.values, b.values)
        product = a.values * b.values
    else:
        blocks = stripe_index(g)[:, cosets]  # each coset of each stripe row b -> T[x b, b]
        factors = (_operator(g, a), _operator(g, b))
        product = factors[0] @ factors[1]

    def project(values: np.ndarray) -> np.ndarray:
        """The mean over each block of flat indices."""
        out = np.empty(values.size, dtype=complex)
        out[blocks] = values.reshape(-1)[blocks].mean(axis=-1, keepdims=True)
        return out.reshape(values.shape)

    for name, f in zip(("first", "second"), factors):
        if np.abs(project(f) - f).max() > tol.eq_tol:
            warnings.warn(f"{name} factor is not harmonic for this measure")
    limit = project(product)
    return GroupFunction(g, limit) if on_functions else limit


# ---------------------------------------------------------------------------
# ideals in the predual

def pre_annihilator_ideal(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """range(pre_adjoint(phi) - id): the trace-class elements annihilating the
    fixed points; dimensions are complementary to fixed_points(phi)."""
    return _stripe_solve(phi.pre_adjoint(), tol, kernel=False)


def pre_annihilator_dim(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> int:
    """dim pre_annihilator_ideal(phi): the singular values of the pre-adjoint's
    blocks above the cut, computed without vectors."""
    blocks, which, cut = _distinct_blocks(phi.pre_adjoint(), tol)
    return int(np.count_nonzero(np.linalg.svd(blocks, compute_uv=False)[which] > cut))


def bullet_closure_residual(group: GroupTable, ideal: Subspace,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """How far products under the predual multiplication leave the ideal.

    Spanning sets suffice by bilinearity, and omega . rho scales stripe x of
    rho by the sum of omega over S_x.  So the products with an arbitrary left
    factor span the stripe parts D_x b_k of the basis elements b_k, and a
    basis element against a matrix unit E_cd on the right is E_cd scaled by
    the sum of b_k over the stripe of (c, d).
    """
    if ideal.dim == 0:
        return 0.0
    n, basis = group.order, ideal.basis
    stripes = stripe_index(group)  # row x: the flat indices of the stripe S_x
    stripe_sums = np.abs(basis[stripes].sum(axis=1)).max(axis=1)
    residual = 0.0
    for cols, stripe_sum in zip(stripes, stripe_sums):
        unit_defect = basis @ basis[cols].conj().T  # the stripe's columns of P ...
        unit_defect[cols, np.arange(n)] -= 1.0  # ... and of P - I
        defect = unit_defect @ basis[cols]
        residual = max(residual, np.linalg.norm(defect, axis=0).max(),
                       stripe_sum * np.linalg.norm(unit_defect, axis=0).max())
    return float(residual)


def _schur_masks(action: Superoperator, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The pre-annihilator |m^T - 1| > c and the fixed points |m - 1| <= c of
    theta_hat(sigma), whose mask is m[a, b] = sigma(a b^-1), as boolean masks
    over the matrix units, at the cutoff c = diagonal_cutoff(sigma) that the
    SVD route applies to its blocks, which are the scalars sigma(x)."""
    disp = displacement_table(action.group)
    cut = diagonal_cutoff(action.sigma, tol)
    return (np.abs(action.pre_adjoint().sigma[disp] - 1.0) > cut,
            np.abs(action.sigma[disp] - 1.0) <= cut)


def _stripe_cut(group: GroupTable, mask: np.ndarray) -> float:
    """bullet_closure_residual of span{E_ab : mask[a, b]}: 1.0 if some
    displacement stripe holds strictly between 0 and n of its units, else 0.0.

    The stripe parts of a matrix unit are itself or zero, and a unit E_ab
    against E_cd on the right is E_cd if (a, b) lies on the stripe of (c, d)
    and zero otherwise, so the span is closed iff it is a union of stripes."""
    counts = np.bincount(displacement_table(group)[mask], minlength=group.order)
    return float(((counts > 0) & (counts < group.order)).any())


@dataclass(frozen=True)
class IdealSuiteReport:
    sigma_at_identity_is_one: bool
    dim_ideal: int
    dim_fixed: int
    dim_linfty_perp: int
    dim_traceless: int
    orthogonality_residual: float
    ideal_in_perp_residual: float | None
    perp_in_traceless_residual: float
    ideal_closure_residual: float
    perp_closure_residual: float
    quotient_formula_residual: float
    eq_tol: float

    @property
    def worst_residual(self) -> float:
        """The largest residual, inf if the ideal and the fixed points do not
        have complementary dimensions; NaN if any residual is NaN."""
        complement = self.dim_ideal + self.dim_fixed == self.dim_traceless + 1
        return float(np.max([
            0.0 if complement else math.inf,
            self.orthogonality_residual,
            self.ideal_in_perp_residual or 0.0,
            self.perp_in_traceless_residual,
            self.ideal_closure_residual,
            self.perp_closure_residual,
            self.quotient_formula_residual,
        ]))

    @property
    def passed(self) -> bool:
        """worst_residual <= eq_tol: the dimension complement and every residual.

        Four hold by construction and cannot fail: the dimension complement
        (the ideal and the fixed points are complementary masks up to a
        transpose), perp in traceless (the zero-diagonal mask misses the
        diagonal), perp closure (the diagonal is the stripe of e) and ideal
        closure (sigma(a b^-1) is constant on stripes, so the ideal cuts one
        only through a fault in _schur_masks).  The others can: orthogonality
        on a pre-adjoint that does not invert sigma, and the quotient on a
        wrong pi.  Ideal in perp fails only on a pre-adjoint that moves
        sigma(e), which is read off the fixed mask at the ideal's cutoff."""
        return self.worst_residual <= self.eq_tol


def linfty_perp_suite(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> IdealSuiteReport:
    """The ideal chain in the predual for the multiplier action of sigma.

    Computes the pre-annihilator of the harmonic operators, the annihilator of
    the multiplication operators (zero-diagonal matrices), and the traceless
    elements; verifies the inclusion chain when sigma(e) = 1, closure of both
    ideals under the predual product, orthogonality of the pre-annihilator
    against the fixed points, and the induced quotient product
    f . g = <f, 1> g on diagonal representatives.

    The action is a Schur map, so the ideal, the fixed points and the zero
    diagonal are coordinate spans, read off sigma and its pre-adjoint's as
    boolean n x n masks (_schur_masks), and the traceless elements are the
    complement of vec(I).  Every residual is then a count: the pairing of
    the ideal with the transposed fixed points, sqrt(#(ideal on the
    diagonal)), sqrt(#(perp on the diagonal) / n), and a stripe count per
    closure (_stripe_cut).  bullet is entrywise in rho and the E_gg have
    disjoint supports, so the quotient checks every pair E_ff . E_gg in one
    product E_ff . I against Tr(E_ff) I.  Nothing larger than n^3 entries is
    formed, so the suite has no size cap of its own.  IdealSuiteReport.passed
    says which of these checks can fail.
    """
    g = sigma.group
    n = g.order
    ideal, fixed = _schur_masks(theta_hat(sigma), tol)
    diagonal = np.eye(n, dtype=bool)
    perp = ~diagonal
    # the mask's diagonal is sigma(e): the cutoff that keeps the diagonal out
    # of the ideal also decides whether sigma(e) = 1
    sigma_e = bool(fixed[g.identity, g.identity])
    ideal_in_perp = math.sqrt(np.count_nonzero(ideal & diagonal)) if sigma_e else None
    units = np.eye(n)[:, :, None] * np.eye(n)[:, None, :]  # E_ff . I against Tr(E_ff) I = I
    quotient = float(np.abs(bullet(g, units, np.eye(n)) - np.eye(n)).max())
    return IdealSuiteReport(
        sigma_at_identity_is_one=sigma_e,
        dim_ideal=int(np.count_nonzero(ideal)),
        dim_fixed=int(np.count_nonzero(fixed)),
        dim_linfty_perp=int(np.count_nonzero(perp)),
        dim_traceless=n * n - 1,
        orthogonality_residual=float((ideal & fixed.T).any()),
        ideal_in_perp_residual=ideal_in_perp,
        perp_in_traceless_residual=math.sqrt(np.count_nonzero(perp & diagonal) / n),
        ideal_closure_residual=_stripe_cut(g, ideal),
        perp_closure_residual=_stripe_cut(g, perp),
        quotient_formula_residual=quotient,
        eq_tol=tol.eq_tol,
    )


@dataclass(frozen=True)
class InvariantAlgebraReport:
    orbit_count: int
    dim_invariant: int
    dim_commutant: int
    distance: float
    eq_tol: float

    @property
    def metric(self) -> float:
        """The projector distance, or inf if the invariant functions, the
        orbits and the commutant do not all have the same dimension."""
        agree = self.dim_invariant == self.orbit_count == self.dim_commutant
        return self.distance if agree else math.inf

    @property
    def passed(self) -> bool:
        return self.metric <= self.eq_tol


def invariant_algebra(subgroup: Subgroup, tol: Tolerances = DEFAULT_TOL) -> InvariantAlgebraReport:
    """Functions invariant under left translation by a subgroup, as diagonal
    operators, against the commutant of {lambda(h)} and one diagonal with
    distinct values.  The two must coincide, with dimension the number of orbits."""
    g = subgroup.parent
    n = g.order
    cosets = np.array(subgroup.right_cosets())  # one coset per row, all of size |H|
    invariant = _indicator_span(n * n, cosets * (n + 1))
    comm = commutant(_subgroup_generators(g, subgroup), n, tol)
    return InvariantAlgebraReport(
        orbit_count=len(cosets),
        dim_invariant=invariant.dim,
        dim_commutant=comm.dim,
        distance=projector_distance(invariant, comm),
        eq_tol=tol.eq_tol,
    )


def willis_ideal(mu: Measure, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """range(f -> f - f conv' mu), where conv' is the pre-adjoint of
    convolve(mu, .) under the bilinear pairing sum_x f(x) phi(x); the
    orthogonal complement of the harmonic functions in that pairing."""
    if not mu.is_probability(tol):
        raise ValueError("the ideal is defined for probability measures")
    n = mu.group.order
    c_mat = convolution_matrix(mu)
    return range_space(np.eye(n) - c_mat.T, tol, scale=_map_scale(1.0, mu.weights))
