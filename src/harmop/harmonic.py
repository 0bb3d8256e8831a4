"""Fixed-point spaces of both actions, the three-route equality check for
the algebra of multiplier-harmonic operators, ergodic limit products, and the
ideal suite in the trace-class predual."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, Subgroup, generated_subgroup
from .functions import (
    GroupFunction,
    Measure,
    convolution_matrix,
    in_p1,
    level_set_one,
    same_group,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    commutant,
    double_commutant,
    null_space,
    projector_distance,
    range_space,
)
from .actions import (
    Superoperator,
    bullet,
    displacement_table,
    left_regular,
    theta_hat,
    trace_pairing,
    transpose_index,
)


def _map_scale(mat: np.ndarray) -> float:
    """Reference norm for maps compared against the identity."""
    return max(1.0, float(np.abs(mat).sum(axis=1).max()))


def fixed_points(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed vectors of the superoperator over vectorized matrices."""
    dense = phi.dense()
    return null_space(dense - np.eye(dense.shape[0]), tol, scale=_map_scale(dense))


def harmonic_functions(mu: Measure, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """{phi : convolve(mu, phi) = phi}; its dimension is the index of the
    subgroup generated by the support of mu."""
    if not mu.is_probability(tol):
        raise ValueError("harmonic functions are defined for probability measures")
    c_mat = convolution_matrix(mu)
    return null_space(c_mat - np.eye(mu.group.order), tol, scale=_map_scale(c_mat))


def harmonic_functionals(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed points of the canonical multiplier action inside the span of the
    left translations: span{lambda(x) : sigma(x) = 1}, vectorized."""
    g = sigma.group
    level = sorted(level_set_one(sigma, tol))
    if not level:
        return Subspace.zero(g.order ** 2)
    rows = [left_regular(g, x).reshape(-1) for x in level]
    return Subspace.from_span(np.stack(rows), tol)


def harmonic_operators(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Fixed points of the multiplier action on all operators."""
    return fixed_points(theta_hat(sigma), tol)


def _diagonal_units(n: int) -> list[np.ndarray]:
    """The matrix units E_aa; they span the multiplication operators."""
    units = np.zeros((n, n, n))
    units[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    return list(units)


def _coordinate_span(mask: np.ndarray) -> Subspace:
    """span{E_ab : mask[a, b]}, with basis columns in row-major order."""
    cols = np.flatnonzero(mask)
    basis = np.zeros((mask.size, len(cols)), dtype=complex)
    basis[cols, np.arange(len(cols))] = 1.0
    return Subspace(mask.size, basis)


def _stripe_span(group: GroupTable, level) -> Subspace:
    """span{E_ab : a b^-1 in level}: operators supported on the level set."""
    return _coordinate_span(np.isin(displacement_table(group), list(level)))


def _bimodule_span(group: GroupTable, level, tol: Tolerances) -> Subspace:
    """span{M_f lambda(x) : x in level, f arbitrary}, built from products."""
    n = group.order
    units = _diagonal_units(n)
    rows = []
    for x in sorted(level):
        lam = left_regular(group, x)
        rows.extend((diag @ lam).reshape(-1) for diag in units)
    if not rows:
        return Subspace.zero(n * n)
    return Subspace.from_span(np.stack(rows), tol)


@dataclass(frozen=True)
class HarmonicReport:
    """Verdict of the three-route computation of the harmonic-operator algebra."""

    group_name: str
    parameter: str
    p1_mode: bool
    level_set: tuple[int, ...]
    dims: dict[str, int]
    expected_dim: int | None
    distances: dict[str, float]
    eq_tol: float

    @property
    def passed(self) -> bool:
        if any(d > self.eq_tol for d in self.distances.values()):
            return False
        if self.expected_dim is not None:
            return all(d == self.expected_dim for d in self.dims.values())
        return True


def verify_main_theorem(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL,
                        parameter: str = "sigma") -> HarmonicReport:
    """Compare three independent routes to the sigma-harmonic operators.

    (A) fixed points of the multiplier action, as a dense null space;
    (B) the von Neumann algebra generated by the fixed left translations and
        the diagonal, via the double-commutant engine;
    (C) the span of the matrix units supported on the level set of sigma.

    For sigma in P1(G) the three agree with dimension |G| * |level set|.  For
    general sigma the level set need not be a subgroup and (B) can overshoot,
    so only the inclusions span{M_f lambda(x)} <= (A) <= (C) are checked.
    """
    g = sigma.group
    n = g.order
    level = tuple(int(x) for x in sorted(level_set_one(sigma, tol)))
    p1 = in_p1(sigma, tol)
    fixed = harmonic_operators(sigma, tol)
    stripe = _stripe_span(g, level)
    if p1:
        gens = [left_regular(g, x) for x in level] + _diagonal_units(n)
        algebra = double_commutant(gens, n, tol)
        dims = {
            "fixed_points": fixed.dim,
            "generated_algebra": algebra.dim,
            "stripe_span": stripe.dim,
        }
        distances = {
            "fixed_vs_algebra": projector_distance(fixed, algebra),
            "fixed_vs_stripe": projector_distance(fixed, stripe),
            "algebra_vs_stripe": projector_distance(algebra, stripe),
        }
        expected = n * len(level)
    else:
        span = _bimodule_span(g, level, tol)
        pa, ps, pc = fixed.projector, span.projector, stripe.projector
        dims = {
            "fixed_points": fixed.dim,
            "bimodule_span": span.dim,
            "stripe_span": stripe.dim,
        }
        distances = {
            "span_in_fixed": float(np.linalg.norm(ps @ pa - ps)),
            "fixed_in_stripe": float(np.linalg.norm(pa @ pc - pa)),
        }
        expected = None
    return HarmonicReport(
        group_name=g.name,
        parameter=parameter,
        p1_mode=p1,
        level_set=level,
        dims=dims,
        expected_dim=expected,
        distances=distances,
        eq_tol=tol.eq_tol,
    )


# ---------------------------------------------------------------------------
# limit products

def limit_product(mode: str, a, b, mu: Measure,
                  tol: Tolerances = DEFAULT_TOL) -> GroupFunction | np.ndarray:
    """Ergodic product of two harmonic elements: the limit of the Cesaro
    averages of the n-th power of the action of mu on the plain product.

    convolution_matrix(mu) is doubly stochastic, so by the mean ergodic
    theorem these averages converge to the orthogonal projection onto its
    fixed points, the functions constant on the left cosets xH of the
    subgroup H that supp mu generates.  The limit is that coset average,
    taken exactly, periodic walks included.

    mode="function": a, b are functions; returns the coset average of a*b.
    mode="operator": a, b are operators.  Theta(mu) acts on the stripe row
    b -> T[x b, b] of each x as convolution by mu, so the limit of
    Theta(mu)^n (a @ b) is the coset average of every stripe row of a @ b.
    """
    if not mu.is_probability(tol):
        raise ValueError("limit products are defined for probability measures")
    g = mu.group
    cosets = np.array(generated_subgroup(g, mu.support(tol)).left_cosets())

    def average(values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[..., cosets] = values[..., cosets].mean(axis=-1, keepdims=True)
        return out

    if mode == "function":
        if not (isinstance(a, GroupFunction) and isinstance(b, GroupFunction)):
            raise ValueError("function mode expects GroupFunction inputs")
        if not (same_group(a.group, g) and same_group(b.group, g)):
            raise ValueError("functions and measure live on different groups")
        project = average
        factors = (a.values, b.values)
        product = a.values * b.values
    elif mode == "operator":
        stripes = (g.table, np.arange(g.order))  # T[stripes][x, b] = T[x b, b]

        def project(t_mat: np.ndarray) -> np.ndarray:
            out = np.empty_like(t_mat)
            out[stripes] = average(t_mat[stripes])
            return out

        factors = (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        if any(f.shape != (g.order, g.order) for f in factors):
            raise ValueError(f"operator shapes do not match group order {g.order}")
        product = factors[0] @ factors[1]
    else:
        raise ValueError(f"mode must be 'function' or 'operator', got {mode!r}")
    for name, f in zip(("first", "second"), factors):
        if np.abs(project(f) - f).max() > tol.eq_tol:
            warnings.warn(f"{name} factor is not harmonic for this measure")
    limit = project(product)
    return GroupFunction(g, limit) if mode == "function" else limit


# ---------------------------------------------------------------------------
# ideals in the predual

def pre_annihilator_ideal(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """range(pre_adjoint(phi) - id): the trace-class elements annihilating the
    fixed points; dimensions are complementary to fixed_points(phi)."""
    dense = phi.pre_adjoint().dense()
    return range_space(dense - np.eye(dense.shape[0]), tol, scale=_map_scale(dense))


def _traceless_span(n: int, tol: Tolerances) -> Subspace:
    return null_space(np.eye(n).reshape(1, -1), tol)


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
    n = group.order
    proj, basis = ideal.projector, ideal.basis
    # row x: the flat indices of the stripe S_x
    stripes = np.argsort(displacement_table(group), axis=None, kind="stable").reshape(n, n)
    residual = 0.0
    for cols in stripes:
        defect = proj[:, cols] @ basis[cols]
        defect[cols] -= basis[cols]
        residual = max(residual, float(np.linalg.norm(defect, axis=0).max()))
    stripe_sums = np.abs(basis[stripes].sum(axis=1)).max(axis=1)
    unit_defect = np.linalg.norm(np.eye(n * n) - proj, axis=0)[stripes].max(axis=1)
    return max(residual, float((stripe_sums * unit_defect).max()))


@dataclass(frozen=True)
class IdealSuiteReport:
    group_name: str
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
        """The largest residual; NaN if any residual is NaN."""
        return float(np.max([
            self.orthogonality_residual,
            self.ideal_in_perp_residual or 0.0,
            self.perp_in_traceless_residual,
            self.ideal_closure_residual,
            self.perp_closure_residual,
            self.quotient_formula_residual,
        ]))

    @property
    def passed(self) -> bool:
        return (self.dim_ideal + self.dim_fixed == self.dim_traceless + 1
                and self.worst_residual <= self.eq_tol)


def linfty_perp_suite(sigma: GroupFunction, tol: Tolerances = DEFAULT_TOL) -> IdealSuiteReport:
    """The ideal chain in the predual for the multiplier action of sigma.

    Computes the pre-annihilator of the harmonic operators, the annihilator of
    the multiplication operators (zero-diagonal matrices), and the traceless
    elements; verifies the inclusion chain when sigma(e) = 1, closure of both
    ideals under the predual product, orthogonality of the pre-annihilator
    against the fixed points, and the induced quotient product
    f . g = <f, 1> g on diagonal representatives.
    """
    g = sigma.group
    n = g.order
    action = theta_hat(sigma)
    ideal = pre_annihilator_ideal(action, tol)
    fixed = fixed_points(action, tol)
    perp = _coordinate_span(~np.eye(n, dtype=bool))
    traceless = _traceless_span(n, tol)
    pairings = ideal.basis.T @ fixed.basis[transpose_index(n)]
    orth = float(np.abs(pairings).max()) if pairings.size else 0.0
    sigma_e = abs(complex(sigma.values[g.identity]) - 1.0) <= tol.eq_tol
    pi_i, pi_p, pi_t = ideal.projector, perp.projector, traceless.projector
    ideal_in_perp = float(np.linalg.norm(pi_i @ pi_p - pi_i)) if sigma_e else None
    perp_in_traceless = float(np.linalg.norm(pi_p @ pi_t - pi_p))
    units = _diagonal_units(n)
    quotient = max(
        float(np.abs(bullet(g, f_mat, g_mat) - trace_pairing(np.eye(n), f_mat) * g_mat).max())
        for f_mat in units for g_mat in units
    )
    return IdealSuiteReport(
        group_name=g.name,
        sigma_at_identity_is_one=sigma_e,
        dim_ideal=ideal.dim,
        dim_fixed=fixed.dim,
        dim_linfty_perp=perp.dim,
        dim_traceless=traceless.dim,
        orthogonality_residual=orth,
        ideal_in_perp_residual=ideal_in_perp,
        perp_in_traceless_residual=perp_in_traceless,
        ideal_closure_residual=bullet_closure_residual(g, ideal, tol),
        perp_closure_residual=bullet_closure_residual(g, perp, tol),
        quotient_formula_residual=quotient,
        eq_tol=tol.eq_tol,
    )


@dataclass(frozen=True)
class InvariantAlgebraReport:
    group_name: str
    subgroup: tuple[int, ...]
    orbit_count: int
    dim_invariant: int
    dim_commutant: int
    distance: float
    eq_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.distance <= self.eq_tol
            and self.dim_invariant == self.orbit_count == self.dim_commutant
        )


def invariant_algebra(subgroup: Subgroup, tol: Tolerances = DEFAULT_TOL) -> InvariantAlgebraReport:
    """Functions invariant under left translation by a subgroup, as diagonal
    operators, against the commutant of {lambda(h)} united with the diagonal.
    The two must coincide, with dimension the number of orbits."""
    g = subgroup.parent
    n = g.order
    cosets = subgroup.right_cosets()
    basis = np.zeros((n * n, len(cosets)), dtype=complex)
    for k, coset in enumerate(cosets):
        for y in coset:
            basis[y * n + y, k] = 1.0 / np.sqrt(len(coset))
    invariant = Subspace(n * n, basis)
    gens = [left_regular(g, h) for h in subgroup] + _diagonal_units(n)
    comm = commutant(gens, n, tol)
    return InvariantAlgebraReport(
        group_name=g.name,
        subgroup=subgroup.members,
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
    return range_space(np.eye(n) - c_mat.T, tol, scale=_map_scale(c_mat))
