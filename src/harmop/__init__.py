"""Exact dense-linear-algebra laboratory for harmonic operators on finite
groups: multiplier and convolution actions on the matrix algebra over a
group, operator supports, fixed-point spaces and their commutant
descriptions, and ideals in the trace-class predual."""

from .groups import (
    GroupTable,
    GroupTableError,
    SchemaError,
    Subgroup,
    all_subgroups,
    builtin_group,
    characters,
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    parse_group,
    quaternion_group,
    symmetric_group,
)
from .linalg import (
    DEFAULT_TOL,
    SizeCapError,
    Subspace,
    Tolerances,
    commutant,
    double_commutant,
    inclusion_residual,
    null_space,
    projector_distance,
    psd_factorize,
    range_space,
)
from .functions import (
    AdaptednessReport,
    GroupFunction,
    Measure,
    PDWitness,
    check_adaptedness_equivalence,
    constant_function,
    convolve,
    convolve_measures,
    delta_function,
    delta_measure,
    fs_transform,
    in_p1,
    indicator_function,
    is_adapted_measure,
    is_positive_definite,
    level_set_one,
    uniform_measure,
)
from .actions import (
    Superoperator,
    bullet,
    bullet_via_comultiplication,
    coassociativity_defect,
    comultiplication,
    dual_unitary,
    flip_unitary,
    fundamental_unitary,
    left_regular,
    module_action,
    mult_op,
    pi_quotient,
    schur_mask,
    theta,
    theta_hat,
    theta_hat_sum_form,
)
from .support import SupportSet, annihilator_ideal, operator_support
from .harmonic import (
    HarmonicReport,
    IdealSuiteReport,
    InvariantAlgebraReport,
    fixed_points,
    harmonic_functionals,
    harmonic_functions,
    harmonic_operators,
    invariant_algebra,
    limit_product,
    linfty_perp_suite,
    pre_annihilator_ideal,
    verify_main_theorem,
    willis_ideal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
