"""Exact arithmetic for positive ternary quadratic forms.

Covers canonical reduction, equivalence and automorphs, representation
counting, p-adic local densities, genus enumeration for discriminants p^2
and 16p^2, Watson's lambda transformations, and exact verification of the
three-squares excess identities.
"""

from .counting import rep_count, s, s_batch, theta, vectors_with_value
from .forms import (
    FormError,
    TernaryForm,
    apply_map,
    discriminant,
    is_positive_definite,
    is_primitive,
)
from .genus import (
    GenusCache,
    GenusSet,
    IncompletenessError,
    build_tg2,
    enumerate_tg1,
    mass_closed_form,
)
from .isometry import automorphs, equivalent
from .local import (
    LocalDensity,
    ResourceLimitError,
    StabilizationError,
    count_solutions_mod,
    density_formula_odd,
    gamma_p,
    kronecker,
    local_density,
    psi,
)
from .reduction import reduce_form
from .verify import (
    IdentityReport,
    verify_all,
    verify_density_theorems,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_1_3,
)
from .watson import lambda_m, phi, phi_inverse, transport_automorph

__version__ = "0.1.0"

__all__ = [
    "FormError",
    "GenusCache",
    "GenusSet",
    "IdentityReport",
    "IncompletenessError",
    "LocalDensity",
    "ResourceLimitError",
    "StabilizationError",
    "TernaryForm",
    "apply_map",
    "automorphs",
    "build_tg2",
    "count_solutions_mod",
    "density_formula_odd",
    "discriminant",
    "enumerate_tg1",
    "equivalent",
    "gamma_p",
    "is_positive_definite",
    "is_primitive",
    "kronecker",
    "lambda_m",
    "local_density",
    "mass_closed_form",
    "phi",
    "phi_inverse",
    "psi",
    "reduce_form",
    "rep_count",
    "s",
    "s_batch",
    "theta",
    "transport_automorph",
    "vectors_with_value",
    "verify_all",
    "verify_density_theorems",
    "verify_theorem_1_1",
    "verify_theorem_1_2",
    "verify_theorem_1_3",
]
