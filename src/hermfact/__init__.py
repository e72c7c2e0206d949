"""Exact positivity certificates and holomorphic factorizations for Hermitian
matrix-valued polynomial kernels, with a PDE-symbol front end and a CLI.

Everything on the certification path runs over the Gaussian rationals; floats
appear only in evaluation helpers and numeric factor rendering.
"""

from .certify import (
    SignatureCertificate,
    gram_decomposition,
    is_positive_definite,
    is_positive_semidefinite,
    ldl_signature,
)
from .factor import (
    NumericFactor,
    WeightedGramFactor,
    difference_of_squares,
    holomorphic_factor,
    numeric_factor,
    strict_holomorphic_factor,
)
from .hermform import (
    BihermitianForm,
    CoefficientBasis,
    HermitianMatrix,
    HoloPolyMatrix,
    add,
    bidegree,
    coefficient_matrix,
    euclidean_pairing,
    evaluate,
    evaluate_exact,
    from_coefficient_matrix,
    gram,
    is_hermitian_symmetric,
    kernel_multiply,
    scale,
    subtract,
)
from .multiindex import (
    MultiIndex,
    bergman_coefficient_reduced,
    dim_homogeneous,
    enumerate_degree,
    monomial_norm_reduced,
    multinomial,
)
from .operator_link import (
    OperatorMatrix,
    operator_matrix,
    operator_positive,
    pairing_identity_check,
    reproducing_check,
)
from .parsing import ParseError, format_form, parse_expression, parse_real_symbol
from .scalars import GaussianRational, GaussianRow, SparseRow, as_gaussian
from .stabilize import (
    StabilizationReport,
    StabilizationStep,
    find_minimal_d,
    multiplier_power,
    multiplier_shift,
    stabilization_sweep,
)
from .symbols import (
    EllipticityReport,
    RealSymbol,
    certify_elliptic,
    certify_elliptic_form,
    complex_to_real,
    is_complex_bihomogeneous,
    rational_sphere_point,
    real_to_complex,
    sphere_sample_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
