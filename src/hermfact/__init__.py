"""Exact positivity certificates and holomorphic factorizations for Hermitian
matrix-valued polynomial kernels, with a PDE-symbol front end and a CLI.

Everything on the certification path runs over the Gaussian rationals; floats
appear only in numeric factor rendering.
"""

from .certify import SignatureCertificate, ldl_signature
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
    HermitianMatrix,
    HoloPolyMatrix,
    bidegree,
    coefficient_matrix,
    evaluate_exact,
    from_coefficient_matrix,
    gram,
    is_hermitian_symmetric,
    scale,
)
from .multiindex import MultiIndex, dim_homogeneous, enumerate_degree
from .parsing import ParseError, parse_expression, parse_real_symbol
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
    real_to_complex,
    sphere_sample_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
