"""bohrkit: sharp Bohr-type radii for the Cesaro and Bernardi integral operators.

The library computes the radii up to which the operator majorants of every
function bounded by 1 on the disk Omega_gamma stay below their closed-form
bounds, and ships the verification machinery (extremal families, coefficient
inequalities, remainder-order checks) that certifies both directions of the
claim numerically.
"""

__version__ = "0.1.0"

from .errors import (BohrkitError, BracketingError, DomainError,
                     InconclusiveError, NumericalError, PreconditionError)
from .extremal import (Decomposition, ExtremalParams, Lemma1Report,
                       SharpnessReport, bernardi_extremal_decomposition,
                       bernardi_first_order_factor, cesaro_extremal_decomposition,
                       cesaro_first_order_factor, extremal_coeffs, extremal_eval,
                       identity_suite, lemma1_check, remainder_order_check,
                       sharpness_scan_bernardi, sharpness_scan_cesaro)
from .operators import (BernardiParams, bernardi_majorant, bernardi_transform,
                        cesaro_majorant, cesaro_transform, lerch_tail_sum,
                        log_bound)
from .radii import (RadiusResult, bernardi_radius, bernardi_radius_classic,
                    bohr_radius_omega, cesaro_radius, solve_bracketed)
from .series import (DomainGamma, SchurSampleSpec, TruncatedPowerSeries,
                     blaschke_coeffs, majorant_eval, polynomial,
                     sample_schur_omega, truncation_order)

__all__ = [
    "__version__",
    "BohrkitError", "BracketingError", "DomainError", "InconclusiveError",
    "NumericalError", "PreconditionError",
    "TruncatedPowerSeries", "DomainGamma", "SchurSampleSpec",
    "majorant_eval", "blaschke_coeffs", "sample_schur_omega",
    "polynomial", "truncation_order",
    "BernardiParams", "cesaro_transform", "cesaro_majorant",
    "bernardi_transform", "bernardi_majorant", "log_bound", "lerch_tail_sum",
    "RadiusResult", "solve_bracketed", "cesaro_radius", "bernardi_radius",
    "bernardi_radius_classic", "bohr_radius_omega",
    "ExtremalParams", "SharpnessReport", "Lemma1Report", "Decomposition",
    "extremal_coeffs", "extremal_eval", "cesaro_extremal_decomposition",
    "bernardi_extremal_decomposition", "cesaro_first_order_factor",
    "bernardi_first_order_factor", "lemma1_check", "sharpness_scan_cesaro",
    "sharpness_scan_bernardi", "remainder_order_check", "identity_suite",
]
