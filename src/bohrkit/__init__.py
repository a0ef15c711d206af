"""bohrkit: sharp Bohr-type radii for the Cesaro and Bernardi integral operators.

The library computes the radii up to which the operator majorants of every
function bounded by 1 on the disk Omega_gamma stay below their closed-form
bounds, and ships the verification machinery (extremal families, coefficient
inequalities, remainder-order checks) that certifies both directions of the
claim numerically.
"""

__version__ = "0.1.0"

import importlib

# Public names by defining module, each resolved on first use (PEP 562): the
# package, and a radius solve, load only the modules they need, and no numpy.
_MODULE_OF = {name: module for module, names in {
    "errors": "BohrkitError DomainError InconclusiveError NumericalError PreconditionError",
    "lerch": "DomainGamma BernardiParams lerch_tail_sum",
    "series": "TruncatedPowerSeries SchurSampleSpec Lemma1Report majorant_eval "
              "blaschke_coeffs sample_schur_omega polynomial truncation_order lemma1_check",
    "operators": "cesaro_transform cesaro_majorant bernardi_transform bernardi_majorant",
    "radii": "RadiusResult cesaro_radius bernardi_radius bernardi_radius_classic "
             "bohr_radius_omega log_bound",
    "extremal": "ExtremalParams SharpnessReport Decomposition cesaro_extremal_decomposition "
                "bernardi_extremal_decomposition cesaro_first_order_factor "
                "bernardi_first_order_factor sharpness_scan_cesaro sharpness_scan_bernardi "
                "remainder_order_check identity_suite",
}.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in {"cli", *_MODULE_OF.values()}:  # bohrkit.radii and the like, as before
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
