"""sphstruve: spherical Bessel, Struve and hyper-Bessel functions with an
umbral evaluation engine, certified quadrature, and a verifier for the
family's closed-form identities.

The exports resolve on first use (PEP 562), so `import sphstruve.functions`
or a CLI `eval` loads the evaluators without compiling the verifier, the
quadrature kernels, the umbral reducer or the `Decimal` pipeline."""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it, in `__all__` order
_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError", "PoleError", "UnknownIdentityError"),
    "gammakit": ("Hermite2Coeffs", "gamma", "hermite2_coeffs", "rgamma"),
    "umbral": (
        "UmbralExpSeries",
        "UmbralExpr",
        "UmbralTerm",
        "expand",
        "gaussian_reduce",
        "laplace_reduce",
        "reduce_expr",
        "reduce_weighted",
    ),
    "functions": (
        "DEFAULT_POLICY",
        "EvalPolicy",
        "SeriesResult",
        "anger",
        "cyl_j",
        "delta_fn",
        "humbert2",
        "humbert3",
        "hyp1f2",
        "mod_i0",
        "rayleigh_jn",
        "s1",
        "s2",
        "sph_j",
        "sph_j_deriv",
        "struve_h",
        "weber",
    ),
    "quadrature": (
        "QuadratureResult",
        "integrate_finite",
        "integrate_laguerre",
        "integrate_oscillatory",
        "integrate_real_line",
    ),
    "identities": (
        "Identity",
        "VerificationReport",
        "catalog_json",
        "get_identity",
        "list_identities",
        "verify",
        "verify_all",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """Import the module that defines an export on its first lookup, and
    keep the name here so the next lookup is a plain attribute read."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
