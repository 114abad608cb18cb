"""Exact-arithmetic toolkit for sphere-join Sasaki manifolds.

Modules:

* :mod:`sasakijoin.exactpoly` -- integer/rational polynomial kernel with
  certified isolation of positive real roots;
* :mod:`sasakijoin.joinspace` -- parameter validation and topological
  invariants (Chern/spin data, cohomology, homotopy, dimension-7 residues);
* :mod:`sasakijoin.classify` -- dimension-7 homotopy, homeomorphism, and
  diffeomorphism predicates;
* :mod:`sasakijoin.cscrays` -- constant-scalar-curvature ray enumeration;
* :mod:`sasakijoin.cli` -- the ``sasakijoin`` command-line interface.

Each name below is loaded from its module on first use (PEP 562), so that
``import sasakijoin``, which ``python -m sasakijoin`` runs first, loads none.
"""

import importlib

__version__ = "0.1.0"

# module: the names the package takes from it
_EXPORTS = {
    "exactpoly": ("IntPolynomial", "RationalInterval", "RootRecord", "cubic_discriminant",
                  "intpoly", "isolate_positive_roots", "rational_roots",
                  "squarefree_decompose", "sturm_count"),
    "joinspace": ("AbelianGroupDescriptor", "JoinParams", "ParameterError", "RingPresentation",
                  "bundle_type_wz", "c1_coefficient", "cohomology_group", "cohomology_ring",
                  "diffeo_type_dim5", "h4_order", "homotopy_group", "is_spin",
                  "iterated_join_ring", "linking_form", "p1_class", "validate"),
    "classify": ("ClassificationVerdict", "LambdaExponents", "ks_diffeomorphic",
                 "ks_homeomorphic", "ks_moduli", "kruggel_homotopy_equivalent",
                 "lambda_exponents", "partition_diffeo_types"),
    "cscrays": ("CscPolynomial", "InternalInvariantError", "Ray", "RayReport", "csc_cubic_p1",
                "csc_polynomial", "csc_rays", "deflate_forbidden", "fourth_derivative_at_one",
                "min_l2_multiple_csc", "quasireg_family", "ray_threshold", "wz_threshold"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        globals()[name] = getattr(module, name)
        return globals()[name]
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS, "cli"})
