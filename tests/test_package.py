"""The public surface of the package: the names ``sasakijoin`` re-exports,
each loaded from its own module on first use."""

import importlib
import subprocess
import sys

import sasakijoin
from sasakijoin import classify, cscrays, joinspace

# every name the package re-exports, by the module that defines it
EXPORTED = {
    "exactpoly": ["IntPolynomial", "RationalInterval", "RootRecord", "cubic_discriminant",
                  "intpoly", "isolate_positive_roots", "rational_roots",
                  "squarefree_decompose", "sturm_count"],
    "joinspace": ["AbelianGroupDescriptor", "JoinParams", "ParameterError",
                  "RingPresentation", "bundle_type_wz", "c1_coefficient", "cohomology_group",
                  "cohomology_ring", "diffeo_type_dim5", "h4_order", "homotopy_group",
                  "is_spin", "iterated_join_ring", "linking_form", "p1_class", "validate"],
    "classify": ["ClassificationVerdict", "LambdaExponents", "ks_diffeomorphic",
                 "ks_homeomorphic", "ks_moduli", "kruggel_homotopy_equivalent",
                 "lambda_exponents", "partition_diffeo_types"],
    "cscrays": ["CscPolynomial", "InternalInvariantError", "Ray", "RayReport", "csc_cubic_p1",
                "csc_polynomial", "csc_rays", "deflate_forbidden", "fourth_derivative_at_one",
                "min_l2_multiple_csc", "quasireg_family", "ray_threshold", "wz_threshold"],
}
NAMES = [name for names in EXPORTED.values() for name in names]
SUBMODULES = ("exactpoly", "joinspace", "classify", "cscrays", "cli")


def test_each_exported_name_is_the_object_of_its_module():
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"sasakijoin.{module}")
        for name in names:
            namespace = {}
            exec(f"from sasakijoin import {name}", namespace)
            assert namespace[name] is getattr(source, name), name


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from sasakijoin import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(sasakijoin))
    assert sorted(sasakijoin.__all__) == sorted(NAMES)


def test_submodules_resolve_after_a_bare_import():
    code = ("import sasakijoin\n"
            f"print([getattr(sasakijoin, m).__name__ for m in {SUBMODULES!r}])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[f'sasakijoin.{m}' for m in SUBMODULES]!r}\n"


def test_unknown_names_raise_attribute_error():
    for name in ("nonexistent", "frac_str", "_EXPORTS_"):
        try:
            getattr(sasakijoin, name)
        except AttributeError as exc:
            assert name in str(exc)
        else:
            raise AssertionError(name)


def test_moved_classes_keep_their_old_names():
    # both moved beside ParameterError, as cli imports them without loading
    # classify or the ray kernel
    assert classify.LazySequence is joinspace.LazySequence
    assert cscrays.InternalInvariantError is joinspace.InternalInvariantError
    assert "LazySequence" in classify.__all__
    assert "InternalInvariantError" in cscrays.__all__
