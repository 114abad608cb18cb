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
"""

from .exactpoly import (
    IntPolynomial,
    RationalInterval,
    RootRecord,
    cubic_discriminant,
    intpoly,
    isolate_positive_roots,
    rational_roots,
    squarefree_decompose,
    sturm_count,
)
from .joinspace import (
    AbelianGroupDescriptor,
    JoinParams,
    ParameterError,
    RingPresentation,
    bundle_type_wz,
    c1_coefficient,
    cohomology_group,
    cohomology_ring,
    diffeo_type_dim5,
    h4_order,
    homotopy_group,
    is_spin,
    iterated_join_ring,
    linking_form,
    p1_class,
    validate,
)
from .classify import (
    ClassificationVerdict,
    LambdaExponents,
    ks_diffeomorphic,
    ks_homeomorphic,
    ks_moduli,
    kruggel_homotopy_equivalent,
    lambda_exponents,
    partition_diffeo_types,
)
from .cscrays import (
    CscPolynomial,
    InternalInvariantError,
    Ray,
    RayReport,
    csc_cubic_p1,
    csc_polynomial,
    csc_rays,
    deflate_forbidden,
    fourth_derivative_at_one,
    min_l2_multiple_csc,
    quasireg_family,
    ray_threshold,
    wz_threshold,
)

__version__ = "0.1.0"
