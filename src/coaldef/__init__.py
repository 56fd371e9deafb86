"""coaldef: exact computation of Hochschild coalgebra cohomology and
truncated formal deformations of coalgebra morphisms.

The package is organized bottom-up:

* :mod:`coaldef.exactlinalg` -- exact matrices over Q or GF(p), echelon
  forms, kernels, images, canonical solves, quotient bases;
* :mod:`coaldef.coalgebra` -- coalgebras, morphisms, bicomodules,
  validity checks, tensor-power map builders, fixture structures;
* :mod:`coaldef.cohomology` -- the Hochschild complex of a bicomodule
  and the deformation complex of a morphism, whose methods are the
  differentials, cocycle/coboundary predicates, cohomology reports and
  the class of a cocycle (no function wraps them, so
  ``coaldef.cohomology`` is the module);
* :mod:`coaldef.series` -- truncated power series with matrix
  coefficients: products, Kronecker substitution and the packed
  intertwining defects that transport reads, forming no inverse (only
  ``invert_formal`` inverts);
* :mod:`coaldef.deformation` -- truncated deformations of a morphism:
  verification, infinitesimals, obstruction cochains and classes (one
  entry point, :func:`~coaldef.deformation.obstruction`), order-by-order
  extension, integration of 2-cocycles, formal isomorphisms,
  equivalence transport and constructive trivialization;
* :mod:`coaldef.problemfile` / :mod:`coaldef.cli` -- the batch front
  end and its JSON problem-file format.
"""

from .coalgebra import (
    Bicomodule,
    Coalgebra,
    CoalgebraMorphism,
    InvalidStructureError,
    StructureReport,
    bicomodule_via,
    change_basis,
    change_basis_morphism,
    check_bicomodule,
    check_coassociative,
    check_morphism,
    collapse_morphism,
    direct_sum,
    divided_power,
    grouplike,
    identity_morphism,
    inclusion_morphism,
    middle_insertion,
    regular_bicomodule,
    tensor_power_map,
    zero_comultiplication,
    zero_morphism,
)
from .cohomology import (
    Cochain,
    CohomologyReport,
    HochschildComplex,
    MorphismCochain,
    MorphismComplex,
    d_c,
    delta_c,
    morphism_complex,
)
from .deformation import (
    DeformationReport,
    ExtensionRejected,
    FormalIsomorphism,
    InfinitesimalResult,
    IntegrationResult,
    InternalInvariantError,
    ObstructionClass,
    TrivializationResult,
    TruncatedDeformation,
    apply_equivalence,
    comp_bar,
    compose_isomorphisms,
    extend,
    infinitesimal,
    integrate,
    invert_formal,
    obstruction,
    trivialize,
    verify_deformation,
)
from .exactlinalg import (
    QQ,
    DimensionError,
    ExactLinalgError,
    Matrix,
    PrimeField,
    QuotientError,
    Rationals,
    Subspace,
    image_basis,
    kernel_basis,
    quotient_data,
    rank,
    solve,
)
from .problemfile import ProblemFile, ProblemFileError, builtin_corpus

__version__ = "0.1.0"
