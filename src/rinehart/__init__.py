"""Exact-arithmetic cohomology of Lie-Rinehart algebroids.

The package computes Chevalley-Eilenberg-de Rham cohomology of affine Lie
algebroids with coefficients in a representation, builds truncated universal
enveloping algebras and the associated Koszul-type resolution of the base
algebra, and runs the spectral sequence of an algebroid extension with full
cross-validation of its pages.  All arithmetic is exact, over Q or F_p.
"""

__version__ = "0.1.0"

from .algebra import (AModule, AtiyahObject, FiniteAlgebra, Violation,
                      atiyah_object, derivation_space, endomorphism_space,
                      regular_module, validate_algebra)
from .algebroid import (LieRinehartAlgebroid, Representation, anchor_representation,
                        invariants, leibniz_bracket, validate_algebroid,
                        validate_representation)
from .cecomplex import CEComplex, RepComplex, ce_complex, ce_dims, total_complex
from .complexes import (CochainComplex, Cohomology, EdgeMaps, FilteredComplex,
                        SpectralPage, edge_maps, spectral_pages, total_cohomology_dims)
from .enveloping import (RinehartComplex, TruncatedEnveloping, ext_dims, hom_complex_iso,
                         rinehart_complex)
from .extensions import (AdaptedExtension, ExtensionTriple, adapt,
                         extension_from_k_indices, induced_q_rep,
                         validate_extension, with_splitting)
from .fields import GF, QQ, Field
from .hochschild import (HSFiltration, HSPages, check_e1, check_e2, five_term,
                         hs_filtration, hs_pages, hs_report)
from .linalg import (Matrix, Subspace, image_subspace, kernel_subspace,
                     kernel_vectors, rank, solve)
from .problems import ProblemFile, canonical_json, parse, problem_hash, to_dict

__all__ = [name for name in dir() if not name.startswith("_")]
