"""Exact chromatic class functions of combinatorial structures.

The pipeline: build a structure (graph, poset, matroid, mixed graph,
double poset, hypergraph, simplicial complex, or point collection), pick
a compatible character and a group of automorphisms, and compute the
quasisymmetric class function psi by enumerating proper set
compositions.  Everything downstream is exact: class polynomials in the
binomial basis, orbit counts, coloring complexes with their flag
f-vectors and Hilb functions, embedding certificates, and a brute-force
coloring oracle for cross-checking.  No floats anywhere.
"""

from .chromatic import (ClassPolynomial, ClassQSym, binomial_to_monomial,
                        coloring_oracle, colorings_by_composition,
                        colorings_by_type, fixed_coloring_counts,
                        orbital_polynomial, orbital_psi, proper_compositions,
                        psi, psi_polynomial, verify_flawless)
from .complexes import (BalancedRelativeComplex, EmbeddingCertificate,
                        check_balanced_convex, coloring_complex,
                        comparable_pairs, flag_f_vector, hilb,
                        integer_matrix_rank, theta_certificate,
                        verify_m_increasing)
from .compositions import (Flag, IntComposition, SetComposition,
                           alpha_of_subset, compositions_of,
                           enumerate_set_compositions, flag_of, refines,
                           subset_of_alpha, type_of, type_of_flag)
from .cyclotomic import Cyclo
from .errors import (DomainError, ResourceCapError, UnsupportedGroupError,
                     VerificationFailure)
from .groups import (ClassFunction, PermGroup, Permutation,
                     abelian_irreducibles, burnside_count, conjugacy_classes,
                     inner_product, irreducible_multiplicities,
                     is_effective, leq_char)
from .structures import (CharacterSpec, DoublePoset, Graph, Hypergraph,
                         Matroid, MixedGraph, PointCollection, Poset,
                         SimplicialComplex, automorphisms, char_value,
                         contract, loday_associahedron, make_double_poset,
                         make_poset, proper_coloring, restrict)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "BalancedRelativeComplex", "CharacterSpec", "ClassFunction",
    "ClassPolynomial", "ClassQSym", "Cyclo", "DomainError", "DoublePoset",
    "EmbeddingCertificate", "Flag", "Graph", "Hypergraph", "IntComposition",
    "Matroid", "MixedGraph", "PermGroup", "Permutation", "PointCollection",
    "Poset", "ResourceCapError", "SetComposition", "SimplicialComplex",
    "UnsupportedGroupError", "VerificationFailure", "abelian_irreducibles",
    "alpha_of_subset", "automorphisms", "binomial_to_monomial",
    "burnside_count", "char_value", "check_balanced_convex",
    "coloring_complex", "coloring_oracle", "colorings_by_composition",
    "colorings_by_type", "comparable_pairs", "compositions_of",
    "conjugacy_classes", "contract", "enumerate_set_compositions",
    "fixed_coloring_counts", "flag_f_vector", "flag_of",
    "hilb", "inner_product", "integer_matrix_rank",
    "irreducible_multiplicities", "is_effective", "leq_char",
    "loday_associahedron", "make_double_poset", "make_poset",
    "orbital_polynomial", "orbital_psi", "proper_coloring",
    "proper_compositions", "psi", "psi_polynomial", "refines", "restrict",
    "run_verification", "subset_of_alpha", "theta_certificate", "type_of",
    "type_of_flag", "verify_flawless", "verify_m_increasing",
]
