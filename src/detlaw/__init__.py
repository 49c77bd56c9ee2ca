"""Exact pseudorepresentation computations over finite fields.

Determinant laws of finite-dimensional algebras, Cayley-Hamilton quotients,
generalized matrix algebras with their adapted representation schemes,
conjugation orbits of representation points with the induced-law fibration,
extension-group stratifications, and an ordinary-locus toy for groups with
a distinguished inertia subgroup.
"""

from .algebras import FinAlgebra, GroupAlgebra, Ideal, group_algebra, quotient
from .cohomology import (Ext1Space, assemble_extension, ext1,
                         ext_representatives, fiber_stratify)
from .fields import FieldDesc, embed_code, embedding_table, make_field
from .gma import (AdaptedScheme, GmaData, adapted_points, adapted_scheme,
                  canonical_det, gma_from_characters, gma_full, torus_orbits,
                  verify_gma)
from .groups import (FiniteGroup, cyclic, dihedral, direct_product,
                     semidirect_cyclic_squared, symmetric, with_inertia)
from .linalg import Mat
from .moduli import (degeneration_lands_in_closed_orbit, degeneration_limit,
                     invariants_separate_laws, orbit_partition, psi_fiber,
                     word_invariant_vector, word_invariants)
from .ordinary import (OrdinaryInstance, certify_points, is_ordinary,
                       ordinary_ideal)
from .poly import MPoly
from .pseudo import (PseudoRep, ch_ideal, ch_quotient, det_law,
                     is_cayley_hamilton, kernel, matrix_algebra,
                     nilpotency_index, split_search, tautological_rep)
from .reps import (Representation, characters, conjugate_rep, direct_sum,
                   enumerate_reps, irreducible_reps, isomorphic, semisimplify,
                   trivial_rep)

__version__ = "0.1.0"
