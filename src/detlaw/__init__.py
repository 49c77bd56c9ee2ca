"""Exact pseudorepresentation computations over finite fields.

Determinant laws of finite-dimensional algebras, Cayley-Hamilton quotients,
generalized matrix algebras with their adapted representation schemes,
conjugation orbits of representation points with the induced-law fibration,
extension-group stratifications, and an ordinary-locus toy for groups with
a distinguished inertia subgroup.

Every module but ``cli`` and ``errors`` is loaded on first use: importing
the package puts each one in ``sys.modules`` and binds it here through
``importlib.util.LazyLoader``, and a module's code runs only when one of its
attributes is first read.  A command then compiles only the modules it
reaches.  The public names below are served by ``__getattr__`` (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors

# The public names, by the module that defines them.
_EXPORTS = {
    "algebras": ("FinAlgebra", "GroupAlgebra", "Ideal", "group_algebra", "quotient"),
    "cohomology": ("Ext1Space", "assemble_extension", "ext1", "ext_representatives",
                   "fiber_stratify"),
    "fields": ("FieldDesc", "embed_code", "embedding_table", "make_field"),
    "gma": ("AdaptedScheme", "GmaData", "adapted_points", "adapted_scheme",
            "canonical_det", "gma_from_characters", "gma_full", "torus_orbits",
            "verify_gma"),
    "groups": ("FiniteGroup", "cyclic", "dihedral", "direct_product",
               "semidirect_cyclic_squared", "symmetric", "with_inertia"),
    "linalg": ("Mat",),
    "moduli": ("degeneration_lands_in_closed_orbit", "degeneration_limit",
               "invariants_separate_laws", "orbit_partition", "psi_fiber",
               "word_invariant_vector", "word_invariants"),
    "ordinary": ("OrdinaryInstance", "certify_points", "is_ordinary", "ordinary_ideal"),
    "poly": ("MPoly",),
    "pseudo": ("PseudoRep", "ch_ideal", "ch_quotient", "det_law", "is_cayley_hamilton",
               "kernel", "matrix_algebra", "nilpotency_index", "split_search",
               "tautological_rep"),
    "reps": ("Representation", "characters", "conjugate_rep", "direct_sum",
             "enumerate_reps", "irreducible_reps", "isomorphic", "semisimplify",
             "trivial_rep"),
}
_LAZY = (*_EXPORTS, "serialize")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def _lazy_module(name):
    """detlaw.<name> in sys.modules, its code run on its first attribute read
    (the LazyLoader recipe of the importlib documentation)."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy_module(name)) for name in _LAZY)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys())
