"""Exact computation with fibered Burnside rings of finite groups."""

# The submodules are imported eagerly, not on first use: the benchmark's
# tracer (bench/tracer.py) imports fibered_burnside.cli and then reads every
# submodule it wraps from sys.modules, so a deferred import would be missing
# there. Keep them eager until the tracer imports what it wraps itself.
# group_core comes first: it is the largest module, and compiled before
# numpy loads, the memory its compilation frees is reused by numpy's
# import; compiled after, it stays a hole in the heap. Without cached
# bytecode that keeps about 1 MB off the resident size of every command.
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         abelian_group, abelianization, are_isomorphic,
                         conjugacy_classes_of_subgroups, cyclic_group,
                         dihedral_group, enumerate_subgroups,
                         group_from_cayley, normalizer, semidirect_product,
                         symmetric_group, trivial_group)
from .abelian_fiber import AbelianFiber
from .monomial import MonomialBasis, monomial_basis
from .species import (EXHAUSTION_CAVEAT, SpeciesVerdict, SpeciesWitness,
                      search_species, thevenaz_witness, verify_species)
from .thevenaz import ThevenazGroup, ThevenazSpec

__version__ = "0.1.0"
