"""Exact computation with fibered Burnside rings of finite groups."""

from .abelian_fiber import AbelianFiber
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         abelian_group, abelianization, are_isomorphic,
                         conjugacy_classes_of_subgroups, cyclic_group,
                         dihedral_group, double_coset_reps,
                         enumerate_subgroups, group_from_cayley, mark,
                         normalizer, semidirect_product, symmetric_group,
                         trivial_group)
from .monomial import (BurnsideElement, GhostElement, MonomialBasis,
                       gamma_block, gamma_table, ghost_multiply,
                       mark_morphism, monomial_basis, multiply)
from .species import (EXHAUSTION_CAVEAT, SpeciesVerdict, SpeciesWitness,
                      search_species, thevenaz_witness, verify_species)
from .thevenaz import ThevenazGroup, ThevenazSpec

__version__ = "0.1.0"
