"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(AlgebraError):
    """A Cayley table failed validation.

    ``witness`` carries the offending triple/pair of element indices when
    the failure is a broken axiom, or None for shape problems.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnAutomorphism(AlgebraError):
    """A claimed automorphism is not a bijective homomorphism."""


class NotAnAction(AlgebraError):
    """A claimed action map is not a homomorphism into the automorphism group."""


class NotABijection(AlgebraError):
    """A witness map that must be a bijection is not one."""


class NotAGroupIso(AlgebraError):
    """A character map flagged as a group isomorphism fails to be one."""


class SearchBudgetExceeded(AlgebraError):
    """The species search exceeded its node budget."""


class FiberHasPTorsion(AlgebraError):
    """The fiber has nontrivial p-torsion, violating the witness hypothesis."""


class InvalidSpec(AlgebraError):
    """A parameter set for the order-p^2*q family violates its constraints."""
