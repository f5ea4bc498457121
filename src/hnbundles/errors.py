"""Exception hierarchy shared across the library."""


class HnBundleError(Exception):
    """Base class for all library errors."""


class UnsupportedRank(HnBundleError):
    """Rank outside the range a family supports (e.g. SO with r < 3)."""


class TooLarge(HnBundleError):
    """Input exceeds an enumeration guard."""


class InvalidFlag(HnBundleError):
    """Flag rank out of the admissible range."""


class FamilyMismatch(HnBundleError):
    """Operands belong to different group families."""


class NotACharacter(HnBundleError):
    """Functional is not the differential of a character of the parabolic."""


class NothingToGenerate(HnBundleError):
    """Character generators requested for the empty parabolic index."""


class ZeroBundle(HnBundleError):
    """Operation on an empty bundle."""


class NotDegreeZero(HnBundleError):
    """Nonzero total degree where it must be zero: an SL bundle, or the
    ambient bundle of an SL, Sp or SO vertical degree."""


class NotIntegral(HnBundleError):
    """Cartan vector where a cocharacter is required: the base class of
    NotInKernelLattice, which as_cocharacter raises."""


class NotInKernelLattice(NotIntegral):
    """Vector off the cocharacter lattice Gamma: not cartan_dim integral
    entries, or on SL, where Gamma has trace zero, a nonzero trace."""


class InvalidReduction(HnBundleError):
    """Reduction data inconsistent with the given degree vector."""


class InvariantBreach(HnBundleError):
    """An internal invariant failed: a check case found its fast path and
    oracle differ or raised on its own input, or an oracle broke its own
    invariant.  Never caused by invalid input; the CLI maps it, and only
    it, to exit 3."""
