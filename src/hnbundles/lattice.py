"""Fundamental groups, obstruction classes and topological types, in
closed form.

Gamma is the cocharacter lattice of the maximal torus in its own
coordinates (for SL, the trace-zero sublattice of Z^r), and
rootsys.as_cocharacter decides membership.  Lambda is the integer span
of the coroots; pi1 = Gamma/Lambda.  For the classical families every
group and centre below is read off the parabolic index, with no root
table: a Levi factor is a product of GL blocks, the runs of coordinates
tied by the simple roots outside I, and at most one classical factor of
the same type, and pi1(SO(m)) = Z/2 for m >= 3 is its only torsion
(Bourbaki, Lie Groups and Lie Algebras ch. VI, Plates I-IV).  The tests
keep the Smith normal form of the coroot matrix and the Levi roots as
oracles.
"""

from dataclasses import dataclass
from fractions import Fraction

from .parabolic import ParabolicIndex, _levi_blocks
from .rootsys import GL, SO, GroupFamily, _point, as_cocharacter, simple_root_count

# the centre off GL, shared by every topological type: a Fraction is immutable
_ZERO = Fraction(0)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        # explicit raises, not assert, so that python -O keeps the checks;
        # exactly int, like Atom: True and 2.0 would describe as Z and Z/2.0
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError(f"free rank must be a nonnegative int, got {self.free_rank!r}")
        # a list is kept as a tuple, so that the group hashes
        if not isinstance(self.torsion, (list, tuple)):
            raise ValueError(f"torsion must be a list or tuple, got {self.torsion!r}")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if any(type(d) is not int or d < 2 for d in self.torsion):
            raise ValueError(f"invariant factors {self.torsion} must be ints >= 2")
        if any(y % x for x, y in zip(self.torsion, self.torsion[1:])):
            raise ValueError(f"invariant factors {self.torsion} must divide "
                             "each other in order")

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


def fundamental_groups(family: GroupFamily):
    """(pi1 of the derived group, pi1 of G, pi1 of the abelianization)."""
    return levi_fundamental_groups(family, ParabolicIndex(family, ()))


def levi_fundamental_groups(family: GroupFamily, index: ParabolicIndex):
    """(pi1_der, pi1, pi1_ab) of the Levi factor L_I.

    The free rank is rank Gamma less the rank of the Levi coroot lattice,
    the count of simple roots outside I.  The torsion is Z/2 when L_I
    keeps an SO(m) factor with m >= 3.
    """
    _point(family, index=index)
    free = family.torus_dim - simple_root_count(family) + len(index.members)
    torsion = (2,) if family.kind == SO and _levi_blocks(index)[2] else ()
    return FinAbGroup(0, torsion), FinAbGroup(free, torsion), FinAbGroup(free, ())


def obstruction_class(family: GroupFamily, a):
    """Class of the degree cocharacter a in pi1(G) = Gamma/Lambda.

    Returns (free_coords, torsion_residues).  pi1 has a free part only
    for GL, and its one free coordinate is the total degree, the degree of
    the determinant.  Only SO has torsion, Z/2: Lambda is the sublattice
    of even coordinate sum, so the residue is the total degree mod 2.
    """
    a = as_cocharacter(family, a)
    free = (sum(a),) if family.kind == GL else ()
    return free, ((sum(a) % 2,) if family.kind == SO else ())


def topological_type(family: GroupFamily, a):
    """Central averaging of a degree vector: the slope-type of the bundle,
    one central value repeated, the mean degree on GL and 0 off it."""
    a = as_cocharacter(family, a)
    centre = Fraction(sum(a), family.r) if family.kind == GL else _ZERO
    return (centre,) * len(a)


def levi_topological_type(family: GroupFamily, index: ParabolicIndex, a):
    """Projection of a onto the centre of the Levi factor L_I.

    Each simple root e_i - e_(i+1) outside I ties x_(i+1) to x_i: the runs
    of tied coordinates are the GL blocks of L_I, and the centre on each
    is its mean.  A classical factor leaves the last block no central
    direction.  On the D_n fork, e_(n-1) + e_n outside I and e_(n-1) - e_n
    in it, x_n joins the block of x_(n-1) negated.
    """
    a = list(as_cocharacter(family, a))
    _point(family, index=index)
    runs, fork, tail = _levi_blocks(index)
    if fork:
        a[-1] = -a[-1]
    centre = []
    for lo, hi in runs:
        centre += [Fraction(sum(a[lo:hi]), hi - lo)] * (hi - lo)
    centre += [_ZERO] * tail
    if fork:
        centre[-1] = -centre[-1]
    return tuple(centre)
