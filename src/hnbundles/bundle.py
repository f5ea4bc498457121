"""Formal bundle model: finite direct sums of semistable atoms.

An atom is a pair (degree, rank) standing for a semistable bundle with
those invariants.  Plain bundles are multisets of atoms; an SL bundle is
a plain bundle of total degree 0 (trivial determinant), a subtype that
adds the constraint and no data, so every function of a plain bundle
takes it as it is; Sp/SO bundles store the positive isotropic part and
a slope-0 block, the mirror being implied.  The adjoint bundle of any
of them is read off its atoms, one atom per atom product, with no root
values: End E, less its trace line on SL, Sym^2 E on Sp, Lambda^2 E on SO.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import ClassVar

from .errors import InvalidFlag, NotDegreeZero, UnsupportedRank, ZeroBundle
from .rootsys import B, GL, SL, SO, SP, GroupFamily, as_cocharacter


@dataclass(frozen=True, order=True)
class Atom:
    degree: int
    rank: int

    def __post_init__(self):
        # exactly int, as GroupFamily's rank: True equals 1, but prints True
        if type(self.degree) is not int or type(self.rank) is not int:
            raise ValueError(f"atom degree and rank must be ints, got "
                             f"{self.degree!r} and {self.rank!r}")
        if self.rank < 1:
            raise ValueError("atom rank must be positive")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


# Atom's own order, (degree, rank), as a key read once per atom rather
# than two tuples built per comparison
_ATOM_ORDER = attrgetter("degree", "rank")


def _canon(atoms):
    # check before sorting, which fails on an Atom next to another object
    atoms = tuple(atoms)
    if not all(isinstance(a, Atom) for a in atoms):
        raise TypeError("expected atoms")
    return tuple(sorted(atoms, key=_ATOM_ORDER, reverse=True))


@dataclass(frozen=True)
class PlainBundle:
    """Finite nonempty multiset of atoms; its rank and degree are summed
    once, at construction."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", _canon(self.atoms))
        if not self.atoms:
            raise ZeroBundle("bundle needs at least one atom")
        # not fields: ==, hash and repr read the atoms alone
        object.__setattr__(self, "rank", sum(a.rank for a in self.atoms))
        object.__setattr__(self, "degree", sum(a.degree for a in self.atoms))

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


@dataclass(frozen=True)
class SlBundle(PlainBundle):
    """Plain bundle with trivial determinant (total degree zero).  It
    never equals the plain bundle of the same atoms."""

    def __post_init__(self):
        super().__post_init__()
        # an explicit raise, not assert, so that python -O keeps the check
        if self.degree != 0:
            raise NotDegreeZero("SL bundle must have total degree 0")


def _check_positive(atoms):
    atoms = _canon(atoms)
    if any(a.degree <= 0 for a in atoms):
        raise ValueError("positive part must consist of slope > 0 atoms")
    return atoms


def _check_zero(atoms):
    atoms = _canon(atoms)
    if any(a.degree != 0 for a in atoms):
        raise ValueError("zero block must consist of degree-0 atoms")
    return atoms


@dataclass(frozen=True)
class IsotropicBundle:
    """Sp or SO bundle, by ``kind``: positive isotropic part plus slope-0 block.

    The underlying bundle is positive + dual(positive) + zero block; the
    zero block is kept as a multiset of slope-0 atoms so that filtration
    quotients compare exactly against the plain-bundle route.  Its rank
    and the rank of its zero block are summed once, at construction.
    Build one through SpBundle or SoBundle.
    """

    kind: ClassVar[str]
    positive: tuple
    zero_part: tuple = field(default=())

    def __post_init__(self):
        if not hasattr(self, "kind"):
            raise TypeError("IsotropicBundle has no kind: build SpBundle or SoBundle")
        object.__setattr__(self, "positive", _check_positive(self.positive))
        object.__setattr__(self, "zero_part", _check_zero(self.zero_part))
        if not (self.positive or self.zero_part):
            raise ZeroBundle("bundle needs at least one atom")
        # not fields: ==, hash and repr read the atoms alone
        zero_rank = sum(a.rank for a in self.zero_part)
        object.__setattr__(self, "zero_rank", zero_rank)
        object.__setattr__(self, "rank", 2 * sum(
            a.rank for a in self.positive) + zero_rank)


@dataclass(frozen=True)
class SpBundle(IsotropicBundle):
    """Symplectic bundle: the total rank must be even."""

    kind = SP

    def __post_init__(self):
        super().__post_init__()
        if self.rank % 2 != 0:
            raise UnsupportedRank("Sp bundle rank must be even")


@dataclass(frozen=True)
class SoBundle(IsotropicBundle):
    """Special-orthogonal bundle of any total rank, since adjoint returns
    one for every bundle: ad of a GL1 bundle has rank 1."""

    kind = SO


def isotropic_bundle(kind: str, positive, zero_part) -> IsotropicBundle:
    """The Sp or SO bundle of the given family kind."""
    return (SpBundle if kind == SP else SoBundle)(positive, zero_part)


def bundle_from_degrees(family: GroupFamily, degrees):
    """Torus-split bundle of the given degree vector, a cocharacter.  Off
    type A it keeps only |d|: on even SO with no zero degree and an odd
    number of negative ones, its hn_type is the dominant point with the
    last entry negated, the image under the outer automorphism."""
    degrees = as_cocharacter(family, degrees)
    if family.kind in (GL, SL):
        return (SlBundle if family.kind == SL else PlainBundle)(
            tuple(Atom(d, 1) for d in degrees))
    positive = tuple(Atom(abs(d), 1) for d in degrees if d != 0)
    zeros = 2 * sum(1 for d in degrees if d == 0) + (family.cartan_type == B)
    return isotropic_bundle(family.kind, positive, tuple([Atom(0, 1)] * zeros))


def underlying(b) -> PlainBundle:
    """The plain bundle beneath any decorated kind: a plain bundle, an SL
    one included, is its own."""
    if isinstance(b, PlainBundle):
        return b
    mirror = tuple(Atom(-a.degree, a.rank) for a in b.positive)
    return PlainBundle(b.positive + b.zero_part + mirror)


def dual(b: PlainBundle) -> PlainBundle:
    return PlainBundle(tuple(Atom(-a.degree, a.rank) for a in b.atoms))


def _times(x: Atom, y: Atom) -> Atom:
    """x tensor y: a product of semistable atoms stays one atom."""
    return Atom(x.degree * y.rank + y.degree * x.rank, x.rank * y.rank)


def tensor(a: PlainBundle, b: PlainBundle) -> PlainBundle:
    """Formal tensor product, one atom per pair of atoms."""
    return PlainBundle(tuple(_times(x, y) for x in a.atoms for y in b.atoms))


def direct_sum(a: PlainBundle, b: PlainBundle) -> PlainBundle:
    return PlainBundle(a.atoms + b.atoms)


def _flag_shape(family: GroupFamily, e, f):
    """Check a flag reduction's shape; returns (d, r, fdeg, l) from
    e = (total degree, total rank) and f = (subbundle degree, rank)."""
    d, r = e
    fdeg, l = f
    if r != family.r:
        raise UnsupportedRank(f"E has rank {r}, {family} needs {family.r}")
    if family.kind in (GL, SL):
        if family.kind == SL and d != 0:
            raise NotDegreeZero("SL vertical degree needs ambient degree 0")
        if not 1 <= l < r:
            raise InvalidFlag(f"need 1 <= l < r, got l={l}, r={r}")
        return d, r, fdeg, l
    if d != 0:
        raise NotDegreeZero("Sp/SO vertical degree needs ambient degree 0")
    if not 1 <= l <= r // 2:
        raise InvalidFlag(f"need 1 <= l <= {r // 2}, got {l}")
    return d, r, fdeg, l


def vertical_degree(family: GroupFamily, e, f) -> int:
    """Degree of the vertical tangent bundle of the flag reduction.

    e = (total degree, total rank) of the ambient bundle, f = (degree, rank)
    of the subbundle (isotropic for Sp/SO).  Nonnegative exactly when the
    slope test for semistability holds, positive when it holds strictly.
    """
    d, r, fdeg, l = _flag_shape(family, e, f)
    if family.kind in (GL, SL):
        return -fdeg * r + d * l
    if family.kind == SP:
        return -fdeg * (r - l + 1)
    return -fdeg * (r - l - 1)


def is_semistable(b) -> bool:
    """Slope semistability on the formal model.

    Plain/SL: all atoms share one slope.  Sp/SO: the positive part is
    empty.  An SO bundle of total rank 2 is always semistable.
    """
    if isinstance(b, PlainBundle):
        d, r = b.atoms[0].degree, b.atoms[0].rank
        return all(a.degree * r == d * a.rank for a in b.atoms)
    if b.kind == SO and b.rank == 2:
        return True
    return not b.positive


def adjoint(b) -> SoBundle:
    """ad E for any bundle b of the model, E = underlying(b), split
    orthogonal: its atoms of degree > 0 are the positive part and those of
    degree 0 the zero block.

    ad E is End E = E* tensor E on GL; on SL End_0 E, End E less the trace
    line, taken off its first slope-0 atom; Sym^2 E on Sp; Lambda^2 E on
    SO.  Each is one semistable atom per atom product in characteristic 0
    (Ramanan-Ramanathan 1984): x tensor y for atoms x, y, and for one atom
    (d, r) Sym^2 (d(r + 1), r(r + 1)/2) or Lambda^2 (d(r - 1), r(r - 1)/2),
    none when r = 1.  On a torus-split bundle: a rank-1 atom of degree
    alpha(a) per root alpha, and torus_dim trivial atoms.  ad sl(1) = 0
    has no atom, and is refused with ZeroBundle.
    """
    e = underlying(b)
    if isinstance(b, PlainBundle):
        atoms = list(tensor(dual(e), e).atoms)
        if isinstance(b, SlBundle):
            # x* tensor x has degree 0, so there is a slope-0 atom
            i = next(i for i, x in enumerate(atoms) if x.degree == 0)
            k = atoms[i].rank
            atoms[i:i + 1] = [Atom(0, k - 1)] if k > 1 else []
    else:
        s = 1 if b.kind == SP else -1
        atoms = [Atom(x.degree * (x.rank + s), x.rank * (x.rank + s) // 2)
                 for x in e.atoms if x.rank + s > 0]
        atoms += [_times(x, y) for i, x in enumerate(e.atoms)
                  for y in e.atoms[i + 1:]]
    return SoBundle(tuple(a for a in atoms if a.degree > 0),
                    tuple(a for a in atoms if a.degree == 0))
