"""Harder-Narasimhan filtrations on the formal model.

The fast path sorts the atoms by slope and cuts the runs of equal slope,
comparing slopes as integer cross-products.  The oracle re-derives the
same filtrations by an exhaustive search over ordered partitions of the
atoms (plain) or of the positive isotropic part (Sp/SO): a walk over bit
masks of the atoms that extends only the prefixes meeting the
definition, and reads nothing from the bundle model or the fast path, so
the two routes check each other.
"""

from dataclasses import dataclass
from functools import cmp_to_key

from .bundle import IsotropicBundle, PlainBundle, dual, is_semistable, underlying
from .errors import TooLarge, UnsupportedRank
from .rootsys import SO

ORACLE_ATOM_GUARD = 8


def _require_decreasing(quotients):
    # explicit raises, not assert, so that python -O keeps the checks
    pairs = [(q.degree, q.rank) for q in quotients]
    if any(d * s <= c * r for (d, r), (c, s) in zip(pairs, pairs[1:])):
        slopes = [q.slope for q in quotients]
        raise ValueError(f"HN slopes ({', '.join(map(str, slopes))}) are not "
                         "strictly decreasing")


@dataclass(frozen=True)
class Filtration:
    """Ordered semistable quotients with strictly decreasing slopes."""

    quotients: tuple

    def __post_init__(self):
        _require_decreasing(self.quotients)
        if not all(is_semistable(q) for q in self.quotients):
            raise ValueError("HN quotients must be semistable")

    @property
    def slopes(self):
        return tuple(q.slope for q in self.quotients)


@dataclass(frozen=True)
class IsotropicFiltration:
    """Isotropic quotients of positive decreasing slopes plus a slope-0
    middle; rank_flag marks the SO-even isotropic rank n-1 case."""

    quotients: tuple
    middle: tuple
    rank_flag: bool = False

    def __post_init__(self):
        _require_decreasing(self.quotients)
        if self.quotients and self.quotients[-1].degree <= 0:
            raise ValueError("isotropic HN quotients must have positive slopes")


def scss(b):
    """Strongly contradicting semistability subobject: the maximal-slope
    atoms of underlying(b), for a bundle of any kind of the model."""
    atoms = underlying(b).atoms
    top = max(a.slope for a in atoms)
    return tuple(a for a in atoms if a.slope == top)


def _group_by_slope(atoms):
    # by descending slope, d_a / r_a > d_b / r_b compared as d_a r_b > d_b r_a
    ordered = sorted(atoms, key=cmp_to_key(
        lambda a, b: b.degree * a.rank - a.degree * b.rank))
    cuts = [i for i in range(1, len(ordered))
            if ordered[i - 1].degree * ordered[i].rank
            != ordered[i].degree * ordered[i - 1].rank]
    return tuple(PlainBundle(tuple(ordered[i:j]))
                 for i, j in zip([0] + cuts, cuts + [len(ordered)]) if i < j)


def hn_filtration(b) -> Filtration:
    """HN filtration of a plain (or SL) bundle, reported by its quotients."""
    return Filtration(_group_by_slope(b.atoms))


def hn_filtration_isotropic(b: IsotropicBundle) -> IsotropicFiltration:
    """Isotropic HN filtration of a symplectic or special-orthogonal bundle.

    rank_flag is set for SO of even total rank when the isotropic part
    has rank n-1; the associated parabolic then carries both special
    simple roots.
    """
    if b.kind == SO and b.rank < 3:
        raise UnsupportedRank("SO filtration needs total rank >= 3")
    quotients = _group_by_slope(b.positive)
    iso_rank = sum(q.rank for q in quotients)
    flag = b.kind == SO and b.rank % 2 == 0 and iso_rank == b.rank // 2 - 1
    return IsotropicFiltration(quotients, b.zero_part, flag)


def extend_with_perps(f: IsotropicFiltration) -> Filtration:
    """Complete an isotropic filtration by the co-isotropic perps: the
    result is the plain HN filtration of the underlying bundle."""
    quotients = list(f.quotients)
    if sum(a.rank for a in f.middle):
        quotients.append(PlainBundle(f.middle))
    quotients.extend(dual(q) for q in reversed(f.quotients))
    return Filtration(tuple(quotients))


def _hn_candidates(atoms):
    """Every ordered partition of the atoms into semistable blocks whose
    slopes strictly decrease, as a tuple of blocks, each block its atoms
    in descending order.

    A walk over bit masks of the atoms.  One table gives, for each mask,
    its block's (degree, rank) when all its atoms share one slope, and
    None otherwise, by integer cross-multiplication.  A prefix is
    extended only by a submask of the atoms left whose block is uniform
    and has slope below the previous block's: a prefix that breaks the
    definition has no valid completion.  A block's atoms are gathered
    only when it closes a winner.  Nothing here reads the bundle model
    or the fast path."""
    atoms = sorted(atoms, reverse=True)
    n = len(atoms)
    uniform = [None] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        a = atoms[low.bit_length() - 1]
        if mask == low:
            uniform[mask] = (a.degree, a.rank)
        elif (rest := uniform[mask ^ low]) and \
                a.degree * rest[1] == rest[0] * a.rank:
            uniform[mask] = (rest[0] + a.degree, rest[1] + a.rank)

    def block(mask):
        return tuple(a for i, a in enumerate(atoms) if mask >> i & 1)

    def walk(left, above):
        if not left:
            yield ()
            return
        sub = left
        while sub:
            slope = uniform[sub]
            # slope d / r below the previous D / R, as d R < D r
            if slope is not None and (above is None or
                                      slope[0] * above[1] < above[0] * slope[1]):
                for tail in walk(left & ~sub, slope):
                    yield (block(sub),) + tail
            sub = (sub - 1) & left

    return walk((1 << n) - 1, None)


def hn_uniqueness_oracle(b) -> bool:
    """Verify by exhaustive search that exactly one filtration satisfies
    the defining conditions, and that it is the fast-path output.

    Refuses more than ORACLE_ATOM_GUARD atoms to partition (the positive
    part for Sp/SO)."""
    # an Sp/SO isotropic part takes every positive atom: one left out would
    # sit in the slope-0 middle with its negative mirror, and the middle
    # would not be semistable; so only the positive part is partitioned
    isotropic = isinstance(b, IsotropicBundle)
    atoms = b.positive if isotropic else b.atoms
    if len(atoms) > ORACLE_ATOM_GUARD:
        raise TooLarge(f"{len(atoms)} atoms exceed the oracle guard")
    winners = set(_hn_candidates(atoms))
    fast = hn_filtration_isotropic(b) if isotropic else hn_filtration(b)
    return winners == {tuple(q.atoms for q in fast.quotients)}
