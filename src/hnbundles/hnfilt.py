"""Harder-Narasimhan filtrations on the formal model.

The fast path groups atoms by slope; the oracle re-derives the same
filtrations by exhaustive enumeration of ordered partitions of the atoms
(plain) or of the positive isotropic part (Sp/SO), so the two routes
check each other.
"""

from dataclasses import dataclass
from itertools import combinations

from .bundle import IsotropicBundle, PlainBundle, SlBundle, dual, is_semistable
from .errors import TooLarge, UnsupportedRank
from .rootsys import SO

ORACLE_RANK_GUARD = 8


def _require_decreasing(quotients):
    # explicit raises, not assert, so that python -O keeps the checks
    slopes = [q.slope for q in quotients]
    if any(s <= t for s, t in zip(slopes, slopes[1:])):
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
        if self.quotients and self.quotients[-1].slope <= 0:
            raise ValueError("isotropic HN quotients must have positive slopes")


def scss(b: PlainBundle):
    """Strongly contradicting semistability subobject: the maximal-slope atoms."""
    top = max(a.slope for a in b.atoms)
    return tuple(a for a in b.atoms if a.slope == top)


def _group_by_slope(atoms):
    slopes = sorted({a.slope for a in atoms}, reverse=True)
    return tuple(PlainBundle(tuple(a for a in atoms if a.slope == s)) for s in slopes)


def hn_filtration(b) -> Filtration:
    """HN filtration of a plain (or SL) bundle, reported by its quotients."""
    if isinstance(b, SlBundle):
        b = b.underlying
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


def _ordered_partitions(atoms):
    """All ordered set partitions of the atom multiset, by index blocks."""

    def rec(remaining):
        if not remaining:
            yield []
            return
        for k in range(1, len(remaining) + 1):
            for blk in combinations(remaining, k):
                left = [i for i in remaining if i not in blk]
                for tail in rec(left):
                    yield [blk] + tail

    for part in rec(tuple(range(len(atoms)))):
        yield [tuple(atoms[i] for i in blk) for blk in part]


def hn_uniqueness_oracle(b) -> bool:
    """Exhaustively verify that exactly one filtration satisfies the
    defining conditions, and that it is the fast-path output."""
    if isinstance(b, SlBundle):
        b = b.underlying
    if b.rank > ORACLE_RANK_GUARD:
        raise TooLarge(f"rank {b.rank} exceeds the oracle guard")
    # an Sp/SO isotropic part takes every positive atom: one left out would
    # sit in the slope-0 middle with its negative mirror, and the middle
    # would not be semistable; so only the positive part is partitioned
    isotropic = isinstance(b, IsotropicBundle)
    winners = set()
    for part in _ordered_partitions(b.positive if isotropic else b.atoms):
        blocks = [PlainBundle(blk) for blk in part]
        if not all(is_semistable(q) for q in blocks):
            continue
        slopes = [q.slope for q in blocks]
        if all(x > y for x, y in zip(slopes, slopes[1:])):
            winners.add(tuple(tuple(q.atoms) for q in blocks))
    fast = hn_filtration_isotropic(b) if isotropic else hn_filtration(b)
    return winners == {tuple(tuple(q.atoms) for q in fast.quotients)}
