"""Harder-Narasimhan filtrations on the formal model.

The fast path groups atoms by slope; the oracle re-derives the same
filtrations by an exhaustive search over ordered partitions of the atoms
(plain) or of the positive isotropic part (Sp/SO) that extends only the
prefixes meeting the definition, so the two routes check each other.
"""

from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter

from .bundle import IsotropicBundle, PlainBundle, SlBundle, dual, is_semistable
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


def scss(b: PlainBundle):
    """Strongly contradicting semistability subobject: the maximal-slope atoms."""
    top = max(a.slope for a in b.atoms)
    return tuple(a for a in b.atoms if a.slope == top)


def _group_by_slope(atoms):
    keyed = sorted(((a.slope, a) for a in atoms), key=itemgetter(0), reverse=True)
    return tuple(PlainBundle(tuple(a for _, a in group))
                 for _, group in groupby(keyed, key=itemgetter(0)))


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


def _hn_candidates(atoms, above=None):
    """Every ordered partition of the atoms into semistable blocks whose
    slopes strictly decrease, each first slope below above, as a tuple of
    blocks.  A block is kept only when it extends a valid prefix: a prefix
    that breaks the definition has no valid completion."""
    if not atoms:
        yield ()
        return
    for k in range(1, len(atoms) + 1):
        for picked in combinations(range(len(atoms)), k):
            block = PlainBundle(tuple(atoms[i] for i in picked))
            if not is_semistable(block) or (above is not None
                                            and block.slope >= above):
                continue
            rest = tuple(a for i, a in enumerate(atoms) if i not in picked)
            for tail in _hn_candidates(rest, block.slope):
                yield (block.atoms,) + tail


def hn_uniqueness_oracle(b) -> bool:
    """Verify by exhaustive search that exactly one filtration satisfies
    the defining conditions, and that it is the fast-path output.

    Refuses more than ORACLE_ATOM_GUARD atoms to partition (the positive
    part for Sp/SO)."""
    if isinstance(b, SlBundle):
        b = b.underlying
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
