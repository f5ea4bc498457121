"""Harder-Narasimhan filtrations on the formal model.

The atoms are sorted by slope and the runs of equal slope cut, comparing
slopes as integer cross-products.  The exhaustive search that checks
these filtrations lives in hnbundles.oracles.
"""

from dataclasses import dataclass
from functools import cmp_to_key

from .bundle import (IsotropicBundle, PlainBundle, _require, dual, is_semistable,
                     underlying)
from .rootsys import D


def _check_quotients(f):
    """The HN quotient rule both filtrations keep: plain (or SL) quotients,
    semistable, of strictly decreasing slopes."""
    for q in f.quotients:
        _require(q, PlainBundle, type(f).__name__)
    pairs = [(q.degree, q.rank) for q in f.quotients]
    if any(d * s <= c * r for (d, r), (c, s) in zip(pairs, pairs[1:])):
        slopes = [q.slope for q in f.quotients]
        raise ValueError(f"HN slopes ({', '.join(map(str, slopes))}) are not "
                         "strictly decreasing")
    if not all(is_semistable(q) for q in f.quotients):
        raise ValueError("HN quotients must be semistable")


@dataclass(frozen=True)
class Filtration:
    """Ordered semistable quotients with strictly decreasing slopes."""

    quotients: tuple

    def __post_init__(self):
        _check_quotients(self)

    @property
    def slopes(self):
        return tuple(q.slope for q in self.quotients)


@dataclass(frozen=True)
class IsotropicFiltration:
    """Isotropic quotients under Filtration's rule, of positive slopes, plus
    a slope-0 middle; rank_flag marks the SO-even isotropic rank n-1 case."""

    quotients: tuple
    middle: tuple
    rank_flag: bool = False

    def __post_init__(self):
        _check_quotients(self)
        if self.quotients and self.quotients[-1].degree <= 0:
            raise ValueError("isotropic HN quotients must have positive slopes")
        if any(a.degree != 0 for a in self.middle):
            raise ValueError("isotropic HN middle must consist of degree-0 atoms")


def scss(b):
    """Strongly contradicting semistability subobject: the maximal-slope
    atoms of underlying(b), for a bundle of any kind of the model."""
    atoms = underlying(_require(b, (PlainBundle, IsotropicBundle), "scss")).atoms
    return _group_by_slope(atoms)[0].atoms


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
    atoms = _require(b, PlainBundle, "hn_filtration").atoms
    return Filtration(_group_by_slope(atoms))


def hn_filtration_isotropic(b: IsotropicBundle) -> IsotropicFiltration:
    """Isotropic HN filtration of a symplectic or special-orthogonal bundle.

    rank_flag is set on type D_n when the isotropic part has rank n-1; the
    associated parabolic then carries both special simple roots.  The
    family is the bundle's, which refuses SO below rank 3.
    """
    family = _require(b, IsotropicBundle, "hn_filtration_isotropic").family
    quotients = _group_by_slope(b.positive)
    iso_rank = sum(q.rank for q in quotients)
    flag = family.cartan_type == D and iso_rank == family.cartan_dim - 1
    return IsotropicFiltration(quotients, b.zero_part, flag)


def extend_with_perps(f: IsotropicFiltration) -> Filtration:
    """Complete an isotropic filtration by the co-isotropic perps: the
    result is the plain HN filtration of the underlying bundle."""
    if not isinstance(f, IsotropicFiltration):
        raise TypeError("extend_with_perps takes an isotropic filtration, "
                        f"got {type(f).__name__}")
    quotients = list(f.quotients)
    if sum(a.rank for a in f.middle):
        quotients.append(PlainBundle(f.middle))
    quotients.extend(dual(q) for q in reversed(f.quotients))
    return Filtration(tuple(quotients))
