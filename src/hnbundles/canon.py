"""Canonical reductions of torus-split principal bundles and HN types.

Both characterizations are implemented: the filtration route (the
reduction whose adjoint data is the perp of the top isotropic step) and
the Levi-semistability plus dominant-character route, together with a
brute-force degree-maximization oracle that checks them against each
other.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .bundle import IsotropicBundle, SlBundle, underlying
from .errors import InvalidReduction, TooLarge
from .hnfilt import hn_filtration, hn_filtration_isotropic
from .parabolic import (ParabolicIndex, _root_split, _two_rho,
                        character_generators)
from .rootsys import (GL, SL, GroupFamily, _point, _simple_root_values,
                      as_cocharacter, dominant_representative, evaluate,
                      is_dominant, simple_root_count, weyl_orbit)

ORACLE_DIM_GUARD = 5


@dataclass(frozen=True)
class HNType:
    """Dominant rational Cartan vector of slopes."""

    family: GroupFamily
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(Fraction(c) for c in self.mu))
        # explicit raises, not assert, so that python -O keeps the checks;
        # is_dominant rejects a point of the wrong length
        if not is_dominant(self.family, self.mu):
            raise ValueError(f"HN type ({', '.join(map(str, self.mu))}) is not "
                             f"dominant for {self.family.kind}{self.family.r}")


@dataclass(frozen=True)
class CanonicalReduction:
    family: GroupFamily
    index: ParabolicIndex
    mu: HNType
    ad_positive_roots: frozenset
    ad_parabolic_roots: frozenset


def forced_index(family: GroupFamily, mu) -> ParabolicIndex:
    """The parabolic index a dominant vector determines: simple roots
    taking a positive value on it."""
    members = frozenset(i for i, x in enumerate(_simple_root_values(family, mu))
                        if x > 0)
    return ParabolicIndex(family, members)


def canonical_reduction(family: GroupFamily, a) -> CanonicalReduction:
    """The canonical parabolic reduction of the torus-split bundle with
    degree vector a, reported at its dominant representative."""
    a = as_cocharacter(family, a)
    family.require_root_system()
    mu = dominant_representative(family, a)
    index = forced_index(family, mu)
    # mu is dominant, so the roots positive at mu are the nilradical roots
    # of its forced index and the roots vanishing at mu are the Levi roots
    levi, nilrad = _root_split(index)
    return CanonicalReduction(family, index, HNType(family, mu),
                              frozenset(nilrad), frozenset(levi + nilrad))


def hn_type(b) -> HNType:
    """Dominant slope vector of the HN filtration of b."""
    if isinstance(b, IsotropicBundle):
        family = GroupFamily(b.kind, b.rank)
        quotients = hn_filtration_isotropic(b).quotients
    else:
        family = GroupFamily(SL if isinstance(b, SlBundle) else GL, underlying(b).rank)
        quotients = hn_filtration(b).quotients
    return hn_type_of_quotients(family, quotients)


def hn_type_of_quotients(family: GroupFamily, quotients) -> HNType:
    """The HN type read off the quotients of an HN filtration in family:
    quotient slopes with multiplicity for GL/SL, positive slopes padded by
    zeros for Sp/SO."""
    coords = []
    for q in quotients:
        coords.extend([q.slope] * q.rank)
    coords.extend([Fraction(0)] * (family.cartan_dim - len(coords)))
    return HNType(family, tuple(coords))


def check_bh(family: GroupFamily, a, red: CanonicalReduction):
    """Evaluate the two BH positivity conditions on a reduction.

    Returns (levi_semistable, char_degrees): the Levi extension is
    semistable iff every simple root outside the index vanishes on the
    reduction point, and char_degrees pairs the character generators of
    the index against it (all positive for a canonical reduction).
    """
    a = as_cocharacter(family, a)
    mu = red.mu.mu
    if tuple(dominant_representative(family, a)) != tuple(
            dominant_representative(family, mu)):
        raise InvalidReduction("reduction point is not in the Weyl orbit of a")
    return bh_conditions(family, red.index, mu)


def bh_conditions(family: GroupFamily, index: ParabolicIndex, v):
    """The two conditions at an arbitrary reduction point v (possibly a
    non-dominant Weyl translate); used by the exhaustive oracle."""
    v = _point(family, v, index)
    levi_ss = all(x == 0 for i, x in enumerate(_simple_root_values(family, v))
                  if i not in index.members)
    if not index.members:
        return levi_ss, []
    degrees = [evaluate(chi, v) for chi in character_generators(family, index)]
    return levi_ss, degrees


def ad_degree(family: GroupFamily, index: ParabolicIndex, v) -> int:
    """Degree of the adjoint bundle of the reduction to P_I at point v.

    The parabolic roots are the Levi roots and the nilradical roots, and the
    degree is the sum of their values at v.  The Levi roots are closed under
    negation, so their values cancel in pairs and the degree is <2rho_P, v>,
    where 2rho_P is the sum of the nilradical roots.
    """
    v = _point(family, v, index)
    return evaluate(_two_rho(index), v)


def ad_degree_max_oracle(family: GroupFamily, a):
    """Exhaustive maximum of ad_degree over all (index, Weyl point) pairs,
    with the argmax pairs: indices in the order of their bit masks, points
    in orbit order.

    Every pair is scored exactly, with no pruning and no use of the
    closed-form canonical reduction it checks.  The adjoint degree
    <2rho_P, v> is linear in v, so each index scores the whole orbit at
    once: the orbit's coordinate columns, scaled by the nonzero entries of
    2rho_P and summed.
    """
    if family.cartan_dim > ORACLE_DIM_GUARD:
        raise TooLarge("enumeration guard exceeded")
    a = as_cocharacter(family, a)
    count = simple_root_count(family)
    orbit = weyl_orbit(family, a)
    columns = tuple(zip(*orbit))
    best = None
    argmax = []
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        values = [0] * len(orbit)
        for c, column in zip(_two_rho(index), columns):
            if c:
                values = list(map(add, values, map(mul, column, repeat(c))))
        top = max(values)
        if best is None or top > best:
            best, argmax = top, []
        if top == best:
            argmax += [(index, v) for v, x in zip(orbit, values) if x == top]
    return best, argmax
