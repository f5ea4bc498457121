"""Canonical reductions of torus-split principal bundles and HN types.

Both characterizations are implemented: the filtration route (hn_type,
the slopes of the HN filtration of a bundle) and the degree route
(canonical_reduction, with the Levi-semistability and dominant-character
conditions of check_bh); tests/test_canon.py checks them against each
other on split bundles, and a brute-force degree-maximization oracle
checks the degree route.  The oracle scores every (parabolic, Weyl
point) pair exactly, packing each orbit's coordinate columns into Python
ints, one lane per orbit point, so that one parabolic scores the whole
orbit in one multiply-add per nonzero coordinate of 2rho_P; its answer
depends only on the orbit, so it is cached by the dominant point.

The canonical reduction is a value fixed by its HN type, the dominant
point of the orbit, and it labels the HN stratum of that type (strata):
its family and forced index are read off the type, with no root table,
at every rank.  The index, the dominance of the type and the Levi test
of the BH conditions read only the signs of the simple-root pairings,
each decided by comparing two coordinates.  For small families the
reduction is built once per (family, dominant point) and cached, apart
from the oracle's cache.  Its BH conditions ride on the object,
computed on first read; every call still checks its input, the family
and the orbit.
"""

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

from .bundle import IsotropicBundle, SlBundle
from .errors import FamilyMismatch, InvalidReduction, TooLarge
from .hnfilt import hn_filtration, hn_filtration_isotropic
from .parabolic import ParabolicIndex, _generator_terms, _two_rho_terms
from .rootsys import (GL, SL, GroupFamily, _point, _simple_root_signs,
                      as_cocharacter, dominant_representative, evaluate,
                      positive_root_count, simple_root_count,
                      weyl_orbit, weyl_orbit_size)

# The oracle's work, 2^count x ((count + 1) |W.a| + |Phi+|) with count the
# number of simple roots: a pass over the orbit per term for each of the
# 2^count parabolics, at most count + 1 terms each, and their table, which
# reads every positive root.  The limit is the work at a regular Sp10 or
# SO11 point.
ORACLE_WORK_GUARD = 32 * (6 * 3840 + 25)

# the width in bits of the oracle's signed lanes, array typecode "q"
_WIDTH = array("q").itemsize * 8

# The reduction cache keeps the 79 families of cartan_dim at most
# CACHED_DIM; a larger reduction, whose type, 2rho_P and BH degrees are as
# long as its cartan_dim, is built afresh on each call.
CACHED_DIM = 16

# the coordinate types an HNType keeps unconverted
_EXACT = frozenset({int, Fraction})


@dataclass(frozen=True)
class HNType:
    """Dominant rational Cartan vector of slopes.

    An int or Fraction coordinate is kept as it is and any other (a bool
    included) becomes a Fraction: the canonical reduction of a cocharacter
    is a signed permutation of its ints, so the checks that read it run on
    ints, while a type read off bundle slopes holds the slopes' own
    Fractions.  Both compare and hash alike, since 1 == Fraction(1) with
    the same hash.  Dominance is read off the signs of the simple-root
    pairings, each decided by comparing two coordinates, kept as the tuple
    signs (not a field) that the reduction reads its index off.
    """

    family: GroupFamily
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(
            c if type(c) in _EXACT else Fraction(c) for c in self.mu))
        # not a field, like GroupFamily.cartan_dim; an explicit raise, not
        # assert, so that python -O keeps the check
        object.__setattr__(self, "signs", tuple(_simple_root_signs(self.family, self.mu)))
        if -1 in self.signs:
            raise ValueError(f"HN type ({', '.join(map(str, self.mu))}) is not "
                             f"dominant for {self.family}")


@dataclass(frozen=True)
class CanonicalReduction:
    """The reduction to the parabolic P_I that its HN type forces, I the
    simple roots positive on the type: the type is its one field, and the
    family and the index are read off it."""

    mu: HNType
    index: ParabolicIndex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "index", _positive_index(self.family, self.mu.signs))

    @property
    def family(self) -> GroupFamily:
        return self.mu.family

    @cached_property
    def _bh(self):
        """(levi_semistable, char_degrees as a tuple) at the reduction
        point, kept on this object: the cached reduction of an orbit keeps
        its answer, and a reduction at a Fraction point keeps its own."""
        levi_ss, degrees = bh_conditions(self.family, self.index, self.mu.mu)
        return levi_ss, tuple(degrees)


def _positive_index(family: GroupFamily, signs) -> ParabolicIndex:
    """The index of the simple roots whose sign in signs is positive."""
    return ParabolicIndex(family, frozenset(i for i, x in enumerate(signs) if x > 0))


def canonical_reduction(family: GroupFamily, a) -> CanonicalReduction:
    """The canonical parabolic reduction of the torus-split bundle with
    degree vector a, reported at its dominant representative.

    It depends only on the Weyl orbit of a, so it is built once per
    (family, dominant point) and shared: every field is frozen."""
    a = as_cocharacter(family, a)
    mu = dominant_representative(family, a)
    if len(mu) <= CACHED_DIM:
        return _reduction_of_orbit(family, mu)
    return stratum_label(family, mu)


def stratum_label(family: GroupFamily, mu) -> CanonicalReduction:
    """The canonical reduction of a dominant type mu: its stratum label."""
    return CanonicalReduction(HNType(family, mu))


# keyed by the dominant point, like _oracle_of_orbit, for cartan_dim <=
# CACHED_DIM: an entry holds the type, its index and, once read, its BH
# answer and 2rho_P, each at most 16 numbers.  The grids of a canon_oracle
# benchmark run hold 247 orbits, so 256 evicts nothing.
_reduction_of_orbit = lru_cache(maxsize=256)(stratum_label)


def hn_type(b) -> HNType:
    """Dominant slope vector of the HN filtration of b."""
    if isinstance(b, IsotropicBundle):
        family = GroupFamily(b.kind, b.rank)
        quotients = hn_filtration_isotropic(b).quotients
    else:
        family = GroupFamily(SL if isinstance(b, SlBundle) else GL, b.rank)
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
    the index against it (all positive for a canonical reduction).  The
    answer is computed once per reduction object and kept on it
    (CanonicalReduction._bh), and each call returns a fresh list.

    Checks a, then the reduction's length (ValueError), family
    (FamilyMismatch) and orbit, against its type, dominant by construction.
    """
    a = as_cocharacter(family, a)
    mu = _point(family, red.mu.mu)
    if red.family != family:
        raise FamilyMismatch("reduction belongs to a different family")
    if dominant_representative(family, a) != mu:
        raise InvalidReduction("reduction point is not in the Weyl orbit of a")
    levi_ss, degrees = red._bh
    return levi_ss, list(degrees)


def bh_conditions(family: GroupFamily, index: ParabolicIndex, v):
    """The two conditions at an arbitrary reduction point v (possibly a
    non-dominant Weyl translate).  The degrees <chi, v> come from one
    prefix-sum pass over v; one Fraction entry makes them all Fractions,
    as it does the pairing."""
    v = _point(family, v, index)
    levi_ss = all(x == 0 for i, x in enumerate(_simple_root_signs(family, v))
                  if i not in index.members)
    if not index.members:
        return levi_ss, []
    s = list(accumulate(v, initial=0))
    zero = 0 * s[-1]
    return levi_ss, [sum(c * s[j] for j, c in _generator_terms(family, i + 1))
                     + zero for i in sorted(index.members)]


def ad_degree(family: GroupFamily, index: ParabolicIndex, v) -> int:
    """Degree of the adjoint bundle of the reduction to P_I at point v.

    The parabolic roots are the Levi roots and the nilradical roots, and the
    degree is the sum of their values at v.  The Levi roots are closed under
    negation, so their values cancel in pairs and the degree is <2rho_P, v>,
    where 2rho_P is the sum of the nilradical roots.
    """
    v = _point(family, v, index)
    return evaluate(index._two_rho, v)


def ad_degree_max_oracle(family: GroupFamily, a):
    """Exhaustive maximum of ad_degree over all (index, Weyl point) pairs,
    with the argmax pairs: indices in the order of their bit masks, points
    in orbit order.

    Every pair is scored exactly, with no pruning and no use of the
    closed-form canonical reduction it checks.  The adjoint degree
    <2rho_P, v> = sum lambda_k v_k is linear in v, so each index scores
    the whole orbit at once: each coordinate column v_k is one Python int
    with a lane per orbit point (_packed_orbit), so an index costs one
    big-int multiply-add per nonzero lambda_k of 2rho_P
    (parabolic._two_rho_terms), then one read of the lanes and their max;
    the lanes of the indices that attain the overall max are scanned for
    the argmax.

    The pairs range over W.a, so the answer depends only on the orbit:
    it is computed once per (family, dominant point) and cached
    (_oracle_of_orbit), and every call returns a fresh argmax list.

    Refuses an input whose work exceeds ORACLE_WORK_GUARD, or whose
    scores need lanes wider than 64 bits, before it builds the orbit or
    the table of 2rho_P terms: both guards read only the family and the
    dominant point.
    """
    a = as_cocharacter(family, a)
    best, argmax = _oracle_of_orbit(family, dominant_representative(family, a))
    return best, list(argmax)


# keyed by the dominant point, like the orbit cache.  The answer holds only
# best and the attaining pairs (853 pairs over the 247 orbits of the grids
# of the canon_oracle benchmark, at most 4,096 at the GL13 and Sp24 zero
# points), no orbit columns.  A run of that benchmark visits 212-218 of
# those orbits (seeds 1-3), so 256 holds them all and evicts nothing.
@lru_cache(maxsize=256)
def _oracle_of_orbit(family: GroupFamily, dominant):
    """(best, argmax as a tuple) of ad_degree_max_oracle on the orbit of a
    dominant point."""
    orbit, nbytes, half, bias, columns = _packed_orbit(family, dominant)
    table = _two_rho_terms(family)
    scores = []
    for _, terms in table:
        total = bias
        for k, c in terms:
            total += c * columns[k]
        scores.append(memoryview(total.to_bytes(nbytes, sys.byteorder)).cast(
            "Q").tolist())
    tops = list(map(max, scores))
    best = max(tops)
    # the attaining points of each attaining parabolic, found by list.count
    # and list.index rather than a comparison per orbit point in Python
    argmax = []
    for (index, _), top, values in zip(table, tops, scores):
        if top == best:
            i = -1
            for _ in range(values.count(best)):
                i = values.index(best, i + 1)
                argmax.append((index, orbit[i]))
    return best - half, tuple(argmax)


def _packed_orbit(family: GroupFamily, dominant):
    """(orbit, byte length, half lane, bias, packed columns) of the orbit
    of a dominant point, for the adjoint-degree oracle.

    Each root has l1 norm at most 2, and W only permutes the coordinates
    and changes their signs, so B = max(1, 2|Phi+|) * max |a_i| bounds
    every score <2rho_P, v> and every coordinate of the orbit.  The lanes
    are 64 bits wide, w = 64, and B < 2^(w-1) is required.  Column k is
    sum_j v_jk 2^(wj), v_j the j-th orbit point, a signed sum of lanes,
    and the bias puts 2^(w-1) in every lane, so that
    bias + sum lambda_k col_k holds each score plus 2^(w-1) in [0, 2^w) in
    its own lane: its bytes read as unsigned lanes in orbit order.  The
    work guard and the lane guard read only the family and the dominant
    point.  Not cached: _oracle_of_orbit calls it once per orbit and keeps
    only the answer.
    """
    count = simple_root_count(family)
    roots = positive_root_count(family)
    # an orbit has at least one point, so a family over the guard at its
    # zero point is refused before weyl_orbit_size reads the point; a count
    # over the guard is refused whatever its value, so it stops there
    size = 1 if (count + 1 + roots) << count > ORACLE_WORK_GUARD else \
        weyl_orbit_size(family, dominant, limit=ORACLE_WORK_GUARD)
    if ((count + 1) * size + roots) << count > ORACLE_WORK_GUARD:
        raise TooLarge("enumeration guard exceeded")
    bound = max(1, 2 * roots) * max(map(abs, dominant))
    half = 1 << _WIDTH - 1
    if bound >= half:
        raise TooLarge("enumeration guard exceeded")
    orbit = weyl_orbit(family, dominant)
    ones = int.from_bytes(array("q", [1]) * len(orbit), sys.byteorder)
    columns = []
    for column in zip(*orbit):
        # the lanes as unsigned, less 2^w in each lane whose sign bit is set
        u = int.from_bytes(array("q", column), sys.byteorder)
        columns.append(u - ((u >> _WIDTH - 1 & ones) << _WIDTH))
    return orbit, len(orbit) * _WIDTH // 8, half, half * ones, tuple(columns)
