"""Canonical reductions of torus-split principal bundles and HN types.

Both characterizations are implemented: the filtration route (the
reduction whose adjoint data is the perp of the top isotropic step) and
the Levi-semistability plus dominant-character route, together with a
brute-force degree-maximization oracle that checks them against each
other.  The oracle scores every (parabolic, Weyl point) pair exactly; it
packs each orbit's prefix-sum columns into Python ints, one fixed-width
lane per orbit point, so that one parabolic scores the whole orbit in one
multiply-add per term.  Its answer depends only on the Weyl orbit, so it
is computed once per orbit and cached by the dominant point.

The canonical reduction depends only on the HN type, the dominant point
of the orbit, so it too is built once per (family, dominant point) and
cached, apart from the oracle's cache and unread by it.  Its BH
conditions ride on the reduction object itself, computed on first read;
every call still checks its input and the orbit.
"""

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

from .bundle import IsotropicBundle, SlBundle, underlying
from .errors import InvalidReduction, TooLarge
from .hnfilt import hn_filtration, hn_filtration_isotropic
from .parabolic import (CACHED_DIM, ParabolicIndex, _two_rho_terms,
                        character_generators)
from .rootsys import (GL, SL, GroupFamily, _point, _simple_root_values,
                      as_cocharacter, dominant_representative, evaluate,
                      is_dominant, positive_root_count, simple_root_count,
                      weyl_orbit, weyl_orbit_size)

# The oracle's work, 2^count x ((count + 1) |W.a| + |Phi+|) with count the
# number of simple roots: a pass over the orbit per term for each of the
# 2^count parabolics, at most count + 1 terms each, and their table, which
# reads every positive root.  The limit is the work at a regular Sp10 or
# SO11 point, the largest input of the former cartan_dim <= 5 guard.
ORACLE_WORK_GUARD = 32 * (6 * 3840 + 25)

# (lane width in bits, array typecode) of the signed lanes, narrowest first
_LANES = tuple((array(t).itemsize * 8, t) for t in "hiq")


@dataclass(frozen=True)
class HNType:
    """Dominant rational Cartan vector of slopes.

    An int coordinate stays an int and any other (a bool included) becomes
    a Fraction: the canonical reduction of a cocharacter is a signed
    permutation of its ints, so the checks that read it run on ints, while
    a type read off bundle slopes holds Fractions.  Both compare and hash
    alike, since 1 == Fraction(1) with the same hash.
    """

    family: GroupFamily
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(
            c if type(c) is int else Fraction(c) for c in self.mu))
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

    @cached_property
    def _bh(self):
        """(levi_semistable, char_degrees as a tuple) at the reduction
        point, kept on this object: the cached reduction of an orbit keeps
        its answer, and a reduction at a Fraction point keeps its own."""
        levi_ss, degrees = bh_conditions(self.index.family, self.index, self.mu.mu)
        return levi_ss, tuple(degrees)


def forced_index(family: GroupFamily, mu) -> ParabolicIndex:
    """The parabolic index a dominant vector determines: simple roots
    taking a positive value on it."""
    members = frozenset(i for i, x in enumerate(_simple_root_values(family, mu))
                        if x > 0)
    return ParabolicIndex(family, members)


def canonical_reduction(family: GroupFamily, a) -> CanonicalReduction:
    """The canonical parabolic reduction of the torus-split bundle with
    degree vector a, reported at its dominant representative.

    It depends only on the Weyl orbit of a, so it is built once per
    (family, dominant point) and shared: every field is frozen."""
    a = as_cocharacter(family, a)
    mu = dominant_representative(family, a)
    if len(mu) <= CACHED_DIM:
        return _reduction_of_orbit(family, mu)
    return _build_reduction(family, mu)


def _build_reduction(family: GroupFamily, mu) -> CanonicalReduction:
    index = forced_index(family, mu)
    # mu is dominant, so the roots positive at mu are the nilradical roots
    # of its forced index and the roots vanishing at mu are the Levi roots
    levi, nilrad = index._split
    return CanonicalReduction(family, index, HNType(family, mu),
                              frozenset(nilrad), frozenset(levi + nilrad))


# keyed by the dominant point, like _oracle_of_orbit, for families of
# cartan_dim <= CACHED_DIM: an entry holds two root sets of at most 3 x 256
# roots (Sp32) and its index's root split, two tuples of the same roots,
# whose roots the cached root table keeps anyway, and once read, its BH
# answer (a flag and at most 16 degrees) and its index's 2rho_P.  The
# grids of a canon_oracle benchmark run hold 247 orbits, so 256 evicts
# nothing.
_reduction_of_orbit = lru_cache(maxsize=256)(_build_reduction)


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
    the index against it (all positive for a canonical reduction).  The
    answer is computed once per reduction object and kept on it
    (CanonicalReduction._bh), and each call returns a fresh list.
    """
    a = as_cocharacter(family, a)
    mu = red.mu.mu
    if tuple(dominant_representative(family, a)) != tuple(
            dominant_representative(family, mu)):
        raise InvalidReduction("reduction point is not in the Weyl orbit of a")
    _point(family, index=red.index)
    levi_ss, degrees = red._bh
    return levi_ss, list(degrees)


def bh_conditions(family: GroupFamily, index: ParabolicIndex, v):
    """The two conditions at an arbitrary reduction point v (possibly a
    non-dominant Weyl translate)."""
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
    return evaluate(index._two_rho, v)


def ad_degree_max_oracle(family: GroupFamily, a):
    """Exhaustive maximum of ad_degree over all (index, Weyl point) pairs,
    with the argmax pairs: indices in the order of their bit masks, points
    in orbit order.

    Every pair is scored exactly, with no pruning and no use of the
    closed-form canonical reduction it checks.  The adjoint degree
    <2rho_P, v> is linear in v, so each index scores the whole orbit at
    once, in the basis of prefix sums: by Abel summation it is
    sum c_k s_k(v), with s_k(v) = v_0 + ... + v_k and c_k the per-family
    terms of 2rho_P (parabolic._two_rho_terms), which sit only on the
    members of the index and the last position.  Each column s_k is one
    Python int with a lane per orbit point (_packed_orbit), so an index
    costs one big-int multiply-add per term, then one read of the lanes
    and their max; the lanes of the indices that attain the overall max
    are scanned for the argmax.

    The pairs range over W.a, so the answer depends only on the orbit:
    it is computed once per (family, dominant point) and cached
    (_oracle_of_orbit), and every call returns a fresh argmax list.

    Refuses an input whose work exceeds ORACLE_WORK_GUARD before it builds
    the orbit or the table of terms, and one whose scores need lanes wider
    than 64 bits before it builds the orbit.  The lane bound is read off
    the table, whose build the work guard counts.
    """
    a = as_cocharacter(family, a)
    best, argmax = _oracle_of_orbit(family, dominant_representative(family, a))
    return best, list(argmax)


# keyed by the dominant point, like the orbit cache.  The answer holds only
# best and the attaining pairs (853 pairs over the 247 keys of seed 1, at
# most 4,096 at the GL13 and Sp24 zero points), no orbit columns.  A
# canon_oracle benchmark run asks for 247 distinct keys whatever its seed,
# which only shuffles the points of [-2,2]^dim, so 256 holds them all and
# evicts nothing.
@lru_cache(maxsize=256)
def _oracle_of_orbit(family: GroupFamily, dominant):
    """(best, argmax as a tuple) of ad_degree_max_oracle on the orbit of a
    dominant point."""
    orbit, lanes, nbytes, half, bias, columns = _packed_orbit(family, dominant)
    table, _ = _two_rho_terms(family)
    scores = []
    for _, terms in table:
        total = bias
        for k, c in terms:
            total += c * columns[k]
        scores.append(memoryview(total.to_bytes(nbytes, sys.byteorder)).cast(
            lanes).tolist())
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
    """(orbit, lane format, byte length, half lane, bias, packed columns) of
    the orbit of a dominant point, for the adjoint-degree oracle.

    The bound B = max(1, max_I sum |c_k|) * sum |a_i| covers every score
    sum c_k s_k(v) and every column entry, since |s_k(v)| <= sum |a_i|;
    max_I sum |c_k| is the weight stored with the table of terms.
    The lanes are the narrowest of 16, 32 and 64 bits with B < 2^(w-1).
    Column k is sum_j s_k(v_j) 2^(wj), a signed sum of lanes, and the bias
    puts 2^(w-1) in every lane, so that bias + sum c_k col_k holds each
    score plus 2^(w-1) in [0, 2^w) in its own lane: its bytes read as
    unsigned lanes in orbit order.  The work guard reads only the
    dominant point, and the lane guard the table it admits.  Not cached:
    _oracle_of_orbit calls it once per orbit and keeps only the answer.
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
    _, weight = _two_rho_terms(family)
    bound = max(1, weight) * sum(map(abs, dominant))
    lane = next((lane for lane in _LANES if bound < 1 << lane[0] - 1), None)
    if lane is None:
        raise TooLarge("enumeration guard exceeded")
    width, typecode = lane
    orbit = weyl_orbit(family, dominant)
    ones = int.from_bytes(array(typecode, [1]) * len(orbit), sys.byteorder)
    columns = []
    prefix = [0] * len(orbit)
    for column in zip(*orbit):
        prefix = list(map(add, prefix, column))
        # the lanes as unsigned, less 2^w in each lane whose sign bit is set
        u = int.from_bytes(array(typecode, prefix), sys.byteorder)
        columns.append(u - ((u >> width - 1 & ones) << width))
    half = 1 << width - 1
    return (orbit, typecode.upper(), len(orbit) * width // 8, half,
            half * ones, tuple(columns))
