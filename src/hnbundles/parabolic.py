"""Standard parabolic subgroups P_I as subsets of simple roots.

Covers the flag correspondence, the Levi/nilradical root split,
containment order, and characters of P_I represented by their
differentials (integer functionals on Cartan coordinates).  The root
split and the character generators are closed forms read off the
simple-root coordinates; the tests keep a solve, an integer-kernel route
and the diagonal Levi blocks as oracles.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .errors import (FamilyMismatch, InvalidFlag, NotACharacter,
                     NothingToGenerate, TooLarge)
from .rootsys import (GL, SL, SO, SP, GroupFamily, _point,
                      _simple_root_values, all_roots, positive_root_count,
                      root_name, simple_root_coordinates, simple_root_count)

# The root table of _root_supports lists 2|Phi+| roots of cartan_dim
# entries each.  The limit is that count at GL160, whose table builds in
# about 1 s (Python 3.11, one core of a 2-vCPU Xeon VM) and holds about
# 50 MB; GL161 is refused.  Sp252 and SO254 sit just under it.
ROOT_TABLE_GUARD = 2 * (160 * 159 // 2) * 160

# The per-family caches (the root table, and canon's reduction per orbit)
# keep families of cartan_dim at most CACHED_DIM only: 79 families, whose
# tables hold 2.6 MB all together.  A larger table, up to ROOT_TABLE_GUARD,
# is kept alone, the last one built; no reduction of it is cached, since
# each entry would keep its roots.
CACHED_DIM = 16


@dataclass(frozen=True)
class ParabolicIndex:
    """Subset I of simple-root indices: empty = G itself, full = Borel."""

    family: GroupFamily
    members: frozenset

    def __post_init__(self):
        # a frozenset, so that the index hashes by value
        object.__setattr__(self, "members", frozenset(self.members))
        count = simple_root_count(self.family)
        if not all(0 <= i < count for i in self.members):
            raise ValueError("parabolic index out of range")

    def names(self):
        return [root_name(self.family, i) for i in sorted(self.members)]

    @cached_property
    def _split(self):
        """_root_split of this index, kept on it: the filter over the
        family's root table runs once per index."""
        return _root_split(self)

    @cached_property
    def _two_rho(self):
        """2rho_P, the sum of the nilradical roots of P_I, as a functional,
        kept on this index.  It reads the split if the index keeps one and
        otherwise filters without keeping it, so that the 2^count indexes
        of _two_rho_terms hold 2rho_P alone."""
        _, nilrad = vars(self).get("_split") or _root_split(self)
        return tuple(sum(a[t] for a in nilrad) for t in range(self.family.cartan_dim))


def parabolic_from_flag(family: GroupFamily, flag_ranks) -> ParabolicIndex:
    """Index of the standard parabolic stabilizing a flag of the given ranks.

    Ranks are subbundle ranks: < r for GL/SL, <= n (isotropic) for Sp/SO.
    The SO-even ranks n-1 and n hit the two special simple roots.
    """
    ranks = list(flag_ranks)
    if ranks != sorted(set(ranks)) or any(l < 1 for l in ranks):
        raise InvalidFlag(f"flag ranks must be strictly increasing positive: {ranks}")
    members = set()
    if family.kind in (GL, SL):
        if any(l >= family.r for l in ranks):
            raise InvalidFlag(f"GL/SL flag ranks must be < {family.r}")
        members.update(l - 1 for l in ranks)
        return ParabolicIndex(family, frozenset(members))
    family.require_root_system()
    n = family.cartan_dim
    if any(l > n for l in ranks):
        raise InvalidFlag(f"isotropic ranks must be <= {n}")
    for l in ranks:
        if family.kind == SP or family.r % 2 == 1:
            members.add(l - 1 if l < n else n - 1)
        elif l == n - 1:
            members.update({n - 2, n - 1})
        elif l == n:
            members.add(n - 1)
        else:
            members.add(l - 1)
    return ParabolicIndex(family, frozenset(members))


def _root_supports(family: GroupFamily):
    """(root, support, positive) for each root in all_roots order, where
    support is the bitmask of the simple roots with a nonzero coefficient
    in the root's expansion; the coefficients share one sign.  Refuses a
    table of more than ROOT_TABLE_GUARD entries before building it."""
    if 2 * positive_root_count(family) * family.cartan_dim > ROOT_TABLE_GUARD:
        raise TooLarge("enumeration guard exceeded")
    if family.cartan_dim <= CACHED_DIM:
        return _cached_supports(family)
    return _large_supports(family)


def _build_supports(family: GroupFamily):
    out = []
    for a in all_roots(family):
        coords = simple_root_coordinates(family, a)
        out.append((a, sum(1 << i for i, c in enumerate(coords) if c),
                    any(c > 0 for c in coords)))
    return tuple(out)


# the 79 families of cartan_dim <= CACHED_DIM fit, and one larger table
_cached_supports = lru_cache(maxsize=128)(_build_supports)
_large_supports = lru_cache(maxsize=1)(_build_supports)


def _root_split(index: ParabolicIndex):
    """(Levi roots, nilradical roots) of P_I, both in all_roots order.

    The Levi roots are the roots whose support misses I, and the nilradical
    roots are the positive roots whose support meets I: one pass over the
    family's root table.
    """
    mask = sum(1 << i for i in index.members)
    supports = _root_supports(index.family)
    return (tuple(a for a, support, _ in supports if not support & mask),
            tuple(a for a, support, positive in supports
                  if positive and support & mask))


@lru_cache(maxsize=128)
def _two_rho_terms(family: GroupFamily):
    """(table, weight) for the family.  The table holds (index, terms) for
    every parabolic index, in the order of its bit mask, where terms are
    the nonzero (k, c_k) of 2rho_P in the basis of prefix sums:
    c_k = lambda_k - lambda_(k+1) for k < n - 1 and c_(n-1) = lambda_(n-1),
    with lambda = 2rho_P, so that by Abel summation
    <lambda, v> = sum c_k (v_0 + ... + v_k).  For k < n - 1, c_k pairs
    2rho_P with the coroot of the k-th simple root, which vanishes off I
    since 2rho_P is a character of P_I: only the members of I and the last
    position carry terms.  The weight is the largest sum of |c_k| over one
    index, which bounds the adjoint-degree oracle's lanes."""
    count = simple_root_count(family)
    out = []
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        lam = index._two_rho
        steps = [x - y for x, y in zip(lam, lam[1:])] + [lam[-1]]
        out.append((index, tuple((k, c) for k, c in enumerate(steps) if c)))
    return tuple(out), max(sum(abs(c) for _, c in terms) for _, terms in out)


def parabolic_leq(a: ParabolicIndex, b: ParabolicIndex) -> bool:
    """P_a contained in P_b: larger index set means smaller parabolic."""
    if a.family != b.family:
        raise FamilyMismatch("cannot compare parabolics of different families")
    return a.members >= b.members


def is_dominant_character(family: GroupFamily, index: ParabolicIndex, dchi):
    """Decide dominance of a character differential of P_I.

    Requires dchi to vanish on the coroots of the simple roots outside I
    (so it really is a character of the parabolic).  Returns (flag, coeffs)
    where coeffs is the exact decomposition over the simple roots, or None
    when dchi does not lie in their rational span.
    """
    dchi = _point(family, dchi, index)
    # a coroot is a positive multiple of its root, so dchi vanishes on the
    # coroot of alpha_i exactly when <alpha_i, dchi> = 0
    for i, x in enumerate(_simple_root_values(family, dchi)):
        if i not in index.members and x:
            raise NotACharacter(
                f"functional does not vanish on the coroot of {root_name(family, i)}")
    if not any(dchi):
        raise NotACharacter("the zero functional is not a character")
    coeffs = simple_root_coordinates(family, dchi)
    if coeffs is None:
        return False, None
    ok = all(c.denominator == 1 and c >= 0 for c in coeffs)
    return ok, coeffs


def _generator(family: GroupFamily, k: int):
    """The generator of the k-th simple root (1-based): its fundamental
    weight, scaled to the least multiple that is integral with integral
    simple-root coordinates (Bourbaki, Lie Groups and Lie Algebras ch. VI,
    Plates I-IV)."""
    n = family.cartan_dim
    if family.kind in (GL, SL):
        g = gcd(k, n)
        return ((n - k) // g,) * k + (-(k // g),) * (n - k)
    if family.kind == SO and family.r % 2 == 0 and k >= n - 1:
        # the two fork roots of D_n: (1/2, ..., 1/2, -1/2) and (1/2, ..., 1/2)
        c = 2 if n % 2 else 1
        return (c,) * (n - 1) + (c if k == n else -c,)
    # the simple-root coordinates of 1_k end in k/2 for Sp and even SO
    c = 2 if k % 2 and family.r % 2 == 0 else 1
    return (c,) * k + (0,) * (n - k)


def character_generators(family: GroupFamily, index: ParabolicIndex):
    """One character differential per member of I, in member order.

    The generator for alpha pairs to zero with the coroot of every other
    simple root and positively with the coroot of alpha: it is the least
    positive multiple of the fundamental weight of alpha that is integral
    with integral coordinates over the simple roots.
    """
    _point(family, index=index)
    if not index.members:
        raise NothingToGenerate("empty parabolic index has no generators")
    return [_generator(family, i + 1) for i in sorted(index.members)]
