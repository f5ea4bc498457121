"""Standard parabolic subgroups P_I as subsets of simple roots.

Covers the flag correspondence, containment order, the Levi blocks of
P_I and the adjoint data read off them (2rho_P, the Levi root count),
and characters of P_I represented by their differentials (integer
functionals on Cartan coordinates), all in closed form in the family's
Cartan type, never its kind; the tests keep the root table, a solve, an
integer-kernel route and the diagonal Levi blocks as oracles.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd

from .errors import (FamilyMismatch, InvalidFlag, NotACharacter,
                     NothingToGenerate)
from .rootsys import (A, B, C, D, GroupFamily, _point, _simple_root_signs,
                      root_name, simple_root_coordinates, simple_root_count)


@dataclass(frozen=True)
class ParabolicIndex:
    """Subset I of simple-root indices: empty = G itself, full = Borel."""

    family: GroupFamily
    members: frozenset

    def __post_init__(self):
        # a frozenset, so that the index hashes by value
        object.__setattr__(self, "members", frozenset(self.members))
        count = simple_root_count(self.family)
        if not all(type(i) is int and 0 <= i < count for i in self.members):
            # exactly int: 1.0 and True equal 1, but 1.0 would name its root
            # a2.0,3.0; the success path stays the one pass above
            for i in self.members:
                if type(i) is not int:
                    raise ValueError(f"parabolic index members must be ints, got {i!r}")
            raise ValueError("parabolic index out of range")

    def names(self):
        return [root_name(self.family, i) for i in sorted(self.members)]

    @cached_property
    def _two_rho(self):
        """2rho_P, the sum of the nilradical roots of P_I, as a functional,
        kept on this index: 2rho_G less 2rho_L, in closed form from the
        Levi blocks.  On a GL block [lo, hi) each coordinate is
        (n - hi) - lo plus the offset of 2rho_G on the family's plate: 0 on
        A_(n-1), n on B_n, n + 1 on C_n and n - 1 on D_n.  The classical
        tail reads 0, and on the D_n fork the last entry is negated."""
        n = self.family.cartan_dim
        shift = {A: 0, B: n, C: n + 1, D: n - 1}[self.family.cartan_type]
        runs, fork, tail = _levi_blocks(self)
        out = [n + shift - hi - lo for lo, hi in runs for _ in range(lo, hi)]
        out += [0] * tail
        if fork:
            out[-1] = -out[-1]
        return tuple(out)


def _levi_blocks(index: ParabolicIndex):
    """(runs, fork, tail) of the Levi factor L_I, read off I with no root
    table.  Each simple root e_i - e_(i+1) outside I ties x_(i+1) to x_i,
    and the runs are the (lo, hi) bounds of the tied coordinates: the GL
    blocks of L_I, in order.  On the D_n fork, e_(n-1) - e_n in I and
    e_(n-1) + e_n outside it, x_n joins the block of x_(n-1) negated.  The
    tail is the count of the last coordinates that L_I keeps as a factor of
    the family's own type B, C or D, which it does when the last simple
    root lies outside I off the fork; it is 0 otherwise, and the runs stop
    where it starts."""
    members, t = index.members, index.family.cartan_type
    n = index.family.cartan_dim
    fork = t == D and n - 2 in members and n - 1 not in members
    bounds = [0] + sorted(i + 1 for i in members
                          if i < n - 1 and not (fork and i == n - 2))
    tail = n - bounds[-1] if t != A and n - 1 not in members and not fork else 0
    if not tail:
        bounds.append(n)
    return tuple(zip(bounds, bounds[1:])), fork, tail


def _levi_positive_count(index: ParabolicIndex) -> int:
    """|Phi+_L|, the positive roots of the Levi factor L_I: m(m - 1)/2 for
    each GL block of m coordinates, plus m^2 (B, C) or m(m - 1) (D) for a
    classical tail of m.  The nilradical of P_I has
    |Phi+| - |Phi+_L| roots, and P_I has dimension
    |Phi+| + |Phi+_L| + torus_dim."""
    runs, _, tail = _levi_blocks(index)
    return sum((hi - lo) * (hi - lo - 1) // 2 for lo, hi in runs) + \
        tail * (tail - (index.family.cartan_type == D))


def parabolic_from_flag(family: GroupFamily, flag_ranks) -> ParabolicIndex:
    """Index of the standard parabolic stabilizing a flag of the given ranks.

    Ranks are subbundle ranks: < r on type A, <= n (isotropic) on B, C
    and D.  On D_n the ranks n-1 and n hit the two fork roots.
    """
    ranks = list(flag_ranks)
    if ranks != sorted(set(ranks)) or any(l < 1 for l in ranks):
        raise InvalidFlag(f"flag ranks must be strictly increasing positive: {ranks}")
    members = set()
    if family.cartan_type == A:
        if any(l >= family.r for l in ranks):
            raise InvalidFlag(f"GL/SL flag ranks must be < {family.r}")
        members.update(l - 1 for l in ranks)
        return ParabolicIndex(family, frozenset(members))
    n = family.cartan_dim
    if any(l > n for l in ranks):
        raise InvalidFlag(f"isotropic ranks must be <= {n}")
    for l in ranks:
        if family.cartan_type != D:
            members.add(l - 1)
        elif l == n - 1:
            members.update({n - 2, n - 1})
        elif l == n:
            members.add(n - 1)
        else:
            members.add(l - 1)
    return ParabolicIndex(family, frozenset(members))


@lru_cache(maxsize=128)
def _two_rho_terms(family: GroupFamily):
    """(index, terms) for every parabolic index of the family, in the
    order of its bit mask, where terms are the nonzero (k, lambda_k) of
    lambda = 2rho_P (ParabolicIndex._two_rho), so that
    <lambda, v> = sum lambda_k v_k."""
    count = simple_root_count(family)
    out = []
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        out.append((index, tuple((k, c) for k, c in enumerate(index._two_rho)
                                 if c)))
    return tuple(out)


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
    for i, x in enumerate(_simple_root_signs(family, dchi)):
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


def _generator_terms(family: GroupFamily, k: int):
    """The generator chi of the k-th simple root (1-based) in the basis of
    prefix sums: the (j, c) with <chi, v> = sum c S_j(v), where
    S_j(v) = v_1 + ... + v_j, so that the degrees of all the generators at
    a point cost one prefix-sum pass.  With g = gcd(k, n):
      A: (n S_k - k S_n) / g;
      B, C, D off the fork: c S_k, c = 2 for odd k on C and D, else 1;
      the D_n fork roots k = n - 1 and k = n: c (S_(n-1) -+ v_n), c = 2 for
      odd n, else 1.
    chi is the fundamental weight of the root, scaled to the least multiple
    that is integral with integral simple-root coordinates (Bourbaki, Lie
    Groups and Lie Algebras ch. VI, Plates I-IV)."""
    n, t = family.cartan_dim, family.cartan_type
    if t == A:
        g = gcd(k, n)
        return (k, n // g), (n, -(k // g))
    if t == D and k >= n - 1:
        # the fork weights (1/2, ..., 1/2, -+1/2): S_(n-1) - v_n = 2 S_(n-1) - S_n
        c = 2 if n % 2 else 1
        return ((n - 1, 2 * c), (n, -c)) if k == n - 1 else ((n, c),)
    # the simple-root coordinates of 1_k end in k/2 on C and D
    return ((k, 2 if k % 2 and t != B else 1),)


def character_generators(family: GroupFamily, index: ParabolicIndex):
    """One character differential per member of I, in member order.

    The generator for alpha pairs to zero with the coroot of every other
    simple root and positively with the coroot of alpha: it is the least
    positive multiple of the fundamental weight of alpha that is integral
    with integral coordinates over the simple roots.  By Abel summation
    its coordinate t sums its prefix-sum terms at the positions j > t.
    """
    _point(family, index=index)
    if not index.members:
        raise NothingToGenerate("empty parabolic index has no generators")
    out = []
    for i in sorted(index.members):
        steps = [0] * (family.cartan_dim + 1)
        for j, c in _generator_terms(family, i + 1):
            steps[j] += c
        out.append(tuple(accumulate(steps[:0:-1]))[::-1])
    return out
