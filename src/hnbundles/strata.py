"""Harder-Narasimhan stratification poset.

Labels are canonical reductions (canon.CanonicalReduction), a dominant
type with the parabolic index it forces.  The order combines parabolic
containment with Weyl-orbit convex-hull membership, decided by
Kostant's convexity theorem as a sign test on one W-invariant key per
point, the integer order key of its dominant representative, read in one
pass, with no orbit and no solve.
enumerate_strata lists the dominant labels directly, not by a walk over
the box, reads each label's key once, not once per pair, and takes its
covers as a transitive reduction.  The partial-sum dominance test for
GL restates the GL order key, so it does not check the sign test; the
independent LP oracle lives in hnbundles.oracles.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import ge, le

from .canon import CanonicalReduction, stratum_label
from .errors import TooLarge
from .parabolic import parabolic_leq
from .rootsys import A, D, GL, GroupFamily, _order_key, _stratum_key

ENUM_DIM_GUARD = 4
ENUM_BOUND_GUARD = 4


def hull_membership(family: GroupFamily, mu, nu) -> bool:
    """Whether nu lies in the convex hull of the Weyl orbit of mu.

    Kostant's convexity theorem: exactly when dom(mu) - dom(nu) is a
    nonnegative rational combination of the simple roots, that is when
    the order key of dom(mu) is at least that of dom(nu) in every entry.
    That key is W-invariant, one per point, read in one pass.  On type A
    the simple roots span only the trace-zero hyperplane, so the last
    entries, the centres, must also be equal.
    """
    top = _stratum_key(family, mu)
    low = _stratum_key(family, nu)
    return all(map(ge, top, low)) and (
        family.cartan_type != A or top[-1] == low[-1])


def gl_dominance(mu, nu) -> bool:
    """Partial-sum dominance for GL: with equal totals, every prefix sum
    of the descending sort of nu stays below that of mu.  That is the
    GL order-key test of hull_membership again, not an independent check."""
    a = sorted(mu, reverse=True)
    b = sorted(nu, reverse=True)
    if sum(a) != sum(b):
        return False
    pa = pb = Fraction(0)
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pb > pa:
            return False
    return True


def stratum_leq(a: CanonicalReduction, b: CanonicalReduction) -> bool:
    """True when b dominates a: the parabolic of b sits inside that of a
    and the type of a lies in the orbit hull of the type of b.  The
    semistable label of a topological type ends up below every label of
    that type under this orientation."""
    return parabolic_leq(b.index, a.index) and \
        hull_membership(a.family, b.mu.mu, a.mu.mu)


@dataclass(frozen=True)
class StrataPoset:
    labels: tuple
    relation: frozenset  # covering pairs (lower index, higher index)


def _dominant_points(family: GroupFamily, bound: int):
    """The dominant integer points of [-bound, bound]^dim, of sum 0 for
    SL, listed directly in the box's descending lexicographic order."""
    dim = family.cartan_dim
    if family.cartan_type == A:
        points = combinations_with_replacement(range(bound, -bound - 1, -1), dim)
        return (p for p in points if family.kind == GL or not sum(p))
    if family.cartan_type == D:
        heads = combinations_with_replacement(range(bound, -1, -1), dim - 1)
        return (h + (x,) for h in heads for x in range(h[-1], -h[-1] - 1, -1))
    return combinations_with_replacement(range(bound, -1, -1), dim)


def enumerate_strata(family: GroupFamily, bound: int,
                     total_degree=None) -> StrataPoset:
    """All dominant integer labels with coordinates in [-bound, bound],
    ordered by covering pairs of the stratum order."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    dim = family.cartan_dim
    if dim > ENUM_DIM_GUARD or bound > ENUM_BOUND_GUARD:
        raise TooLarge("enumeration guard exceeded")
    # stratum_leq(labels[i], labels[j]) holds when the index of j contains
    # that of i, the centres agree and, by Kostant, the order key of mu_j
    # is at least that of mu_i in every entry.  The centre is the degree
    # of the underlying vector bundle, trivial on Sp and SO.
    labels, keys = [], []
    for coords in _dominant_points(family, bound):
        degree = sum(coords) if family.kind == GL else 0
        if total_degree is not None and degree != total_degree:
            continue
        labels.append(stratum_label(family, coords))
        keys.append((labels[-1].index.members, degree, _order_key(family, coords)))
    ups = [[j for j, (members, centre, xs) in enumerate(keys)
            if j != i and centre == ci and members >= mi
            and all(map(le, xi, xs))]
           for i, (mi, ci, xi) in enumerate(keys)]
    # j covers i when no m of the up-set of i has j in its own up-set
    bits = [sum(1 << j for j in up) for up in ups]
    covers = set()
    for i, up in enumerate(ups):
        through = 0
        for m in up:
            through |= bits[m]
        covers.update((i, j) for j in up if not through >> j & 1)
    return StrataPoset(tuple(labels), frozenset(covers))


def _label_name(s: CanonicalReduction) -> str:
    mu = ",".join(str(c) for c in s.mu.mu)
    names = ",".join(s.index.names())
    return f"({mu});{{{names}}}"


def to_dot(p: StrataPoset) -> str:
    """Byte-deterministic DOT rendering of the covering relation."""
    lines = ["digraph strata {"]
    for s in p.labels:
        lines.append(f'  "{_label_name(s)}";')
    for i, j in sorted(p.relation):
        lines.append(f'  "{_label_name(p.labels[i])}" -> "{_label_name(p.labels[j])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

