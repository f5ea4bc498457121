"""Harder-Narasimhan stratification poset.

Labels are (dominant type, forced parabolic index) pairs; the order
combines parabolic containment with Weyl-orbit convex-hull membership,
decided by Kostant's convexity theorem from the closed-form dominant
representatives and simple-root coordinates, with no orbit and no
solve.  enumerate_strata reads the coordinates once per label, not once
per pair, and takes its covers as a transitive reduction.  An exact
phase-1 simplex over the whole Weyl orbit stays as an oracle for tests
and the hull check suite, and a partial-sum dominance test for GL
cross-checks both.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .canon import HNType, forced_index
from .errors import FamilyMismatch, TooLarge
from .parabolic import ParabolicIndex, parabolic_leq
from .rootsys import (GL, SL, GroupFamily, _point, dominant_representative,
                      is_dominant, simple_root_coordinates, weyl_orbit)

HULL_DIM_GUARD = 6
ENUM_DIM_GUARD = 4
ENUM_BOUND_GUARD = 4


def _phase_one_feasible(columns, target):
    """Exact feasibility of: nonnegative lambda with sum 1 and
    sum(lambda_j * columns[j]) = target.  Phase-1 simplex, Bland's rule."""
    m = len(target) + 1
    n = len(columns)
    rows = []
    rhs = []
    for i in range(m - 1):
        row = [Fraction(c[i]) for c in columns]
        b = Fraction(target[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    # tableau with one artificial per row
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    width = n + m
    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] -= tab[i][j]
    for j in range(n, width):
        obj[j] += Fraction(1)  # artificial costs cancel against the sum
    basis = list(range(n, width))
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        pivot = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if pivot is None or ratio < pivot[0] or \
                        (ratio == pivot[0] and basis[i] < basis[pivot[1]]):
                    pivot = (ratio, i)
        if pivot is None:
            return False  # unbounded cannot happen on a bounded feasibility stub
        _, prow = pivot
        pv = tab[prow][enter]
        tab[prow] = [x / pv for x in tab[prow]]
        for i in range(m):
            if i != prow and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[prow])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[prow])]
        basis[prow] = enter
    return obj[width] == 0


def hull_membership(family: GroupFamily, mu, nu) -> bool:
    """Whether nu lies in the convex hull of the Weyl orbit of mu.

    Kostant's convexity theorem: exactly when dom(mu) - dom(nu) is a
    nonnegative rational combination of the simple roots, read off its
    closed-form simple-root coordinates.  For GL/SL the simple roots span
    only the trace-zero hyperplane, so points with different centres have
    no coordinates at all.
    """
    top = dominant_representative(family, mu)
    low = dominant_representative(family, nu)
    coeffs = simple_root_coordinates(family, [a - b for a, b in zip(top, low)])
    return coeffs is not None and all(c >= 0 for c in coeffs)


def hull_membership_lp_oracle(family: GroupFamily, mu, nu) -> bool:
    """hull_membership by brute force, for tests and the hull check suite:
    the phase-1 simplex on nu as a convex combination of the points of W.mu."""
    if family.cartan_dim > HULL_DIM_GUARD:
        raise TooLarge("hull guard exceeded")
    nu = _point(family, nu)
    return _phase_one_feasible(weyl_orbit(family, tuple(mu)), nu)


def gl_dominance(mu, nu) -> bool:
    """Partial-sum dominance for GL: with equal totals, every prefix sum
    of the descending sort of nu stays below that of mu."""
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


@dataclass(frozen=True)
class StratumLabel:
    family: GroupFamily
    mu: HNType
    index: ParabolicIndex

    def __post_init__(self):
        # explicit raises, not assert, so that python -O keeps the checks
        if self.mu.family != self.family:
            raise FamilyMismatch("type belongs to a different family")
        if self.index != forced_index(self.family, self.mu.mu):
            mu = ", ".join(str(c) for c in self.mu.mu)
            raise ValueError(f"index {{{','.join(self.index.names())}}} is "
                             f"not the index forced by the type ({mu})")


def stratum_label(family: GroupFamily, mu) -> StratumLabel:
    t = HNType(family, mu)
    return StratumLabel(family, t, forced_index(family, t.mu))


def stratum_leq(a: StratumLabel, b: StratumLabel) -> bool:
    """True when b dominates a: the parabolic of b sits inside that of a
    and the type of a lies in the orbit hull of the type of b.  The
    semistable label of a topological type ends up below every label of
    that type under this orientation."""
    if a.family != b.family:
        raise FamilyMismatch("labels of different families")
    if not parabolic_leq(b.index, a.index):
        return False
    return hull_membership(a.family, b.mu.mu, a.mu.mu)


@dataclass(frozen=True)
class StrataPoset:
    labels: tuple
    relation: frozenset  # covering pairs (lower index, higher index)


def enumerate_strata(family: GroupFamily, bound: int,
                     total_degree=None) -> StrataPoset:
    """All dominant integer labels with coordinates in [-bound, bound],
    ordered by covering pairs of the stratum order."""
    dim = family.cartan_dim
    if dim > ENUM_DIM_GUARD or bound > ENUM_BOUND_GUARD:
        raise TooLarge("enumeration guard exceeded")
    # stratum_leq(labels[i], labels[j]) holds when the index of j contains
    # that of i, the centres agree and, by Kostant, the simple-root
    # coordinates of mu_j - mu_i are >= 0: by linearity, when those of mu_j
    # less its centre dominate those of mu_i less its centre.  The centre
    # is the degree of the underlying vector bundle, trivial on Sp and SO.
    labels, keys = [], []
    for coords in product(range(bound, -bound - 1, -1), repeat=dim):
        degree = sum(coords) if family.kind in (GL, SL) else 0
        if not is_dominant(family, coords) or (family.kind == SL and degree) \
                or (total_degree is not None and degree != total_degree):
            continue
        labels.append(stratum_label(family, coords))
        shift = Fraction(degree, dim)
        keys.append((labels[-1].index.members, degree, simple_root_coordinates(
            family, [c - shift for c in coords])))
    ups = [[j for j, (members, centre, xs) in enumerate(keys)
            if j != i and centre == ci and members >= mi
            and all(a <= b for a, b in zip(xi, xs))]
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


def _label_name(s: StratumLabel) -> str:
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

