"""Fundamental groups, obstruction classes and topological types, in
closed form.

Gamma is the cocharacter lattice of the maximal torus in its own
coordinates (for SL, the trace-zero sublattice of Z^r).  Lambda is the
integer span of the coroots; pi1 = Gamma/Lambda.  For the classical
families every group below is read off the parabolic index: a Levi
factor is a product of GL blocks and one classical factor of the same
type, and pi1(SO(m)) = Z/2 for m >= 3 is its only torsion (Bourbaki,
Lie Groups and Lie Algebras ch. VI, Plates I-IV).  The tests keep the
Smith normal form of the coroot matrix as the oracle.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInKernelLattice, NotIntegral
from .parabolic import ParabolicIndex, _root_split
from .rootsys import (GL, SL, SO, GroupFamily, _point, as_cocharacter,
                      simple_root_count)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        # explicit raises, not assert, so that python -O keeps the checks
        if any(d < 2 for d in self.torsion):
            raise ValueError(f"invariant factors {self.torsion} must be >= 2")
        if any(y % x for x, y in zip(self.torsion, self.torsion[1:])):
            raise ValueError(f"invariant factors {self.torsion} must divide "
                             "each other in order")

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


def fundamental_groups(family: GroupFamily):
    """(pi1 of the derived group, pi1 of G, pi1 of the abelianization)."""
    return levi_fundamental_groups(family, ParabolicIndex(family, ()))


def levi_fundamental_groups(family: GroupFamily, index: ParabolicIndex):
    """(pi1_der, pi1, pi1_ab) of the Levi factor L_I.

    The free rank is rank Gamma less the rank of the Levi coroot lattice,
    the count of simple roots outside I.  The torsion is Z/2 when L_I
    keeps an SO(m) factor with m >= 3: for SO(2n+1) when the last simple
    root is outside I, for SO(2n) when both fork roots are.
    """
    family.require_root_system()
    _point(family, index=index)
    rank = family.r - 1 if family.kind == SL else family.cartan_dim
    free = rank - simple_root_count(family) + len(index.members)
    n = family.cartan_dim
    tail = {n - 1} if family.r % 2 else {n - 2, n - 1}
    torsion = (2,) if family.kind == SO and not tail & index.members else ()
    return FinAbGroup(0, torsion), FinAbGroup(free, torsion), FinAbGroup(free, ())


def _check_in_gamma(family, a):
    try:
        a = as_cocharacter(family, a)
    except NotIntegral as exc:
        raise NotInKernelLattice(str(exc)) from exc
    if family.kind == SL and sum(a) != 0:
        raise NotInKernelLattice("SL cocharacters have trace zero")
    return a


def obstruction_class(family: GroupFamily, a):
    """Class of the degree cocharacter a in pi1(G) = Gamma/Lambda.

    Returns (free_coords, torsion_residues).  pi1 has a free part only
    for GL, and its one free coordinate is the total degree, the degree of
    the determinant.  Only SO has torsion, Z/2: Lambda is the sublattice
    of even coordinate sum, so the residue is the total degree mod 2.
    """
    a = _check_in_gamma(family, a)
    family.require_root_system()
    free = (sum(a),) if family.kind == GL else ()
    return free, ((sum(a) % 2,) if family.kind == SO else ())


def topological_type(family: GroupFamily, a):
    """Central averaging of a degree vector: the slope-type of the bundle."""
    a = _check_in_gamma(family, a)
    if family.kind == GL:
        avg = Fraction(sum(a), family.r)
        return tuple(avg for _ in a)
    return tuple(Fraction(0) for _ in a)


def levi_topological_type(family: GroupFamily, index: ParabolicIndex, a):
    """Projection of a onto the centre of the Levi factor L_I.

    A signed union-find over the Levi roots: e_i - e_j ties x_i = x_j and
    e_i + e_j ties x_i = -x_j.  A root on one coordinate, or two ties that
    clash, leave a component no central direction; on every other
    component the centre takes the signed mean of a.
    """
    a = _check_in_gamma(family, a)
    _point(family, index=index)
    parent = list(range(len(a)))
    sign = [1] * len(a)  # x_i = sign[i] * x_parent[i]

    def find(i):
        s = 1
        while parent[i] != i:
            s *= sign[i]
            i = parent[i]
        return i, s

    kills = []  # a coordinate of each component with no central direction
    for root in _root_split(index)[0]:
        support = [t for t, c in enumerate(root) if c]
        if len(support) == 1:
            kills.append(support[0])
            continue
        i, j = support
        (ri, si), (rj, sj) = find(i), find(j)
        tie = -1 if root[i] * root[j] > 0 else 1
        if ri != rj:
            parent[rj], sign[rj] = ri, si * tie * sj
        elif si != tie * sj:
            kills.append(i)
    dead = {find(i)[0] for i in kills}
    total, size, signs = {}, {}, []
    for i, x in enumerate(a):
        root, s = find(i)
        signs.append((root, s))
        total[root] = total.get(root, 0) + s * x
        size[root] = size.get(root, 0) + 1
    return tuple(Fraction(0) if root in dead
                 else s * Fraction(total[root], size[root]) for root, s in signs)
