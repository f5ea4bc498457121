"""Kernel lattice, coroot lattice, saturation, fundamental groups, and
the central slope data, all through integer normal forms.

Gamma is the cocharacter lattice of the maximal torus in its own
coordinates (for SL, the trace-zero sublattice of Z^r, presented by a
basis).  Lambda is the integer span of all coroots, Lambda-hat its
saturation inside Gamma; the quotients give the fundamental groups.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotInKernelLattice, NotIntegral
from .intlin import smith_normal_form
from .parabolic import ParabolicIndex, _root_split, levi_blocks
from .rootsys import GL, SL, GroupFamily, all_roots, as_cocharacter, coroot


@dataclass(frozen=True)
class IntegerLattice:
    ambient_dim: int
    basis: tuple

    @property
    def rank(self) -> int:
        return len(self.basis)


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

    @property
    def order(self):
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class LatticeTower:
    """Gamma, Lambda and its saturation, with the nonzero invariant factors
    and the column transform V of the one Smith normal form of the coroot
    matrix; and the central slope denominators of the Levi blocks."""

    family: GroupFamily
    gamma_basis: tuple
    lam: IntegerLattice
    lam_sat: IntegerLattice
    psi_denominators: tuple
    invariant_factors: tuple
    column_transform: tuple


def _gamma_basis(family: GroupFamily):
    dim = family.cartan_dim
    if family.kind == SL:
        return tuple(tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(dim))
                     for i in range(dim - 1))
    return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))


def _psi_denominators(family, blocks):
    if family.kind in (GL, SL):
        return tuple(length for _, length in blocks)
    # only blocks inside the first n diagonal coordinates have a free
    # central parameter; the middle and mirrored blocks are determined
    n = family.cartan_dim
    return tuple(length for start, length in blocks if start - 1 + length <= n)


def _tower(family, roots, blocks):
    """Canonical bases of Lambda = span{d_i * row_i(V^{-1})} and of its
    saturation span{row_i(V^{-1})}, from one Smith normal form."""
    dim = family.cartan_dim
    # a zero row keeps the width of the matrix when there are no roots
    coroots = [coroot(family, a) for a in roots] or [(0,) * dim]
    diag, v, vinv = smith_normal_form(coroots)
    factors = tuple(d for d in diag if d != 0)
    lam = IntegerLattice(dim, tuple(tuple(d * x for x in vinv[i])
                                    for i, d in enumerate(factors)))
    lam_sat = IntegerLattice(dim, tuple(map(tuple, vinv[:len(factors)])))
    return LatticeTower(family, _gamma_basis(family), lam, lam_sat,
                        _psi_denominators(family, blocks), factors,
                        tuple(tuple(row) for row in v))


@lru_cache(maxsize=64)
def lattice_tower(family: GroupFamily) -> LatticeTower:
    family.require_root_system()
    return _tower(family, all_roots(family), ((1, family.r),))


def levi_lattice_tower(family: GroupFamily, index: ParabolicIndex) -> LatticeTower:
    """Tower of the Levi factor: coroots restricted to the Levi roots."""
    family.require_root_system()
    blocks = levi_blocks(family, index).blocks
    return _tower(family, _root_split(index)[0], blocks)


def fundamental_groups(family: GroupFamily):
    """(pi1 of the derived group, pi1 of G, pi1 of the abelianization)."""
    return _tower_groups(lattice_tower(family))


def levi_fundamental_groups(family: GroupFamily, index: ParabolicIndex):
    return _tower_groups(levi_lattice_tower(family, index))


def _tower_groups(t: LatticeTower):
    """pi1 = Gamma/Lambda = Z^(n-k) x (+) Z/d_i, its torsion pi1_der =
    Lambda-hat/Lambda and its free part pi1_ab = Gamma/Lambda-hat, read off
    the k nonzero invariant factors d_i, with n the rank of Gamma.  Gamma is
    saturated in Z^dim, so the torsion of Gamma/Lambda is that of
    Z^dim/Lambda."""
    free = len(t.gamma_basis) - len(t.invariant_factors)
    torsion = tuple(d for d in t.invariant_factors if d > 1)
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
    the determinant; the torsion residues are in adapted Smith
    coordinates, reduced mod the invariant factors.
    """
    a = _check_in_gamma(family, a)
    t = lattice_tower(family)
    free = (sum(a),) if family.kind == GL else ()
    v = t.column_transform
    residues = tuple(sum(x * row[i] for x, row in zip(a, v)) % d
                     for i, d in enumerate(t.invariant_factors) if d > 1)
    return free, residues


def topological_type(family: GroupFamily, a):
    """Central averaging of a degree vector: the slope-type of the bundle."""
    a = _check_in_gamma(family, a)
    if family.kind == GL:
        avg = Fraction(sum(a), family.r)
        return tuple(avg for _ in a)
    return tuple(Fraction(0) for _ in a)


def levi_topological_type(family: GroupFamily, index: ParabolicIndex, a):
    """Per-Levi-block averaging; Sp/SO middle blocks average to zero."""
    a = _check_in_gamma(family, a)
    blocks = levi_blocks(family, index).blocks
    dim = family.cartan_dim
    out = [Fraction(0)] * dim
    for start, length in blocks:
        lo = start - 1
        hi = lo + length
        # GL/SL blocks all lie in the first dim coordinates; Sp/SO middle
        # and mirrored blocks do not
        if hi <= dim:
            avg = Fraction(sum(a[lo:hi]), length)
            for i in range(lo, hi):
                out[i] = avg
    return tuple(out)
