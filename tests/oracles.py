"""Solve, Hermite, kernel and normal-form routes that the closed forms
replaced, kept as independent oracles for the tests: the root table
(simple roots, positive roots, all roots, the root test, the coroots),
the closed-form simple-root values that the comparison of coordinates
replaced, the dominance test and the forced index of a dominant vector,
which production reads off the signs an HNType keeps, the adjoint bundle
read off the root table root by root, the rational solve and the
Hermite-reduced integer row kernel, the root table of supports
and the Levi/nilradical root split read off it (the oracle for 2rho_P,
the Levi root count and the Levi centre), the point v_I and its sign
test for the root split, the integer row kernel for the character
generators, the canonical reduction and its BH conditions built afresh
on every call, the coroot loop of the character test, the Smith normal
form of the coroot matrix and the lattice tower read off it for the
fundamental groups and the obstruction class, the diagonal Levi blocks
for the Levi topological type off the D_n fork, the pairwise stratum
order with its covers found by a triple loop, every ordered partition
of the atoms for the HN uniqueness search, and the determinant-line
route of the vertical degree.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from hnbundles.bundle import (Atom, PlainBundle, SoBundle, _flag_shape,
                              is_semistable, tensor)
from hnbundles.canon import CACHED_DIM, _positive_index, bh_conditions
from hnbundles.errors import HnBundleError, NotACharacter, TooLarge
from hnbundles.lattice import FinAbGroup
from hnbundles.rootsys import (A, B, C, D, GL, SL, SP, GroupFamily, _point,
                               as_cocharacter, dominant_representative,
                               _simple_root_signs, evaluate,
                               positive_root_count, root_name,
                               simple_root_coordinates)
from hnbundles.strata import (ENUM_BOUND_GUARD, ENUM_DIM_GUARD, StrataPoset,
                              stratum_label, stratum_leq)


class NotARoot(HnBundleError):
    """Functional is not a root of the given family."""


def _e(i, dim, c=1):
    v = [0] * dim
    v[i] = c
    return tuple(v)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def simple_roots(family: GroupFamily):
    """Ordered simple roots of the family in diagonal coordinates."""
    dim = family.cartan_dim
    out = [tuple(_sub(_e(l, dim), _e(l + 1, dim))) for l in range(dim - 1)]
    t = family.cartan_type
    if t == B:
        out.append(_e(dim - 1, dim))
    elif t == C:
        out.append(_e(dim - 1, dim, 2))
    elif t == D:
        out.append(_e(dim - 2, dim)[:-1] + (1,))
    return tuple(out)


def simple_root_values(family: GroupFamily, v):
    """<alpha_i, v> for each simple root alpha_i, in order, in closed form:
    the steps v_i - v_(i+1), then v_n on B, 2 v_n on C and v_(n-1) + v_n
    on D (Bourbaki, Plates I-IV).  Checks the length of v first."""
    v = _point(family, v)
    values = [x - y for x, y in zip(v, v[1:])]
    t = family.cartan_type
    if t != A:
        values.append(v[-1] if t == B else 2 * v[-1] if t == C else v[-2] + v[-1])
    return values


def is_dominant(family: GroupFamily, v) -> bool:
    """Whether v lies in the closed dominant chamber: no simple-root pairing
    of it is negative."""
    return -1 not in _simple_root_signs(family, v)


def forced_index(family: GroupFamily, mu):
    """The parabolic index a dominant vector determines: the simple roots
    taking a positive value on it."""
    return _positive_index(family, _simple_root_signs(family, mu))


def positive_roots(family: GroupFamily):
    """Positive roots: closure of the simple system, listed deterministically."""
    dim, t = family.cartan_dim, family.cartan_type
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(_sub(_e(i, dim), _e(j, dim)))
            if t != A:
                out.append(tuple(a + b for a, b in zip(_e(i, dim), _e(j, dim))))
    if t == B:
        out.extend(_e(i, dim) for i in range(dim))
    elif t == C:
        out.extend(_e(i, dim, 2) for i in range(dim))
    return tuple(sorted(out, reverse=True))


def all_roots(family: GroupFamily):
    pos = positive_roots(family)
    return pos + tuple(tuple(-c for c in a) for a in pos)


def is_root(family: GroupFamily, functional) -> bool:
    return tuple(functional) in all_roots(family)


def coroot(family: GroupFamily, root):
    """The coroot 2a/<a,a> of a root, under the standard dot product;
    classical coroots are integral in these coordinates."""
    if not is_root(family, root):
        raise NotARoot(f"{root} is not a root of {family}")
    norm = sum(c * c for c in root)
    return tuple(2 * c // norm for c in root)


def adjoint_bundle_oracle(family, a):
    """The adjoint bundle of the torus-split bundle of degree vector a, root
    by root: one rank-1 atom of degree alpha(a) per root alpha, plus a
    rank-(dim T) trivial block, the positive-degree atoms the isotropic
    positive part."""
    a = as_cocharacter(family, a)
    positive = []
    zero = [Atom(0, 1)] * family.torus_dim
    for alpha in all_roots(family):
        v = evaluate(alpha, a)
        if v > 0:
            positive.append(Atom(v, 1))
        elif v == 0:
            zero.append(Atom(0, 1))
    return SoBundle(tuple(positive), tuple(zero))


def solve_rational(rows, rhs):
    """Solve sum_j x_j * rows[j] = rhs over the rationals.

    Returns the coefficient list, or None if rhs is not in the row span.
    If the rows are dependent, an arbitrary consistent solution is returned.
    """
    k = len(rows)
    if k == 0:
        return [] if not any(rhs) else None
    m = len(rows[0])
    # augmented system A^T x = rhs
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = aug[i][k]
    return sol


def _hermite_reduce(rows):
    """Row-style Hermite normal form with positive pivots (for determinism)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    m = len(rows[0])
    out = []
    work = rows
    col = 0
    while work and col < m:
        cand = [r for r in work if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                nr = [a - q * b for a, b in zip(r, piv)]
                r[:] = nr
                if r[col] != 0:
                    done = False
            cand = [r for r in cand if r[col] != 0] or [piv]
            if done or len(cand) == 1:
                break
        piv = cand[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        out.append(piv)
        rest = [r for r in work if r != piv]
        # eliminate this column from the rest
        nrest = []
        for r in rest:
            if r[col] != 0:
                q = r[col] // piv[col]
                r = [a - q * b for a, b in zip(r, piv)]
            if any(r):
                nrest.append(list(r))
        work = nrest
        col += 1
    # reduce entries above pivots
    for i in reversed(range(len(out))):
        pcol = next(j for j, a in enumerate(out[i]) if a != 0)
        for j in range(i):
            q = out[j][pcol] // out[i][pcol]
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return [tuple(r) for r in out]


def _row_kernel(mat):
    """Integer basis of {x : x * mat = 0}, Hermite-reduced, positive pivots."""
    m = len(mat)
    if m == 0:
        return []
    k = len(mat[0])
    # [mat | I] row reduction over Z (fraction-free via gcd steps)
    work = [list(mat[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(k):
        piv = None
        for i in range(row, m):
            if work[i][col] != 0 and (piv is None or abs(work[i][col]) < abs(work[piv][col])):
                piv = i
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        changed = True
        while changed:
            changed = False
            for i in range(row + 1, m):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
                    if work[i][col] != 0:
                        work[row], work[i] = work[i], work[row]
                        changed = True
        row += 1
        if row == m:
            break
    kernel = [w[k:] for w in work[row:]]
    return _hermite_reduce(kernel)


def primitive(vec):
    """Divide an integer vector by the gcd of its entries; fix leading sign > 0."""
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    if g == 0:
        return tuple(vec)
    out = [c // g for c in vec]
    lead = next((c for c in out if c != 0), 0)
    if lead < 0:
        out = [-c for c in out]
    return tuple(out)


def index_point(index):
    """The point v_I where the simple roots in I take the value 1 and the
    others 0, from one solve on the transposed simple-root matrix."""
    simples = simple_roots(index.family)
    columns = [[a[t] for a in simples] for t in range(index.family.cartan_dim)]
    return solve_rational(columns, [int(i in index.members)
                                    for i in range(len(simples))])


def root_split_oracle(index):
    """(Levi roots, nilradical roots) by one sign test per root at v_I: a
    root's simple-root coefficients share one sign, so the Levi roots are
    the roots vanishing at v_I and the nilradical roots those positive
    there."""
    point = index_point(index)
    levi, nilrad = [], []
    for a in all_roots(index.family):
        value = evaluate(a, point)
        if value == 0:
            levi.append(a)
        elif value > 0:
            nilrad.append(a)
    return tuple(levi), tuple(nilrad)


# The root table of _root_supports lists 2|Phi+| roots of cartan_dim
# entries each.  The limit is that count at GL160, whose table builds in
# about 1 s (Python 3.11, one core of a 2-vCPU Xeon VM) and holds about
# 50 MB; GL161 is refused.  Sp252 and SO254 sit just under it.
ROOT_TABLE_GUARD = 2 * (160 * 159 // 2) * 160


def _root_supports(family):
    """(root, support, positive) for each root in all_roots order, where
    support is the bitmask of the simple roots with a nonzero coefficient
    in the root's expansion; the coefficients share one sign.  Refuses a
    table of more than ROOT_TABLE_GUARD entries before building it, and
    keeps the tables of families of cartan_dim at most CACHED_DIM."""
    if 2 * positive_root_count(family) * family.cartan_dim > ROOT_TABLE_GUARD:
        raise TooLarge("enumeration guard exceeded")
    if family.cartan_dim <= CACHED_DIM:
        return _cached_supports(family)
    return _build_supports(family)


def _build_supports(family):
    out = []
    for a in all_roots(family):
        coords = simple_root_coordinates(family, a)
        out.append((a, sum(1 << i for i, c in enumerate(coords) if c),
                    any(c > 0 for c in coords)))
    return tuple(out)


# the 79 families of cartan_dim <= CACHED_DIM fit
_cached_supports = lru_cache(maxsize=128)(_build_supports)


def _root_split(index):
    """(Levi roots, nilradical roots) of P_I, both in all_roots order: the
    oracle for the closed forms read off the Levi blocks (2rho_P, the Levi
    root count, the Levi centre).

    The Levi roots are the roots whose support misses I, and the nilradical
    roots are the positive roots whose support meets I: one pass over the
    family's root table.
    """
    mask = sum(1 << i for i in index.members)
    supports = _root_supports(index.family)
    return (tuple(a for a, support, _ in supports if not support & mask),
            tuple(a for a, support, positive in supports
                  if positive and support & mask))


def canonical_reduction_uncached(family, a):
    """canonical_reduction with no per-orbit cache: the forced index of the
    dominant point and the HN type, built on every call."""
    mu = dominant_representative(family, as_cocharacter(family, a))
    return stratum_label(family, mu)


def check_bh_uncached(family, red):
    """check_bh's answer with no cache: bh_conditions at the reduction's
    point, evaluated on every call."""
    return bh_conditions(family, red.index, red.mu.mu)


def generator_oracle(family, i):
    """The character generator of the i-th simple root (0-based) by the
    kernel route: the line in the span of the simple roots that pairs to
    zero with every other simple coroot, its primitive point with positive
    pairing, scaled to the least multiple with integral simple-root
    coordinates."""
    simples = simple_roots(family)
    coroots = [coroot(family, a) for a in simples]
    others = [k for k in range(len(simples)) if k != i]
    mat = [[evaluate(simples[j], coroots[k]) for k in others]
           for j in range(len(simples))]
    kernel = _row_kernel(mat)
    if len(kernel) != 1:
        raise AssertionError(f"the character line of simple root {i} has "
                             f"rank {len(kernel)}, not 1")
    c = kernel[0]
    chi = primitive(tuple(sum(c[j] * simples[j][t] for j in range(len(simples)))
                          for t in range(family.cartan_dim)))
    if evaluate(chi, coroots[i]) < 0:
        chi = tuple(-x for x in chi)
    scale = 1
    for q in solve_rational(simples, chi):
        scale = scale * q.denominator // gcd(scale, q.denominator)
    return tuple(scale * x for x in chi)


def character_oracle(family, index, dchi):
    """The character test of is_dominant_character by its coroot loop:
    raises NotACharacter, with the same message, unless dchi vanishes on
    the coroot of every simple root outside I and is nonzero."""
    for i, alpha in enumerate(simple_roots(family)):
        if i not in index.members and evaluate(dchi, coroot(family, alpha)) != 0:
            raise NotACharacter(
                f"functional does not vanish on the coroot of {root_name(family, i)}")
    if not any(dchi):
        raise NotACharacter("the zero functional is not a character")


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (diag, V, V^{-1}) where diag is the list of invariant factors
    (including zeros up to min(k, m)) and V is the unimodular m x m column
    transform with U * mat * V diagonal for some unimodular U; V^{-1} is
    built alongside from the inverse of each column operation.  Row space
    of mat over the integers equals span{diag[i] * row_i(V^{-1})}.
    """
    a = [list(r) for r in mat]
    k = len(a)
    m = len(a[0]) if k else 0
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vinv = [row[:] for row in v]  # rows of V^{-1}

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        v[i] = [x - q * y for x, y in zip(v[i], v[j])]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    t = 0
    while t < min(k, m):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, k):
            for j in range(t, m):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, k):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, k)) \
                    and all(a[t][j] == 0 for j in range(t + 1, m)):
                break
        # divisibility fix-up: pivot must divide the remaining block
        entry = None
        for i in range(t + 1, k):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t] != 0:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry:
            add_row(t, entry[0], -1)  # row_t += row_i
            continue
        if a[t][t] < 0:
            for r in a:
                r[t] = -r[t]
            v[t] = [-x for x in v[t]]
            vinv[t] = [-x for x in vinv[t]]
        t += 1
    diag = [a[i][i] if i < m else 0 for i in range(min(k, m))]
    # note: columns of the work matrix were transformed; v rows track columns
    v_mat = [[v[j][i] for j in range(m)] for i in range(m)]
    return diag, v_mat, vinv


@dataclass(frozen=True)
class LeviBlocks:
    """Contiguous diagonal blocks of the Levi factor, as (start, length)
    pairs over the r matrix coordinates, 1-based, mirrored for Sp/SO."""

    family: object
    blocks: tuple

    def sizes(self):
        return tuple(length for _, length in self.blocks)


def levi_blocks(family, index):
    """Diagonal block shape of the Levi factor L_I inside the r x r matrix.
    Wrong on the D_n fork, where I holds alpha_(n-1) but not alpha_n: that
    Levi is a GL(n) with the sign of the last coordinate flipped."""
    r = family.r
    cuts = set()
    if family.kind in (GL, SL):
        cuts.update(i + 1 for i in index.members)
    else:
        n = family.cartan_dim
        for i in index.members:
            # the last simple root cuts at n and its mirror r - n, which
            # coincide except for SO of odd rank
            if i < n - 1:
                cuts.update({i + 1, r - i - 1})
            else:
                cuts.update({n, r - n})
    bounds = [0] + sorted(cuts) + [r]
    blocks = tuple((bounds[k] + 1, bounds[k + 1] - bounds[k])
                   for k in range(len(bounds) - 1) if bounds[k + 1] > bounds[k])
    return LeviBlocks(family, blocks)


def on_the_fork(index):
    """I holds the fork root alpha_(n-1) of D_n but not alpha_n."""
    family, n = index.family, index.family.cartan_dim
    return family.kind == "so" and family.r % 2 == 0 and \
        n - 2 in index.members and n - 1 not in index.members


def block_topological_type(family, index, a):
    """Per-Levi-block averaging of a; Sp/SO middle blocks average to zero.
    Off the D_n fork only."""
    dim = family.cartan_dim
    out = [Fraction(0)] * dim
    for start, length in levi_blocks(family, index).blocks:
        lo = start - 1
        hi = lo + length
        # GL/SL blocks all lie in the first dim coordinates; Sp/SO middle
        # and mirrored blocks do not
        if hi <= dim:
            avg = Fraction(sum(a[lo:hi]), length)
            for i in range(lo, hi):
                out[i] = avg
    return tuple(out)


def _psi_denominators(family, blocks):
    if family.kind in (GL, SL):
        return tuple(length for _, length in blocks)
    # only blocks inside the first n diagonal coordinates have a free
    # central parameter; the middle and mirrored blocks are determined
    n = family.cartan_dim
    return tuple(length for start, length in blocks if start - 1 + length <= n)


@dataclass(frozen=True)
class IntegerLattice:
    basis: tuple


@dataclass(frozen=True)
class LatticeTower:
    """Gamma, Lambda and its saturation, with the nonzero invariant factors
    and the column transform V of the one Smith normal form of the coroot
    matrix; and the central slope denominators of the Levi blocks."""

    family: object
    gamma_basis: tuple
    lam: IntegerLattice
    lam_sat: IntegerLattice
    psi_denominators: tuple
    invariant_factors: tuple
    column_transform: tuple


def _gamma_basis(family):
    dim = family.cartan_dim
    if family.kind == SL:
        return tuple(tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(dim))
                     for i in range(dim - 1))
    return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))


def _tower(family, roots, blocks):
    """Canonical bases of Lambda = span{d_i * row_i(V^{-1})} and of its
    saturation span{row_i(V^{-1})}, from one Smith normal form."""
    dim = family.cartan_dim
    # a zero row keeps the width of the matrix when there are no roots
    coroots = [coroot(family, a) for a in roots] or [(0,) * dim]
    diag, v, vinv = smith_normal_form(coroots)
    factors = tuple(d for d in diag if d != 0)
    lam = IntegerLattice(tuple(tuple(d * x for x in vinv[i])
                               for i, d in enumerate(factors)))
    lam_sat = IntegerLattice(tuple(map(tuple, vinv[:len(factors)])))
    return LatticeTower(family, _gamma_basis(family), lam, lam_sat,
                        _psi_denominators(family, blocks), factors,
                        tuple(tuple(row) for row in v))


@lru_cache(maxsize=64)
def lattice_tower(family):
    return _tower(family, all_roots(family), ((1, family.r),))


def levi_lattice_tower(family, index):
    """Tower of the Levi factor: coroots restricted to the Levi roots."""
    return _tower(family, _root_split(index)[0],
                  levi_blocks(family, index).blocks)


def _tower_groups(t):
    """pi1 = Gamma/Lambda = Z^(n-k) x (+) Z/d_i, its torsion pi1_der =
    Lambda-hat/Lambda and its free part pi1_ab = Gamma/Lambda-hat, read off
    the k nonzero invariant factors d_i, with n the rank of Gamma.  Gamma is
    saturated in Z^dim, so the torsion of Gamma/Lambda is that of
    Z^dim/Lambda."""
    free = len(t.gamma_basis) - len(t.invariant_factors)
    torsion = tuple(d for d in t.invariant_factors if d > 1)
    return FinAbGroup(0, torsion), FinAbGroup(free, torsion), FinAbGroup(free, ())


def tower_residues(family, a):
    """Torsion residues of the obstruction class of a in adapted Smith
    coordinates, (a.V)_i reduced mod the invariant factors d_i > 1."""
    t = lattice_tower(family)
    v = t.column_transform
    return tuple(sum(x * row[i] for x, row in zip(a, v)) % d
                 for i, d in enumerate(t.invariant_factors) if d > 1)


def enumerate_strata_oracle(family: GroupFamily, bound: int,
                            total_degree=None) -> StrataPoset:
    """enumerate_strata pairwise: stratum_leq on every ordered pair of
    labels, then each pair with no label strictly between as a cover."""
    dim = family.cartan_dim
    if dim > ENUM_DIM_GUARD or bound > ENUM_BOUND_GUARD:
        raise TooLarge("enumeration guard exceeded")
    # the degree of the underlying vector bundle pairs the determinant
    # character with the type; it is trivial on Sp and SO
    det = (1 if family.kind in (GL, SL) else 0,) * dim
    labels = []
    for coords in product(range(bound, -bound - 1, -1), repeat=dim):
        if not is_dominant(family, coords):
            continue
        if family.kind == SL and sum(coords) != 0:
            continue
        if total_degree is not None and evaluate(det, coords) != total_degree:
            continue
        labels.append(stratum_label(family, coords))
    labels.sort(key=lambda s: s.mu.mu, reverse=True)
    k = len(labels)
    leq = [[i == j or stratum_leq(labels[i], labels[j]) for j in range(k)]
           for i in range(k)]
    covers = set()
    for i in range(k):
        for j in range(k):
            if i == j or not leq[i][j] or leq[j][i]:
                continue
            if any(m not in (i, j) and leq[i][m] and leq[m][j]
                   and not leq[m][i] and not leq[j][m] for m in range(k)):
                continue
            covers.add((i, j))
    return StrataPoset(tuple(labels), frozenset(covers))


def _ordered_partitions(atoms):
    """All ordered set partitions of the atom multiset, by index blocks."""

    def rec(remaining):
        if not remaining:
            yield []
            return
        for k in range(1, len(remaining) + 1):
            for blk in combinations(remaining, k):
                left = [i for i in remaining if i not in blk]
                for tail in rec(left):
                    yield [blk] + tail

    for part in rec(tuple(range(len(atoms)))):
        yield [tuple(atoms[i] for i in blk) for blk in part]


def hn_winners_by_partitions(atoms):
    """The filtrations that meet the HN definition, as tuples of blocks:
    every ordered partition of the atoms is listed first, then kept when
    its blocks are semistable with strictly decreasing slopes."""
    winners = set()
    for part in _ordered_partitions(atoms):
        blocks = [PlainBundle(blk) for blk in part]
        if not all(is_semistable(q) for q in blocks):
            continue
        slopes = [q.slope for q in blocks]
        if all(x > y for x, y in zip(slopes, slopes[1:])):
            winners.add(tuple(q.atoms for q in blocks))
    return winners


def vertical_degree_composite(family, e, f):
    """vertical_degree through the determinant-line route: on GL/SL,
    deg(F* tensor E/F); on Sp, deg(F* tensor F_perp/F) plus the
    det(F*)^(l+1) twist; on SO, the same with twist exponent l-1."""
    d, r, fdeg, l = _flag_shape(family, e, f)
    if family.kind in (GL, SL):
        fs = PlainBundle((Atom(-fdeg, l),))
        quot = PlainBundle((Atom(d - fdeg, r - l),))
        return tensor(fs, quot).degree
    mid = -fdeg * (r - 2 * l)
    twist = l + 1 if family.kind == SP else l - 1
    return mid + twist * (-fdeg)
