import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hnbundles.errors import NotInKernelLattice
from hnbundles.lattice import (FinAbGroup, fundamental_groups,
                               levi_fundamental_groups, levi_topological_type,
                               obstruction_class, topological_type)
from hnbundles.parabolic import ParabolicIndex
from hnbundles.rootsys import GroupFamily, evaluate, weyl_orbit
from oracles import (_root_split, _row_kernel, _tower_groups, all_roots,
                     block_topological_type, coroot, lattice_tower,
                     levi_lattice_tower, on_the_fork, simple_roots,
                     smith_normal_form, solve_rational, tower_residues)

FAMILIES = [GroupFamily("gl", r) for r in (3, 4, 5)] + \
    [GroupFamily("sl", r) for r in (3, 4)] + \
    [GroupFamily("sp", r) for r in (4, 6)] + \
    [GroupFamily("so", r) for r in (4, 5, 6, 7)]


def test_fundamental_group_table():
    for r in range(3, 13):
        assert [g.describe() for g in fundamental_groups(GroupFamily("gl", r))] \
            == ["1", "Z", "Z"]
        assert [g.describe() for g in fundamental_groups(GroupFamily("sl", r))] \
            == ["1", "1", "1"]
        if r % 2 == 0:
            assert [g.describe() for g in fundamental_groups(GroupFamily("sp", r))] \
                == ["1", "1", "1"]
        assert [g.describe() for g in fundamental_groups(GroupFamily("so", r))] \
            == ["Z/2", "Z/2", "1"]


def test_fin_ab_group_rejects_bad_factors():
    with pytest.raises(ValueError, match="divide"):
        FinAbGroup(0, (3, 2))
    with pytest.raises(ValueError, match=">= 2"):
        FinAbGroup(1, (1,))
    # exact ints, like Atom: these would describe themselves as 1, Z and Z/2.0
    with pytest.raises(ValueError, match="^free rank must be a nonnegative int, got -1$"):
        FinAbGroup(-1, ())
    with pytest.raises(ValueError, match="^free rank must be a nonnegative int, got True$"):
        FinAbGroup(True, ())
    with pytest.raises(ValueError, match=r"^invariant factors \(2\.0,\) must be ints >= 2$"):
        FinAbGroup(0, (2.0,))
    # a list is kept as a tuple, so the group hashes; a string is refused
    assert FinAbGroup(0, [2]).torsion == (2,)
    with pytest.raises(ValueError, match="^torsion must be a list or tuple, got ''$"):
        FinAbGroup(0, "")


def _contains(lattice, v):
    """Membership in an integer lattice: integral coordinates over its
    basis, by a rational solve."""
    coeffs = solve_rational(lattice.basis, tuple(v))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def test_tower_examples():
    gl3 = lattice_tower(GroupFamily("gl", 3))
    assert gl3.psi_denominators == (3,)
    assert not _contains(gl3.lam, (1, 0, 0)) and _contains(gl3.lam, (1, -1, 0))
    sp4 = lattice_tower(GroupFamily("sp", 4))
    assert _contains(sp4.lam, (1, 0)) and _contains(sp4.lam, (0, 1))
    so5 = lattice_tower(GroupFamily("so", 5))
    assert _contains(so5.lam, (1, 1)) and _contains(so5.lam, (0, 2))
    assert not _contains(so5.lam, (1, 0))
    assert _contains(so5.lam_sat, (1, 0))


@pytest.mark.parametrize("family", FAMILIES)
def test_tower_inclusions_and_ses(family):
    t = lattice_tower(family)
    for v in t.lam.basis:
        assert _contains(t.lam_sat, v)
    der, pi1, ab = fundamental_groups(family)
    # short exact sequence 1 -> pi1_der -> pi1 -> pi1_ab -> 1
    assert pi1.free_rank == ab.free_rank
    assert pi1.torsion == der.torsion
    assert ab.torsion == ()
    assert der.free_rank == 0


def test_levi_examples():
    gl4 = GroupFamily("gl", 4)
    index = ParabolicIndex(gl4, frozenset({1}))
    der, pi1, ab = levi_fundamental_groups(gl4, index)
    assert pi1.describe() == "Z x Z"
    assert levi_lattice_tower(gl4, index).psi_denominators == (2, 2)
    sp6 = GroupFamily("sp", 6)
    idx2 = ParabolicIndex(sp6, frozenset({1}))
    assert levi_fundamental_groups(sp6, idx2)[1].describe() == "Z"
    assert levi_lattice_tower(sp6, idx2).psi_denominators == (2,)
    empty = ParabolicIndex(gl4, frozenset())
    assert levi_lattice_tower(gl4, empty).lam.basis == \
        lattice_tower(gl4).lam.basis


def test_obstruction_examples():
    assert obstruction_class(GroupFamily("gl", 3), (2, 1, 0)) == ((3,), ())
    assert obstruction_class(GroupFamily("sp", 4), (5, -2)) == ((), ())
    assert obstruction_class(GroupFamily("so", 4), (1, 0)) == ((), (1,))
    assert obstruction_class(GroupFamily("so", 4), (1, 1)) == ((), (0,))


def test_obstruction_errors():
    with pytest.raises(NotInKernelLattice):
        obstruction_class(GroupFamily("sl", 3), (1, 0, 0))
    with pytest.raises(NotInKernelLattice):
        obstruction_class(GroupFamily("gl", 2), (Fraction(1, 2), 0))


def test_topological_type_examples():
    assert topological_type(GroupFamily("gl", 5), (1, 1, 1, 0, 0)) == \
        tuple([Fraction(3, 5)] * 5)
    assert topological_type(GroupFamily("sp", 4), (2, 1)) == (0, 0)
    assert topological_type(GroupFamily("gl", 2), (1, 1)) == (1, 1)
    # every entry a Fraction, the mean degree on GL and 0 off it
    for kind, r in (("gl", 1), ("gl", 3), ("sl", 3), ("sp", 4), ("so", 5),
                    ("so", 6)):
        family = GroupFamily(kind, r)
        for a in product(range(-2, 3), repeat=family.cartan_dim):
            if kind == "sl" and sum(a):
                continue
            centre = Fraction(sum(a), r) if kind == "gl" else Fraction(0)
            top = topological_type(family, a)
            assert top == (centre,) * len(a), a
            assert all(type(x) is Fraction for x in top), a


def test_gl_psi_lattice():
    # central averages of integer vectors sweep exactly (1/r)Z(1,...,1)
    r = 4
    family = GroupFamily("gl", r)
    seen = {topological_type(family, tuple(1 if j < k else 0 for j in range(r)))
            for k in range(r + 1)}
    assert seen == {tuple([Fraction(k, r)] * r) for k in range(r + 1)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES),
       st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_obstruction_additive_and_type_invariant(family, xs, ys):
    dim = family.cartan_dim
    a = list((xs * 5)[:dim])
    b = list((ys * 5)[:dim])
    if family.kind == "sl":
        a[-1] -= sum(a)
        b[-1] -= sum(b)
    fa, ta = obstruction_class(family, a)
    fb, tb = obstruction_class(family, b)
    fs, ts = obstruction_class(family, [x + y for x, y in zip(a, b)])
    assert fs == tuple(x + y for x, y in zip(fa, fb))
    torsion = fundamental_groups(family)[1].torsion
    assert ts == tuple((x + y) % d for x, y, d in zip(ta, tb, torsion))
    for w in weyl_orbit(family, tuple(a)):
        assert topological_type(family, w) == topological_type(family, a)


def test_levi_topological_type():
    gl4 = GroupFamily("gl", 4)
    index = ParabolicIndex(gl4, frozenset({1}))
    assert levi_topological_type(gl4, index, (3, 1, 1, 1)) == \
        (2, 2, 1, 1)
    sp4 = GroupFamily("sp", 4)
    idx = ParabolicIndex(sp4, frozenset({0}))
    assert levi_topological_type(sp4, idx, (3, 2)) == (3, 0)


def test_levi_topological_type_on_the_d_fork():
    # I holds alpha_(n-1) but not alpha_n: the Levi is a GL(n) with the
    # sign of the last coordinate flipped, not the blocks GL(n-1) x SO(2)
    so8 = GroupFamily("so", 8)
    assert levi_topological_type(so8, ParabolicIndex(so8, frozenset({2})),
                                 (3, 2, 1, 1)) == \
        (Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), Fraction(-5, 4))
    so4 = GroupFamily("so", 4)
    assert levi_topological_type(so4, ParabolicIndex(so4, frozenset({0})),
                                 (3, 1)) == (1, -1)


CENTRE_GRID = [GroupFamily("gl", r) for r in range(1, 8)] + \
    [GroupFamily("sl", r) for r in range(2, 8)] + \
    [GroupFamily("sp", r) for r in range(2, 13, 2)] + \
    [GroupFamily("so", r) for r in range(3, 13)]


@pytest.mark.parametrize("family", CENTRE_GRID, ids=lambda f: f"{f.kind}{f.r}")
def test_levi_topological_type_is_the_central_projection(family):
    """The Levi roots vanish on the type, and a less the type lies in the
    span of the Levi coroots; off the D_n fork the type is the per-block
    average."""
    rng = random.Random(f"centre {family.kind}{family.r}")
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        levi = _root_split(index)[0]
        for _ in range(3):
            a = [rng.randint(-3, 3) for _ in range(family.cartan_dim)]
            if family.kind == "sl":
                a[-1] -= sum(a)
            centre = levi_topological_type(family, index, a)
            assert all(evaluate(alpha, centre) == 0 for alpha in levi)
            rest = [x - c for x, c in zip(a, centre)]
            assert solve_rational([coroot(family, alpha) for alpha in levi],
                                  rest) is not None, (index, a)
            if not on_the_fork(index):
                assert centre == block_topological_type(family, index, a)


@pytest.fixture
def no_roots(monkeypatch):
    """The root lists and the oracle's root table, patched to raise:
    all_roots lists the positive roots, so no root list survives."""
    def refused(*args):
        raise AssertionError("a closed form read the root table")

    monkeypatch.setattr(oracles, "positive_roots", refused)
    monkeypatch.setattr(oracles, "_root_supports", refused)


@pytest.mark.parametrize("family", CENTRE_GRID, ids=lambda f: f"{f.kind}{f.r}")
def test_levi_centre_and_groups_read_no_roots(family, no_roots):
    rng = random.Random(f"no roots {family.kind}{family.r}")
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        a = [rng.randint(-3, 3) for _ in range(family.cartan_dim)]
        if family.kind == "sl":
            a[-1] -= sum(a)
        centre = levi_topological_type(family, index, a)
        assert on_the_fork(index) or \
            centre == block_topological_type(family, index, a), index
        levi_fundamental_groups(family, index)


def test_levi_centre_and_groups_past_the_root_table_guard(no_roots):
    # GL200 has blocks of 1, 99 and 100
    gl200 = GroupFamily("gl", 200)
    index = ParabolicIndex(gl200, frozenset({0, 99}))
    a = tuple(range(200))
    assert levi_topological_type(gl200, index, a) == \
        block_topological_type(gl200, index, a) == \
        (0,) + (50,) * 99 + (Fraction(299, 2),) * 100
    assert levi_fundamental_groups(gl200, index)[1].describe() == "Z x Z x Z"
    # SO400 on the fork: x_199 joins the block of x_0 .. x_198 negated
    so400 = GroupFamily("so", 400)
    fork = ParabolicIndex(so400, frozenset({198}))
    ones = (1,) * 199 + (-1,)
    assert levi_topological_type(so400, fork, ones) == ones
    assert levi_topological_type(so400, fork, (2,) + (0,) * 199) == \
        (Fraction(1, 100),) * 199 + (Fraction(-1, 100),)
    assert levi_fundamental_groups(so400, fork)[1].describe() == "Z"
    # with both fork roots outside I, L_I keeps an SO(4) factor
    tail = ParabolicIndex(so400, frozenset({197}))
    assert levi_topological_type(so400, tail, (1,) * 200) == (1,) * 198 + (0, 0)
    assert levi_fundamental_groups(so400, tail)[1].describe() == "Z x Z/2"


def _quotient(ambient_basis, spanning):
    """Reference quotient of the lattice on ambient_basis by the span of
    spanning: coordinates of each spanning vector by a rational solve, then
    a Smith normal form of the coordinate matrix."""
    if not spanning:
        return FinAbGroup(len(ambient_basis), ())
    coords = []
    for v in spanning:
        c = solve_rational(ambient_basis, v)
        assert c is not None and all(x.denominator == 1 for x in c)
        coords.append([int(x) for x in c])
    nonzero = [d for d in smith_normal_form(coords)[0] if d != 0]
    return FinAbGroup(len(ambient_basis) - len(nonzero),
                      tuple(d for d in nonzero if d > 1))


def _groups_oracle(t, roots):
    """(pi1_der, pi1, pi1_ab) as the three quotients Lambda-hat/Lambda,
    Gamma/Lambda and Gamma/Lambda-hat."""
    coroots = [coroot(t.family, a) for a in roots]
    return (_quotient(t.lam_sat.basis, coroots),
            _quotient(t.gamma_basis, coroots),
            _quotient(t.gamma_basis, t.lam_sat.basis))


RANK_EIGHT = [GroupFamily(k, r) for k in ("gl", "sl") for r in range(1, 9)] + \
    [GroupFamily("sp", r) for r in (2, 4, 6, 8)] + \
    [GroupFamily("so", r) for r in range(3, 9)]


@pytest.mark.parametrize("family", RANK_EIGHT, ids=lambda f: f"{f.kind}{f.r}")
def test_groups_equal_the_three_quotients(family):
    assert fundamental_groups(family) == \
        _groups_oracle(lattice_tower(family), all_roots(family))
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        assert levi_fundamental_groups(family, index) == _groups_oracle(
            levi_lattice_tower(family, index), _root_split(index)[0])


def _free_functionals_oracle(family):
    """Reference free forms: the Hermite-reduced integer row kernel of the
    transposed coroot matrix, less the rows that vanish on Gamma."""
    coroots = [coroot(family, a) for a in all_roots(family)]
    kernel = _row_kernel([[cr[i] for cr in coroots]
                          for i in range(family.cartan_dim)])
    gamma = lattice_tower(family).gamma_basis
    return tuple(f for f in kernel if any(evaluate(f, g) for g in gamma))


@pytest.mark.parametrize("family", RANK_EIGHT, ids=lambda f: f"{f.kind}{f.r}")
def test_free_functionals_equal_the_row_kernel_oracle(family):
    forms = _free_functionals_oracle(family)
    # the free part of pi1 is Z, read by the total degree, for GL only
    assert forms == (((1,) * family.r,) if family.kind == "gl" else ())
    rng = random.Random(f"{family.kind}{family.r}")
    for _ in range(50):
        a = [rng.randint(-2, 2) for _ in range(family.cartan_dim)]
        if family.kind == "sl":
            a[-1] -= sum(a)
        assert obstruction_class(family, a)[0] == \
            tuple(evaluate(f, a) for f in forms), a


def test_closed_forms_make_no_smith_normal_form(monkeypatch):
    def refused(mat):
        raise AssertionError("a closed form took a Smith normal form")

    monkeypatch.setattr(oracles, "smith_normal_form", refused)
    for family in [GroupFamily("gl", 4), GroupFamily("so", 7), GroupFamily("sp", 6),
                   GroupFamily("so", 8), GroupFamily("sl", 3)]:
        obstruction_class(family, (1, -1) + (0,) * (family.cartan_dim - 2))
        fundamental_groups(family)
        count = len(simple_roots(family))
        for bits in range(1 << count):
            levi_fundamental_groups(family, ParabolicIndex(family, frozenset(
                i for i in range(count) if bits >> i & 1)))


# every parabolic index of these families, 1,142 in all, and 50 seeded
# degree vectors per family
CLOSED_FORM_GRID = [GroupFamily(k, r) for k in ("gl", "sl") for r in range(1, 9)] + \
    [GroupFamily("sp", r) for r in range(2, 15, 2)] + \
    [GroupFamily("so", r) for r in range(3, 15)]


@pytest.mark.parametrize("family", CLOSED_FORM_GRID,
                         ids=lambda f: f"{f.kind}{f.r}")
def test_closed_forms_equal_the_snf_oracle(family):
    assert fundamental_groups(family) == _tower_groups(lattice_tower(family))
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = ParabolicIndex(family, frozenset(
            i for i in range(count) if bits >> i & 1))
        assert levi_fundamental_groups(family, index) == \
            _tower_groups(levi_lattice_tower(family, index)), index
    rng = random.Random(f"obstruction {family.kind}{family.r}")
    for _ in range(50):
        a = [rng.randint(-3, 3) for _ in range(family.cartan_dim)]
        if family.kind == "sl":
            a[-1] -= sum(a)
        assert obstruction_class(family, a)[1] == tower_residues(family, a), a


def _obstruction_oracle(family, a):
    """Reference torsion residues: coordinates of a and of the Lambda basis
    over Gamma by rational solves, then a second Smith normal form."""
    t = lattice_tower(family)
    coords = [int(c) for c in solve_rational(t.gamma_basis, a)]
    rel = [[int(c) for c in solve_rational(t.gamma_basis, v)] for v in t.lam.basis]
    diag, vmat, _ = smith_normal_form(rel)
    adapted = [sum(coords[i] * vmat[i][j] for i in range(len(coords)))
               for j in range(len(coords))]
    return tuple(adapted[i] % d for i, d in enumerate(diag) if d > 1)


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 3), ("sl", 4), ("sp", 6), ("so", 4), ("so", 5), ("so", 6),
    ("so", 7), ("so", 8))], ids=lambda f: f"{f.kind}{f.r}")
def test_obstruction_residues_equal_the_second_snf(family):
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        if family.kind == "sl" and sum(a) != 0:
            continue
        assert obstruction_class(family, a)[1] == _obstruction_oracle(family, a)


def _det(mat):
    if not mat:
        return 1
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


def test_smith_normal_form_transform_and_factors():
    rng = random.Random(7)
    for _ in range(300):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)]
        diag, v, vinv = smith_normal_form(mat)
        assert [[sum(v[i][t] * vinv[t][j] for t in range(m)) for j in range(m)]
                for i in range(m)] == [[int(i == j) for j in range(m)] for i in range(m)]
        factors = [d for d in diag if d != 0]
        assert diag == factors + [0] * (len(diag) - len(factors))
        assert all(d > 0 for d in factors)
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
        # mat * V = U^{-1} * diag: column i is d_i times a primitive column,
        # the columns past the rank vanish
        mv = [[sum(row[t] * v[t][j] for t in range(m)) for j in range(m)] for row in mat]
        for j in range(m):
            g = 0
            for row in mv:
                g = gcd(g, row[j])
            assert g == (factors[j] if j < len(factors) else 0)
        # d_1 * ... * d_j is the gcd of the j x j minors
        for j in range(1, min(k, m) + 1):
            g = 0
            for rows in combinations(range(k), j):
                for cols in combinations(range(m), j):
                    g = gcd(g, _det([[mat[r][c] for c in cols] for r in rows]))
            expected = 1
            for d in diag[:j]:
                expected *= d
            assert g == expected
