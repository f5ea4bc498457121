import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hnbundles.bundle import (Atom, PlainBundle, SlBundle, SoBundle, SpBundle,
                              is_semistable, vertical_degree)
from hnbundles.canon import (HNType, ad_degree, ad_degree_max_oracle,
                             bh_conditions, canonical_reduction, check_bh,
                             forced_index, hn_type)
from hnbundles.errors import (FamilyMismatch, InvalidReduction, NotIntegral,
                              TooLarge)
from hnbundles.lattice import topological_type
from hnbundles.parabolic import ParabolicIndex, _root_split
from hnbundles.rootsys import (GroupFamily, all_roots, as_cocharacter,
                               evaluate, is_dominant, is_root, simple_roots,
                               weyl_orbit)


def test_canonical_reduction_examples():
    sp4 = GroupFamily("sp", 4)
    red = canonical_reduction(sp4, (2, 1))
    assert red.index.members == {0, 1}
    assert red.mu.mu == (2, 1)
    assert len(red.ad_parabolic_roots) + sp4.torus_dim == 6
    red2 = canonical_reduction(sp4, (1, 1))
    assert red2.index.members == {1}
    red3 = canonical_reduction(GroupFamily("gl", 3), (0, 0, 0))
    assert red3.index.members == set() and red3.mu.mu == (0, 0, 0)


def test_canonical_reduction_errors():
    with pytest.raises(NotIntegral):
        canonical_reduction(GroupFamily("gl", 2), (Fraction(1, 2), 0))
    gl2 = GroupFamily("gl", 2)
    with pytest.raises(NotIntegral):
        ad_degree_max_oracle(gl2, (Fraction(3, 2), Fraction(1, 2)))
    with pytest.raises(NotIntegral):
        ad_degree_max_oracle(gl2, (1,))
    red = canonical_reduction(gl2, (1, 0))
    with pytest.raises(NotIntegral):
        check_bh(gl2, (Fraction(3, 2), Fraction(1, 2)), red)
    with pytest.raises(NotIntegral):
        check_bh(gl2, (1,), red)
    # evaluate zips and would silently truncate a short point
    gl3, sp4 = GroupFamily("gl", 3), GroupFamily("sp", 4)
    with pytest.raises(ValueError):
        ad_degree(gl3, ParabolicIndex(gl3, frozenset({0, 1})), (5,))
    with pytest.raises(FamilyMismatch):
        ad_degree(gl3, ParabolicIndex(sp4, frozenset({0})), (1, 2, 3))
    with pytest.raises(ValueError):
        bh_conditions(gl3, ParabolicIndex(gl3, frozenset({0})), (5,))
    with pytest.raises(FamilyMismatch):
        bh_conditions(sp4, ParabolicIndex(gl3, frozenset({0})), (1, 2))
    # an equal family object built elsewhere is the same family
    assert ad_degree(gl3, ParabolicIndex(GroupFamily("gl", 3), frozenset({0})),
                     (1, 0, 0)) == 2


def test_hn_type_errors():
    gl3 = GroupFamily("gl", 3)
    with pytest.raises(ValueError, match="has 2 coordinates, gl3 needs 3"):
        HNType(gl3, (1, 0))
    with pytest.raises(ValueError, match=r"HN type \(0, 1/2, 0\) is not dominant"):
        HNType(gl3, (0, Fraction(1, 2), 0))


def test_hn_type_examples():
    b = PlainBundle((Atom(3, 1), Atom(1, 2), Atom(1, 2), Atom(-2, 1)))
    assert hn_type(b).mu == (3, Fraction(1, 2), Fraction(1, 2),
                             Fraction(1, 2), Fraction(1, 2), -2)
    sp = SpBundle((Atom(2, 1),), (Atom(0, 2),))
    assert hn_type(sp).mu == (2, 0)
    flat = PlainBundle((Atom(2, 2), Atom(1, 1)))
    assert hn_type(flat).mu == (1, 1, 1)
    assert hn_type(flat).mu == topological_type(GroupFamily("gl", 3), (2, 1, 0))


def test_check_bh_examples():
    gl4 = GroupFamily("gl", 4)
    red = canonical_reduction(gl4, (3, 2, 1, 0))
    ok, degrees = check_bh(gl4, (3, 2, 1, 0), red)
    assert ok and all(d > 0 for d in degrees)
    chi = (1, 1, -1, -1)
    assert evaluate(chi, (3, 2, 1, 0)) == 4
    red0 = canonical_reduction(gl4, (0, 0, 0, 0))
    assert check_bh(gl4, (0, 0, 0, 0), red0) == (True, [])
    gl3 = GroupFamily("gl", 3)
    red1 = canonical_reduction(gl3, (1, 1, 0))
    assert red1.index.members == {1}
    ok1, deg1 = check_bh(gl3, (1, 1, 0), red1)
    assert ok1 and all(d > 0 for d in deg1)


def test_check_bh_rejects_wrong_orbit():
    gl3 = GroupFamily("gl", 3)
    red = canonical_reduction(gl3, (1, 1, 0))
    with pytest.raises(InvalidReduction):
        check_bh(gl3, (5, 0, 0), red)


def test_ad_degree_max_examples():
    gl2 = GroupFamily("gl", 2)
    best, argmax = ad_degree_max_oracle(gl2, (1, 0))
    assert best == 1
    assert all(v == (1, 0) for _, v in argmax)
    best0, argmax0 = ad_degree_max_oracle(gl2, (0, 0))
    assert best0 == 0 and len(argmax0) == 2  # both subsets, single orbit point
    sp4 = GroupFamily("sp", 4)
    best2, argmax2 = ad_degree_max_oracle(sp4, (1, 1))
    red = canonical_reduction(sp4, (1, 1))
    assert ad_degree(sp4, red.index, red.mu.mu) == best2


def test_ad_degree_guard():
    with pytest.raises(TooLarge):
        ad_degree_max_oracle(GroupFamily("gl", 6), (0,) * 6)


def _root_sum(index, v):
    """Reference adjoint degree: every Levi and nilradical root evaluated at v."""
    levi, nilrad = _root_split(index)
    return sum(evaluate(a, v) for a in levi) + sum(evaluate(a, v) for a in nilrad)


def _indices(family):
    count = len(simple_roots(family))
    return [ParabolicIndex(family, frozenset(i for i in range(count) if bits >> i & 1))
            for bits in range(1 << count)]


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 1), ("gl", 2), ("gl", 3), ("sl", 1), ("sl", 2), ("sl", 3),
    ("sp", 2), ("sp", 4), ("sp", 6), ("so", 3), ("so", 4), ("so", 5),
    ("so", 6), ("so", 7))])
def test_ad_degree_equals_root_sum(family):
    for index in _indices(family):
        for v in product(range(-2, 3), repeat=family.cartan_dim):
            assert ad_degree(family, index, v) == _root_sum(index, v)


def test_ad_degree_equals_root_sum_sampled_rank_four():
    rng = random.Random(4)
    for family in [GroupFamily(k, r) for k, r in (
            ("gl", 4), ("sl", 4), ("sp", 8), ("so", 8), ("so", 9))]:
        indices = _indices(family)
        for _ in range(200):
            index = rng.choice(indices)
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(family.cartan_dim))
            assert ad_degree(family, index, v) == _root_sum(index, v)


def _ad_degree_max_by_pairs(family, a):
    """Reference oracle: one ad_degree call per (index, Weyl point) pair,
    indices in the order of their bit masks, points in orbit order."""
    best, argmax = None, []
    for index in _indices(family):
        for v in weyl_orbit(family, as_cocharacter(family, a)):
            val = ad_degree(family, index, v)
            if best is None or val > best:
                best, argmax = val, [(index, v)]
            elif val == best:
                argmax.append((index, v))
    return best, argmax


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 3), ("sl", 3), ("sp", 4), ("so", 5), ("so", 6))], ids=str)
def test_oracle_equals_the_per_pair_loop(family):
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        # same best, same argmax pairs in the same order
        assert ad_degree_max_oracle(family, a) == \
            _ad_degree_max_by_pairs(family, a), a


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 4), ("sl", 4), ("sp", 8), ("so", 8), ("so", 9))], ids=str)
def test_oracle_equals_the_per_pair_loop_sampled_rank_four(family):
    # SO8 has the D4 fork and the sign parity of even SO
    rng = random.Random(f"{family}-9")
    for _ in range(40):
        a = [rng.randint(-3, 3) for _ in range(family.cartan_dim)]
        if family.kind == "sl":
            a[-1] -= sum(a)
        assert ad_degree_max_oracle(family, a) == \
            _ad_degree_max_by_pairs(family, a), (family, a)


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 3), ("sl", 3), ("sp", 4), ("sp", 6), ("so", 4), ("so", 5), ("so", 7))])
def test_canonical_root_sets_are_the_roots_nonnegative_at_mu(family):
    # reference: rescan every root at the dominant representative
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        if family.kind == "sl" and sum(a) != 0:
            continue
        red = canonical_reduction(family, a)
        mu = red.mu.mu
        assert red.ad_positive_roots == frozenset(
            r for r in all_roots(family) if evaluate(r, mu) > 0)
        assert red.ad_parabolic_roots == frozenset(
            r for r in all_roots(family) if evaluate(r, mu) >= 0)


def bracket_closure_check(red):
    """Root-level shadow of Lie-bracket closure: both adjoint root sets
    are closed under root addition."""
    for roots in (red.ad_positive_roots, red.ad_parabolic_roots):
        for x in roots:
            for y in roots:
                s = tuple(p + q for p, q in zip(x, y))
                if any(s) and is_root(red.family, s) and s not in roots:
                    return False
    return True


def test_bracket_closure():
    sp4 = GroupFamily("sp", 4)
    assert bracket_closure_check(canonical_reduction(sp4, (2, 1)))
    assert bracket_closure_check(canonical_reduction(sp4, (0, 0)))
    assert bracket_closure_check(canonical_reduction(sp4, (1, 0)))
    red = canonical_reduction(sp4, (1, 0))
    assert red.ad_positive_roots == {(1, -1), (1, 1), (2, 0)}


@pytest.mark.parametrize("family", [GroupFamily("gl", 3), GroupFamily("sp", 4),
                                    GroupFamily("so", 5), GroupFamily("so", 4)])
def test_canonical_attains_max_and_others_fail(family):
    simples = simple_roots(family)
    count = len(simples)
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        red = canonical_reduction(family, a)
        mu = red.mu.mu
        best, argmax = ad_degree_max_oracle(family, a)
        assert ad_degree(family, red.index, mu) == best
        assert best == sum(evaluate(r, mu) for r in red.ad_positive_roots)
        # the canonical parabolic is inclusion-maximal among attainers
        for index, v in argmax:
            assert index.members >= red.index.members
        ok, degrees = check_bh(family, a, red)
        assert ok and all(d > 0 for d in degrees)
        for bits in range(1 << count):
            index = ParabolicIndex(family, frozenset(
                i for i in range(count) if bits >> i & 1))
            for v in weyl_orbit(family, tuple(a)):
                if index == red.index and v == mu:
                    continue
                levi_ss, degs = bh_conditions(family, index, v)
                bh_holds = levi_ss and all(d > 0 for d in degs)
                maximal = ad_degree(family, index, v) == best and \
                    index.members == red.index.members
                assert not (bh_holds and maximal)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([GroupFamily("gl", 4), GroupFamily("sl", 4),
                        GroupFamily("sp", 6), GroupFamily("so", 7),
                        GroupFamily("so", 6)]),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_chamber_law(family, coords):
    a = list((coords * 4)[: family.cartan_dim])
    if family.kind == "sl":
        a[-1] -= sum(a)
    red = canonical_reduction(family, a)
    mu = red.mu.mu
    assert is_dominant(family, mu)
    for i, alpha in enumerate(simple_roots(family)):
        assert (evaluate(alpha, mu) > 0) == (i in red.index.members)


def test_vertical_degree_consistency():
    # maximal-parabolic reduction of a torus-split GL bundle: the negated
    # parabolic degree sum is the vertical degree of the flag
    gl4 = GroupFamily("gl", 4)
    for a in product(range(-2, 3), repeat=4):
        d = sum(a)
        for l in range(1, 4):
            index = ParabolicIndex(gl4, frozenset({l - 1}))
            f = sum(a[:l])
            assert -ad_degree(gl4, index, a) == \
                vertical_degree(gl4, (d, 4), (f, l))


def test_hn_type_equals_topological_type_iff_semistable():
    cases = [PlainBundle((Atom(1, 2), Atom(1, 2))),
             PlainBundle((Atom(2, 1), Atom(0, 1))),
             SpBundle((Atom(1, 1),), ()),
             SpBundle((), (Atom(0, 4),))]
    fams = [GroupFamily("gl", 4), GroupFamily("gl", 2),
            GroupFamily("sp", 2), GroupFamily("sp", 4)]
    for b, fam in zip(cases, fams):
        central = topological_type(fam, tuple([0] * fam.cartan_dim)) \
            if fam.kind != "gl" else tuple(
                [Fraction(sum(x.degree for x in b.atoms), b.rank)] * fam.cartan_dim)
        assert (hn_type(b).mu == central) == is_semistable(b)


def test_so_even_rank_flag_in_index():
    so6 = GroupFamily("so", 6)
    b = SoBundle((Atom(1, 1), Atom(2, 1)), (Atom(0, 2),))  # isotropic rank 2 = n-1
    t = hn_type(b)
    index = forced_index(so6, t.mu)
    assert {1, 2} <= index.members
