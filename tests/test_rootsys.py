from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from hnbundles.errors import NotARoot, NotIntegral, TooLarge, UnsupportedRank
from hnbundles.rootsys import (GroupFamily, all_roots, as_cocharacter, coroot,
                               dominant_representative, evaluate, is_dominant,
                               is_root, positive_roots, reflect, root_name,
                               simple_roots, weyl_group_order, weyl_orbit)

FAMILIES = [GroupFamily("gl", 3), GroupFamily("gl", 4), GroupFamily("sl", 3),
            GroupFamily("sl", 4), GroupFamily("sp", 4), GroupFamily("sp", 6),
            GroupFamily("so", 4), GroupFamily("so", 5), GroupFamily("so", 6),
            GroupFamily("so", 7)]


def test_simple_roots_examples():
    assert simple_roots(GroupFamily("gl", 2)) == ((1, -1),)
    assert simple_roots(GroupFamily("sp", 4)) == ((1, -1), (0, 2))
    assert simple_roots(GroupFamily("so", 4)) == ((1, -1), (1, 1))
    assert simple_roots(GroupFamily("so", 5)) == ((1, -1), (0, 1))


def test_positive_roots_examples():
    assert set(positive_roots(GroupFamily("gl", 3))) == {
        (1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert set(positive_roots(GroupFamily("sp", 4))) == {
        (1, -1), (1, 1), (2, 0), (0, 2)}
    assert set(positive_roots(GroupFamily("so", 5))) == {
        (1, -1), (1, 1), (1, 0), (0, 1)}


def test_so2_rejected_outside_semistability():
    with pytest.raises(UnsupportedRank):
        simple_roots(GroupFamily("so", 2))


def test_as_cocharacter():
    gl3 = GroupFamily("gl", 3)
    out = as_cocharacter(gl3, [Fraction(2), -1, 0])
    assert out == (2, -1, 0) and all(type(c) is int for c in out)
    for bad in [(Fraction(1, 2), 0, 0), (1.0, 0, 0), (1, 2), (1, 2, 3, 4)]:
        with pytest.raises(NotIntegral):
            as_cocharacter(gl3, bad)
    # the SL trace condition is lattice membership, not checked here
    assert as_cocharacter(GroupFamily("sl", 3), (1, 1, 1)) == (1, 1, 1)


def test_coroot_examples():
    assert coroot(GroupFamily("gl", 2), (1, -1)) == (1, -1)
    assert coroot(GroupFamily("sp", 4), (2, 0)) == (1, 0)
    assert coroot(GroupFamily("so", 5), (1, 0)) == (2, 0)


def test_coroot_rejects_non_roots():
    with pytest.raises(NotARoot):
        coroot(GroupFamily("gl", 3), (1, 1, 0))


def test_weyl_orbit_examples():
    assert set(weyl_orbit(GroupFamily("gl", 2), (1, 0))) == {(1, 0), (0, 1)}
    assert set(weyl_orbit(GroupFamily("sp", 4), (1, 0))) == {
        (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(weyl_orbit(GroupFamily("so", 4), (1, 1))) == {(1, 1), (-1, -1)}


def test_orbit_guard():
    with pytest.raises(TooLarge):
        weyl_orbit(GroupFamily("gl", 9), tuple(range(9)))


def test_dominant_representative_examples():
    assert dominant_representative(GroupFamily("gl", 3), (0, 3, -1)) == (3, 0, -1)
    assert dominant_representative(GroupFamily("sp", 4), (-2, 1)) == (2, 1)
    assert dominant_representative(GroupFamily("so", 4), (1, -2)) == (2, -1)


@pytest.mark.parametrize("family", FAMILIES)
def test_reflections_preserve_root_system(family):
    roots = all_roots(family)
    for alpha in roots:
        for beta in roots:
            assert is_root(family, reflect(family, alpha, beta))


@pytest.mark.parametrize("family", FAMILIES)
def test_positive_root_count(family):
    assert len(positive_roots(family)) == (family.dim_group - family.torus_dim) // 2


@pytest.mark.parametrize("family", FAMILIES)
def test_positive_roots_decompose_over_simples(family):
    from hnbundles.intlin import solve_rational
    simples = simple_roots(family)
    for alpha in positive_roots(family):
        coeffs = solve_rational(simples, alpha)
        assert coeffs is not None
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)


@pytest.mark.parametrize("family", FAMILIES)
def test_orbit_matches_permutation_model(family):
    v = tuple(range(family.cartan_dim, 0, -1))
    orbit = set(weyl_orbit(family, v))
    perms = set(permutations(v))
    if family.kind in ("gl", "sl"):
        assert orbit == perms
    else:
        signed = set()
        for p in perms:
            for signs in product((1, -1), repeat=len(p)):
                flips = signs.count(-1)
                if family.kind == "so" and family.r % 2 == 0 and flips % 2:
                    continue
                signed.add(tuple(s * c for s, c in zip(signs, p)))
        assert orbit == signed


@pytest.mark.parametrize("family", FAMILIES)
def test_weyl_group_order(family):
    import math
    n = family.cartan_dim
    if family.kind in ("gl", "sl"):
        expected = math.factorial(n)
    elif family.kind == "sp" or family.r % 2 == 1:
        expected = 2 ** n * math.factorial(n)
    else:
        expected = 2 ** (n - 1) * math.factorial(n)
    assert weyl_group_order(family) == expected


@given(st.sampled_from(FAMILIES),
       st.lists(st.integers(-6, 6), min_size=1, max_size=8))
def test_dominant_representative_idempotent(family, coords):
    v = tuple((coords * 8)[: family.cartan_dim])
    rep = dominant_representative(family, v)
    assert is_dominant(family, rep)
    assert dominant_representative(family, rep) == rep
    assert rep in weyl_orbit(family, v)


def test_root_names():
    gl4 = GroupFamily("gl", 4)
    assert [root_name(gl4, i) for i in range(3)] == ["a1,2", "a2,3", "a3,4"]
    assert root_name(GroupFamily("sp", 4), 1) == "2a2"
    assert root_name(GroupFamily("so", 5), 1) == "a2"
    assert root_name(GroupFamily("so", 6), 2) == "a2+a3"
