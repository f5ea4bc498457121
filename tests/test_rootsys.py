import random
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from hnbundles import canon, lattice, parabolic, rootsys, strata
from hnbundles.errors import NotARoot, NotIntegral, TooLarge, UnsupportedRank
from hnbundles.rootsys import (GroupFamily, all_roots, as_cocharacter, coroot,
                               dominant_representative, evaluate, is_dominant,
                               is_root, positive_roots, root_name,
                               simple_root_coordinates, simple_roots,
                               weyl_orbit, weyl_orbit_size)
from oracles import solve_rational

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


def test_orbit_guard_counts_points_not_dimension():
    # a regular B8 point has 2^8 * 8! = 10,321,920 translates: refused from
    # the closed-form size, before any of them is built
    b8 = GroupFamily("so", 17)
    assert weyl_orbit_size(b8, range(8, 0, -1)) == 10321920
    with pytest.raises(TooLarge):
        weyl_orbit(b8, tuple(range(8, 0, -1)))
    # a small orbit in a large dimension is enumerated
    gl12 = GroupFamily("gl", 12)
    e1 = (1,) + (0,) * 11
    assert len(weyl_orbit(gl12, e1)) == weyl_orbit_size(gl12, e1) == 12
    assert weyl_orbit_size(GroupFamily("so", 8), (1, 2, 3, 4)) == 192
    assert weyl_orbit_size(GroupFamily("so", 8), (1, 2, 3, 0)) == 192
    assert weyl_orbit_size(GroupFamily("sp", 8), (1, -1, 0, 0)) == 24


def test_dominant_representative_examples():
    assert dominant_representative(GroupFamily("gl", 3), (0, 3, -1)) == (3, 0, -1)
    assert dominant_representative(GroupFamily("sp", 4), (-2, 1)) == (2, 1)
    assert dominant_representative(GroupFamily("so", 4), (1, -2)) == (2, -1)


def _reflect(family, root, v):
    """Reflection s_root applied to a Cartan vector: v - root(v) * coroot."""
    cr = coroot(family, root)
    val = evaluate(root, v)
    return tuple(x - val * c for x, c in zip(v, cr))


def _orbit_by_reflections(family, v):
    """Reference Weyl orbit: every point reached from v by simple
    reflections, breadth first.  W acts linearly, so the loop runs on the
    integer point m * v, m the common denominator, and divides by m at
    the end."""
    simples = simple_roots(family)
    m = lcm(*(Fraction(x).denominator for x in v))
    v = tuple(int(x * m) for x in v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for a in simples:
                img = _reflect(family, a, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {tuple(Fraction(x, m) for x in w) for w in seen}


@pytest.mark.parametrize("family", FAMILIES)
def test_reflections_preserve_root_system(family):
    roots = all_roots(family)
    for alpha in roots:
        for beta in roots:
            assert is_root(family, _reflect(family, alpha, beta))


def _dim_group(family):
    """Dimension of the group of the family."""
    r = family.r
    if family.kind == "gl":
        return r * r
    if family.kind == "sl":
        return r * r - 1
    if family.kind == "sp":
        n = r // 2
        return n * (2 * n + 1)
    return r * (r - 1) // 2


@pytest.mark.parametrize("family", FAMILIES)
def test_positive_root_count(family):
    assert len(positive_roots(family)) == (_dim_group(family) - family.torus_dim) // 2


@pytest.mark.parametrize("family", FAMILIES)
def test_positive_roots_decompose_over_simples(family):
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


def _weyl_group_order(family):
    """Order of the Weyl group: the orbit size of a regular vector."""
    return weyl_orbit_size(family, range(family.cartan_dim, 0, -1))


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
    assert _weyl_group_order(family) == expected


@given(st.sampled_from(FAMILIES),
       st.lists(st.integers(-6, 6), min_size=1, max_size=8))
def test_dominant_representative_idempotent(family, coords):
    v = tuple((coords * 8)[: family.cartan_dim])
    rep = dominant_representative(family, v)
    assert is_dominant(family, rep)
    assert dominant_representative(family, rep) == rep
    assert rep in weyl_orbit(family, v)


def _dominant_by_reflections(family, v):
    """Reference dominant representative: reflect in a simple root that is
    negative on v until none is."""
    simples = simple_roots(family)
    v = tuple(v)
    while True:
        for a in simples:
            if evaluate(a, v) < 0:
                v = _reflect(family, a, v)
                break
        else:
            return v


ORACLE_FAMILIES = ([GroupFamily("gl", r) for r in range(1, 6)]
                   + [GroupFamily("sl", r) for r in range(2, 5)]
                   + [GroupFamily("sp", r) for r in (2, 4, 6, 8)]
                   + [GroupFamily("so", r) for r in range(3, 11)])


def _oracle_points(family, seed):
    """Seeded points: the origin, ten each of integers, half-integers and
    thirds (zero entries included), then a point with no zero entry and
    exactly one negative one, the same point with its last entry zeroed,
    and the first one halved: for even SO the chamber flips the last sign
    of the first and the third, not of the second."""
    rng = random.Random(seed)
    dim = family.cartan_dim
    points = [(0,) * dim]
    for den in (1, 2, 3):
        for _ in range(10):
            points.append(tuple(Fraction(rng.randint(-6, 6), den) if den > 1
                                else rng.randint(-6, 6) for _ in range(dim)))
    nonzero = [rng.randint(1, 4) for _ in range(dim)]
    odd = (-nonzero[0],) + tuple(nonzero[1:])
    return points + [odd, odd[:-1] + (0,), tuple(Fraction(c, 2) for c in odd)]


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=str)
def test_weyl_orbit_equals_the_reflection_orbit(family):
    for v in _oracle_points(family, 5):
        orbit = weyl_orbit(family, v)
        assert set(orbit) == _orbit_by_reflections(family, v), v
        assert len(orbit) == len(set(orbit)) == weyl_orbit_size(family, v), v
        assert list(orbit) == sorted(orbit, reverse=True), v


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=str)
def test_dominant_representative_equals_the_reflection_loop(family):
    for v in _oracle_points(family, 7):
        rep = dominant_representative(family, v)
        assert rep == _dominant_by_reflections(family, v), v
        orbit = weyl_orbit(family, v)
        assert rep in orbit and weyl_orbit_size(family, v) == len(orbit), v


@pytest.mark.parametrize("family", [f for f in ORACLE_FAMILIES
                                    if f.cartan_dim <= 3], ids=str)
def test_weyl_orbit_is_one_cache_entry_per_orbit(family):
    # the cache key is the dominant point: the orbit built from any of its
    # points is the one built from that key, and a lookup there is a hit
    build = rootsys._weyl_orbit.__wrapped__
    for v in product(range(-2, 3), repeat=family.cartan_dim):
        orbit = weyl_orbit(family, v)
        for w in orbit:
            assert build(family, w) == orbit, (v, w)
            before = weyl_orbit.cache_info()
            assert weyl_orbit(family, w) is orbit, (v, w)
            after = weyl_orbit.cache_info()
            assert (after.hits, after.misses) == \
                (before.hits + 1, before.misses), (v, w)


def test_type_d_chamber_flips_the_last_sign():
    so8 = GroupFamily("so", 8)
    assert dominant_representative(so8, (-1, 2, 3, Fraction(1, 2))) == \
        (3, 2, 1, Fraction(-1, 2))
    assert dominant_representative(so8, (-1, 2, 3, 0)) == (3, 2, 1, 0)
    assert dominant_representative(so8, (-1, -2, 3, 4)) == (4, 3, 2, 1)
    assert dominant_representative(GroupFamily("so", 9), (-1, 2, 3, 4)) == \
        (4, 3, 2, 1)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=str)
def test_simple_root_coordinates_equal_the_rational_solve(family):
    points = _oracle_points(family, 11)
    simples = simple_roots(family)
    seen = set()
    for mu, nu in zip(points, points[1:] + points[:1]):
        d = [a - b for a, b in zip(mu, nu)]
        # for GL/SL the raw difference is mostly off the span (unequal
        # totals); the centred one is on it
        centred = d[:-1] + [d[-1] - sum(d)]
        for point in (d, centred):
            coeffs = simple_root_coordinates(family, point)
            assert coeffs == solve_rational(simples, point), point
            seen.add(coeffs is None)
    assert seen == ({True, False} if family.kind in ("gl", "sl") else {False})


# GL1-14, SL2-14, Sp2-14 and SO3-14
TABLE_FAMILIES = [GroupFamily(kind, r) for kind in ("gl", "sl", "sp", "so")
                  for r in range(1, 15)
                  if (kind != "sl" or r >= 2) and (kind != "sp" or r % 2 == 0)
                  and (kind != "so" or r >= 3)]


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=str)
def test_simple_root_values_equal_the_table(family):
    rng = random.Random(str(family))
    simples = simple_roots(family)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(family.cartan_dim))
        assert rootsys._simple_root_values(family, v) == \
            [evaluate(a, v) for a in simples], v


def test_wrong_length_points_are_rejected():
    gl3, so6 = GroupFamily("gl", 3), GroupFamily("so", 6)
    sp6 = GroupFamily("sp", 6)
    for call in (lambda: dominant_representative(gl3, (1, 2, 3, 4)),
                 lambda: dominant_representative(gl3, (1, 2)),
                 lambda: weyl_orbit(gl3, (1, 2)),
                 lambda: weyl_orbit(gl3, [1, 2]),
                 lambda: weyl_orbit(so6, (0, 0, 0, 0)),
                 lambda: weyl_orbit(so6, [0, 0, 0, 0]),
                 lambda: is_dominant(gl3, (5,)),
                 lambda: canon.forced_index(gl3, (1, 0)),
                 lambda: canon.forced_index(sp6, (1, 0, 0, 5)),
                 lambda: simple_root_coordinates(gl3, (1, -1)),
                 lambda: simple_root_coordinates(so6, (1, 0, 0, -1)),
                 lambda: weyl_orbit_size(gl3, (1, 2))):
        with pytest.raises(ValueError, match=r"coordinates, (gl3|sp6|so6) needs 3"):
            call()
    # a list of the right length is a point like any other sequence
    assert weyl_orbit(GroupFamily("gl", 2), [1, 0]) == ((1, 0), (0, 1))
    assert weyl_orbit(so6, [0, 0, 1]) == weyl_orbit(so6, (0, 0, 1))
    # one home for the message, shared by every module that rejects points
    assert canon._point is parabolic._point is lattice._point is \
        strata._point is rootsys._point


def test_root_names():
    gl4 = GroupFamily("gl", 4)
    assert [root_name(gl4, i) for i in range(3)] == ["a1,2", "a2,3", "a3,4"]
    assert root_name(GroupFamily("sp", 4), 1) == "2a2"
    assert root_name(GroupFamily("so", 5), 1) == "a2"
    assert root_name(GroupFamily("so", 6), 2) == "a2+a3"
