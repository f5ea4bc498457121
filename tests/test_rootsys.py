import copy
import math
import pickle
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from hnbundles import bundle, canon, lattice, parabolic, rootsys, strata
from hnbundles.errors import (NotInKernelLattice, NotIntegral, TooLarge,
                              UnsupportedRank)
from hnbundles.oracles import (HULL_ORBIT_GUARD, _point as oracles_point,
                               hull_membership_lp_oracle)
from hnbundles.rootsys import (A, B, C, D, GroupFamily, as_cocharacter,
                               dominant_representative, evaluate,
                               positive_root_count, root_name,
                               simple_root_coordinates, simple_root_count,
                               weyl_orbit, weyl_orbit_size)
from oracles import (NotARoot, _sub, all_roots, coroot, forced_index,
                     is_dominant, is_root, positive_roots, simple_root_values,
                     simple_roots, solve_rational)

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
    # refused where the family is built, so no root-system formula sees it;
    # SO bundles of rank 2 keep their own rules (test_bundle)
    with pytest.raises(UnsupportedRank,
                       match=r"^SO\(2\) has no usable root system$") as info:
        GroupFamily("so", 2)
    assert info.traceback[-1].name == "__post_init__"
    with pytest.raises(UnsupportedRank, match="^SO requires r >= 2, got 1$"):
        GroupFamily("so", 1)


def test_unknown_family_kind_rejected():
    with pytest.raises(ValueError, match="unknown family kind 'xx'"):
        GroupFamily("xx", 3)
    # an unhashable kind cannot key the family table, and is refused as
    # unknown all the same
    with pytest.raises(ValueError, match=r"^unknown family kind \['gl'\]$"):
        GroupFamily(["gl"], 3)


@pytest.mark.parametrize("r", [2.0, True, "2", Fraction(2), Decimal(2)], ids=repr)
def test_a_rank_that_is_not_an_int_is_refused(r):
    # 2.0, True, Fraction(2) and Decimal(2) hash and compare like 2, so
    # each would key a family-keyed cache as GL2; the check comes before
    # the family table is read
    before = rootsys._family_table.cache_info()
    with pytest.raises(ValueError, match=f"^{re.escape(f'rank must be an int, got {r!r}')}$"):
        GroupFamily("gl", r)
    assert rootsys._family_table.cache_info() == before


@pytest.mark.parametrize("kind, r, error, message", [
    ("gl", 0, ValueError, "rank must be positive"),
    ("sl", -1, ValueError, "rank must be positive"),
    ("sp", 3, UnsupportedRank, "Sp requires even matrix size, got 3"),
])
def test_every_refusal_comes_from_post_init_on_each_call(kind, r, error, message):
    # the table keeps no refusal: each call runs the checks again (SO(1)
    # and SO(2) in test_so2_rejected_outside_semistability)
    for _ in range(2):
        with pytest.raises(error, match=f"^{message}$") as info:
            GroupFamily(kind, r)
        assert info.traceback[-1].name == "__post_init__"


def test_a_family_is_one_object_per_kind_and_rank():
    so6 = GroupFamily("so", 6)
    assert GroupFamily(kind="so", r=6) is so6
    assert GroupFamily("so", r=6) is so6
    assert replace(so6) is so6 and replace(so6, r=7) is GroupFamily("so", 7)
    assert copy.copy(so6) is so6 and copy.deepcopy(so6) is so6
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(so6, protocol)) is so6
    # the stored type and dimension are those the checks computed once
    assert vars(so6) == {"kind": "so", "r": 6, "cartan_type": D, "cartan_dim": 3}


def test_as_cocharacter():
    gl3 = GroupFamily("gl", 3)
    out = as_cocharacter(gl3, [Fraction(2), -1, 0])
    assert out == (2, -1, 0) and all(type(c) is int for c in out)
    for bad in [(Fraction(1, 2), 0, 0), (1.0, 0, 0), (1, 2), (1, 2, 3, 4)]:
        with pytest.raises(NotIntegral):
            as_cocharacter(gl3, bad)
    # on SL, Gamma is the trace-zero sublattice
    with pytest.raises(NotInKernelLattice, match="^SL cocharacters have trace zero$"):
        as_cocharacter(GroupFamily("sl", 3), (1, 1, 1))


class _Int(int):
    pass


def test_as_cocharacter_contract():
    # an int tuple passes one scan of its types; a bool, an int subclass or
    # an integral Fraction anywhere is converted: every entry is an int
    gl3 = GroupFamily("gl", 3)
    for a, expected in (
            ([2, -1, 0], (2, -1, 0)), (iter((2, -1, 0)), (2, -1, 0)),
            ((2, True, 0), (2, 1, 0)), ((True, False, True), (1, 0, 1)),
            ((_Int(2), -1, 0), (2, -1, 0)), ((2, -1, Fraction(0)), (2, -1, 0)),
            ((Fraction(4, 2), True, _Int(-5)), (2, 1, -5))):
        out = as_cocharacter(gl3, a)
        assert type(out) is tuple and out == expected, a
        assert all(type(c) is int for c in out), a
    assert as_cocharacter(GroupFamily("gl", 1), (10**30,)) == (10**30,)
    # anything else is refused with one message, the tuple and the length
    for bad in [(2.0, 0, 0), (Decimal("2"), 0, 0), ("2", 0, 0),
                (Fraction(1, 2), 0, 0), (0, 0, 2.0), (1, 2), (1, 2, 3, 4), (),
                (None, 0, 0)]:
        with pytest.raises(NotIntegral) as err:
            as_cocharacter(gl3, bad)
        assert str(err.value) == \
            f"{bad} is not a cocharacter: need 3 integral entries"


# the torus-split entry points: each takes a family and a degree vector
# that must lie in Gamma, checked by as_cocharacter alone
ENTRY_POINTS = {
    "canonical_reduction": canon.canonical_reduction,
    "check_bh": lambda f, a: canon.check_bh(
        f, a, canon.canonical_reduction(f, (0,) * f.cartan_dim)),
    "ad_degree_max_oracle": canon.ad_degree_max_oracle,
    "bundle_from_degrees": bundle.bundle_from_degrees,
    "obstruction_class": lattice.obstruction_class,
    "topological_type": lattice.topological_type,
    "levi_topological_type": lambda f, a: lattice.levi_topological_type(
        f, parabolic.ParabolicIndex(f, frozenset()), a),
}

OFF_GAMMA = [
    (GroupFamily("sl", 3), (1, 1, 1), "SL cocharacters have trace zero"),
    (GroupFamily("gl", 3), (1, 2),
     "(1, 2) is not a cocharacter: need 3 integral entries"),
    (GroupFamily("gl", 2), (Fraction(1, 2), 0),
     "(Fraction(1, 2), 0) is not a cocharacter: need 2 integral entries"),
]


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("family, a, message", OFF_GAMMA,
                         ids=[f"{f}-{a}" for f, a, _ in OFF_GAMMA])
def test_every_entry_point_refuses_what_is_off_gamma(name, family, a, message):
    with pytest.raises(NotInKernelLattice) as err:
        ENTRY_POINTS[name](family, a)
    assert str(err.value) == message


def test_coroot_examples():
    assert coroot(GroupFamily("gl", 2), (1, -1)) == (1, -1)
    assert coroot(GroupFamily("sp", 4), (2, 0)) == (1, 0)
    assert coroot(GroupFamily("so", 5), (1, 0)) == (2, 0)


def test_coroot_rejects_non_roots():
    # the message spells the family, not the dataclass repr
    with pytest.raises(NotARoot, match=r"^\(1, 1, 0\) is not a root of gl3$"):
        coroot(GroupFamily("gl", 3), (1, 1, 0))


def test_family_spells_its_name():
    assert [str(GroupFamily(k, r)) for k, r in (
        ("gl", 3), ("sl", 12), ("sp", 4), ("so", 7))] == ["gl3", "sl12", "sp4", "so7"]
    assert repr(GroupFamily("gl", 3)) == "GroupFamily(kind='gl', r=3)"


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


@pytest.mark.parametrize("n", [990, 1200])
def test_orbit_of_a_long_point(n):
    # the arrangements come from previous-permutation steps, with no
    # recursion per coordinate: GL1200 at e1, under the guard, answers
    # instead of exceeding the interpreter's recursion limit
    family = GroupFamily("gl", n)
    e1 = (1,) + (0,) * (n - 1)
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert weyl_orbit(family, e1) == units
    assert weyl_orbit(family, units[-1]) == units


def test_orbit_keeps_the_objects_of_the_entries():
    # equal entries of two types take the object of the first one, and a
    # zero entry of an Sp point keeps its type under the sign product.  The
    # builder, not the cache, whose key (1, 1, 0) equals (Fraction(1), 1, 0)
    build = rootsys._weyl_orbit.__wrapped__
    orbit = build(GroupFamily("gl", 3), (Fraction(1), 1, 0))
    assert orbit == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert all(type(x) is (int if x == 0 else Fraction) for w in orbit for x in w)
    orbit = build(GroupFamily("sp", 4), (Fraction(1, 2), Fraction(0)))
    assert len(orbit) == 4
    assert all(type(x) is Fraction for w in orbit for x in w)


def _size_by_factorials(family, v):
    """Reference orbit size: n! over the factorials of the multiplicities."""
    signed = family.kind not in ("gl", "sl")
    counts = Counter(abs(x) if signed else x for x in v)
    size = math.factorial(len(v)) // math.prod(map(math.factorial, counts.values()))
    if not signed:
        return size
    size <<= sum(1 for x in v if x)
    return size // 2 if family.kind == "so" and family.r % 2 == 0 and all(v) else size


def test_orbit_size_binomials_equal_the_factorial_quotient():
    rng = random.Random(20)
    families = [GroupFamily(kind, r) for kind, r in (
        ("gl", 2), ("gl", 5), ("sl", 7), ("gl", 12), ("sp", 2), ("sp", 8),
        ("sp", 16), ("so", 3), ("so", 8), ("so", 9), ("so", 14), ("so", 17))]
    for family in families:
        for _ in range(60):
            bound = rng.choice((1, 2, 5))
            v = tuple(rng.randint(-bound, bound) for _ in range(family.cartan_dim))
            assert weyl_orbit_size(family, v) == _size_by_factorials(family, v), (family, v)
    # the count follows the answer, not n!: the zero point and e1 of
    # GL(300000) are counted, and e1's orbit is refused before it is built
    big = GroupFamily("gl", 300000)
    e1 = (1,) + (0,) * 299999
    assert weyl_orbit_size(big, (0,) * 300000) == 1
    assert weyl_orbit_size(big, e1) == 300000
    with pytest.raises(TooLarge):
        weyl_orbit(big, e1)


def test_orbit_size_stops_past_its_limit():
    # exact up to the limit and over it beyond, on a seeded grid
    rng = random.Random(49)
    families = [GroupFamily(kind, r) for kind, r in (
        ("gl", 5), ("sl", 7), ("sp", 8), ("so", 3), ("so", 8), ("so", 9))]
    for family in families:
        for _ in range(40):
            bound = rng.choice((1, 2, 5))
            v = tuple(rng.randint(-bound, bound) for _ in range(family.cartan_dim))
            size = weyl_orbit_size(family, v)
            for limit in (0, 1, size - 1, size, size + 1, rng.randint(1, size)):
                capped = weyl_orbit_size(family, v, limit=limit)
                assert capped == size if size <= limit else capped > limit, \
                    (family, v, limit)
    # a regular GL(100000) point stops after its first binomial, 100000,
    # which is already past the cap weyl_orbit passes, the guard over the
    # length of the point; its full size has 456,574 digits
    gl = GroupFamily("gl", 100000)
    assert weyl_orbit_size(
        gl, range(100000), limit=rootsys.WEYL_ORBIT_GUARD // 100000) == 100000


def test_orbit_guards_refuse_a_huge_orbit_by_a_capped_count(monkeypatch):
    # each guard caps the count at its own value
    limits = []

    def capped(family, v, *, limit=None):
        limits.append(limit)
        return weyl_orbit_size(family, v, limit=limit)

    monkeypatch.setattr(rootsys, "weyl_orbit_size", capped)
    monkeypatch.setattr("hnbundles.oracles.weyl_orbit_size", capped)
    # the size of a regular GL30000 point has over 4,300 digits: the guard
    # once formatted it into its message and raised ValueError instead
    gl = GroupFamily("gl", 30000)
    regular = tuple(range(30000))
    with pytest.raises(TooLarge, match=r"^the Weyl orbit has more than 2097152 "
                                       r"coordinates, its guard$"):
        weyl_orbit(gl, regular)
    with pytest.raises(TooLarge, match="hull guard exceeded"):
        hull_membership_lp_oracle(gl, regular, regular)
    # weyl_orbit's guard counts coordinates: its cap is the guard over
    # the length of the point
    assert limits == [rootsys.WEYL_ORBIT_GUARD // 30000, HULL_ORBIT_GUARD]


def test_orbit_guard_counts_coordinates_not_points(monkeypatch):
    # GL2000 at e1 has only 2,000 points, but 4,000,000 coordinates: it is
    # refused before any point is built, while GL1200 at e1 (1,440,000) is
    # built, as the long-point test checks
    def build(p):
        raise AssertionError("an arrangement was built")

    monkeypatch.setattr(rootsys, "_descending_arrangements", build)
    e1 = (1,) + (0,) * 1999
    with pytest.raises(TooLarge, match="coordinates, its guard$"):
        weyl_orbit(GroupFamily("gl", 2000), e1)
    assert weyl_orbit_size(GroupFamily("gl", 2000), e1) * 2000 > \
        rootsys.WEYL_ORBIT_GUARD >= 1200 * 1200


def test_orbit_has_one_representation_per_number():
    # 1 == Fraction(1) with one hash, so the orbit cache, keyed by the
    # dominant point, once answered with whichever type it built first
    gl3 = GroupFamily("gl", 3)
    for points in (((Fraction(1), 1, 0), (1, 1, 0)),
                   ((1, 1, 0), (1, Fraction(1), Fraction(0)))):
        weyl_orbit.cache_clear()
        for v in points * 2:
            orbit = weyl_orbit(gl3, v)
            assert orbit == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
            assert all(type(x) is int for w in orbit for x in w), v
    # an integral Fraction becomes an int, and any other stays a Fraction
    half = Fraction(1, 2)
    orbit = weyl_orbit(GroupFamily("sp", 6), (Fraction(-2), half, Fraction(0)))
    assert len(orbit) == 24 and (2, half, 0) in orbit
    assert all(type(x) is (Fraction if x in (half, -half) else int)
               for w in orbit for x in w)


def test_dominant_representative_examples():
    assert dominant_representative(GroupFamily("gl", 3), (0, 3, -1)) == (3, 0, -1)
    assert dominant_representative(GroupFamily("sp", 4), (-2, 1)) == (2, 1)
    assert dominant_representative(GroupFamily("so", 4), (1, -2)) == (2, -1)


def _reflect(root, cr, v):
    """Reflection s_root applied to a Cartan vector: v - root(v) * cr, with
    cr = coroot(family, root)."""
    val = evaluate(root, v)
    return tuple(x - val * c for x, c in zip(v, cr))


def _simple_reflections(family):
    """(root, coroot) for each simple root, the coroots computed once."""
    return [(a, coroot(family, a)) for a in simple_roots(family)]


def _orbit_by_reflections(family, v):
    """Reference Weyl orbit: every point reached from v by simple
    reflections, breadth first.  W acts linearly, so the loop runs on the
    integer point m * v, m the common denominator, and divides by m at
    the end."""
    simples = _simple_reflections(family)
    m = lcm(*(Fraction(x).denominator for x in v))
    v = tuple(int(x * m) for x in v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for a, cr in simples:
                img = _reflect(a, cr, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {tuple(Fraction(x, m) for x in w) for w in seen}


@pytest.mark.parametrize("family", FAMILIES)
def test_reflections_preserve_root_system(family):
    roots = all_roots(family)
    for alpha in roots:
        cr = coroot(family, alpha)
        for beta in roots:
            assert is_root(family, _reflect(alpha, cr, beta))


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
    assert positive_root_count(family) == len(positive_roots(family))


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
    simples = _simple_reflections(family)
    v = tuple(v)
    while True:
        for a, cr in simples:
            if evaluate(a, v) < 0:
                v = _reflect(a, cr, v)
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


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_weyl_orbit_equals_the_reflection_orbit(family):
    for v in _oracle_points(family, 5):
        orbit = weyl_orbit(family, v)
        assert set(orbit) == _orbit_by_reflections(family, v), v
        assert len(orbit) == len(set(orbit)) == weyl_orbit_size(family, v), v
        assert list(orbit) == sorted(orbit, reverse=True), v


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_dominant_representative_equals_the_reflection_loop(family):
    for v in _oracle_points(family, 7):
        rep = dominant_representative(family, v)
        assert rep == _dominant_by_reflections(family, v), v
        orbit = weyl_orbit(family, v)
        assert rep in orbit and weyl_orbit_size(family, v) == len(orbit), v


@pytest.mark.parametrize("family", [f for f in ORACLE_FAMILIES
                                    if f.cartan_dim <= 3], ids=repr)
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


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
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


# every family with a root system and cartan_dim <= 5
KEY_FAMILIES = ([GroupFamily(kind, r) for kind in ("gl", "sl") for r in range(1, 6)]
                + [GroupFamily("sp", r) for r in range(2, 11, 2)]
                + [GroupFamily("so", r) for r in range(3, 12)])


def _key_sign_test(family, d):
    """Kostant's test read off the order key: every entry >= 0, and for
    GL/SL the last one, the total, 0."""
    key = rootsys._order_key(family, tuple(d))
    return all(x >= 0 for x in key) and (
        family.kind not in ("gl", "sl") or key[-1] == 0)


def _coordinate_sign_test(family, d):
    coeffs = simple_root_coordinates(family, d)
    return coeffs is not None and all(c >= 0 for c in coeffs)


@given(st.data())
def test_order_key_sign_test_equals_the_coordinates(data):
    family = data.draw(st.sampled_from(KEY_FAMILIES))
    den = data.draw(st.sampled_from((1, 2)))
    point = st.lists(st.integers(-6, 6), min_size=family.cartan_dim,
                     max_size=family.cartan_dim).map(
        lambda xs: tuple(Fraction(x, 2) for x in xs) if den == 2 else tuple(xs))
    x, y = data.draw(point), data.draw(point)
    # a raw point, and a difference of dominant points, which passes the
    # test far more often
    for d in (x, _sub(dominant_representative(family, x),
                              dominant_representative(family, y))):
        key = rootsys._order_key(family, d)
        assert len(key) == family.cartan_dim
        if den == 1:
            # an int point has an int key: the doubled ends need no halving
            assert all(type(c) is int for c in key)
        assert _key_sign_test(family, d) == _coordinate_sign_test(family, d)


def test_order_key_at_the_type_d_fork():
    # SO4 = A1 x A1, and SO8 at (1, 1, 1, +-1): the two points differ only
    # in the sign at the fork, so neither lies in the hull of the other,
    # and both contain their common face (1, 1, 0, 0), resp. 0
    so4, so8 = GroupFamily("so", 4), GroupFamily("so", 8)
    assert rootsys._order_key(so4, (1, 1)) == [0, 2]
    assert rootsys._order_key(so4, (1, -1)) == [2, 0]
    assert rootsys._order_key(so8, (1, 1, 1, 1)) == [1, 2, 2, 4]
    assert rootsys._order_key(so8, (1, 1, 1, -1)) == [1, 2, 4, 2]
    assert simple_root_coordinates(so8, (1, 1, 1, -1)) == [1, 2, 2, 1]
    for family, plus, minus, face in ((so4, (1, 1), (1, -1), (0, 0)),
                                      (so8, (1, 1, 1, 1), (1, 1, 1, -1),
                                       (1, 1, 0, 0))):
        for mu, nu, inside in ((plus, minus, False), (minus, plus, False),
                               (plus, face, True), (minus, face, True)):
            d = _sub(mu, nu)
            assert _key_sign_test(family, d) is _coordinate_sign_test(family, d) \
                is strata.hull_membership(family, mu, nu) is inside
            assert hull_membership_lp_oracle(family, mu, nu) is inside


# GL1-14, SL2-14, Sp2-14 and SO3-14
TABLE_FAMILIES = [GroupFamily(kind, r) for kind in ("gl", "sl", "sp", "so")
                  for r in range(1, 15)
                  if (kind != "sl" or r >= 2) and (kind != "sp" or r % 2 == 0)
                  and (kind != "so" or r >= 3)]


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=repr)
def test_simple_root_values_equal_the_table(family):
    rng = random.Random(repr(family))
    simples = simple_roots(family)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(family.cartan_dim))
        values = [evaluate(a, v) for a in simples]
        assert simple_root_values(family, v) == values, v
        assert rootsys._simple_root_signs(family, v) == \
            [(x > 0) - (x < 0) for x in values], v


# every Cartan type, at cartan_dim up to 4, with SO4, SO6 and SO8 on the
# D_n fork; GL1 and SO3 have one coordinate and no step
SIGN_FAMILIES = [GroupFamily(kind, r) for kind, r in (
    ("gl", 1), ("gl", 2), ("gl", 4), ("sl", 3), ("sp", 2), ("sp", 6),
    ("so", 3), ("so", 4), ("so", 5), ("so", 6), ("so", 8), ("so", 9))]


@pytest.mark.parametrize("exact", [int, lambda k: Fraction(k, 2)],
                         ids=["int", "Fraction"])
@pytest.mark.parametrize("family", SIGN_FAMILIES, ids=str)
def test_the_sign_route_equals_the_root_table(family, exact):
    """Dominance, the forced index and the Levi test of the BH conditions
    read the sign of each simple-root value off a comparison of two
    coordinates; the root table's values give the same signs on every
    point of [-2, 2]^n, and of its halves as Fractions.  The Levi test
    runs at every parabolic index in turn across the grid."""
    simples = simple_roots(family)
    count = len(simples)
    for k, v in enumerate(product(map(exact, range(-2, 3)),
                                  repeat=family.cartan_dim)):
        values = [evaluate(a, v) for a in simples]
        assert rootsys._simple_root_signs(family, v) == \
            [(x > 0) - (x < 0) for x in values], v
        assert is_dominant(family, v) is all(x >= 0 for x in values), v
        assert forced_index(family, v).members == \
            {i for i, x in enumerate(values) if x > 0}, v
        members = {i for i in range(count) if k >> i & 1}
        index = parabolic.ParabolicIndex(family, members)
        assert canon.bh_conditions(family, index, v)[0] is all(
            x == 0 for i, x in enumerate(values) if i not in members), v
    # a point of the wrong length is refused by every reader of the signs
    short = (exact(1),) * (family.cartan_dim - 1)
    index = parabolic.ParabolicIndex(family, ())
    for call in (lambda: is_dominant(family, short),
                 lambda: forced_index(family, short),
                 lambda: canon.bh_conditions(family, index, short)):
        with pytest.raises(ValueError, match="coordinates"):
            call()


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
                 lambda: forced_index(gl3, (1, 0)),
                 lambda: forced_index(sp6, (1, 0, 0, 5)),
                 lambda: simple_root_coordinates(gl3, (1, -1)),
                 lambda: simple_root_coordinates(so6, (1, 0, 0, -1)),
                 lambda: simple_root_coordinates(so6, (1, -1)),
                 lambda: simple_root_coordinates(sp6, (1, 0)),
                 lambda: strata.hull_membership(so6, (1, 0, 0), (1, 0)),
                 lambda: weyl_orbit_size(gl3, (1, 2))):
        with pytest.raises(ValueError, match=r"coordinates, (gl3|sp6|so6) needs 3"):
            call()
    # a list of the right length is a point like any other sequence
    assert weyl_orbit(GroupFamily("gl", 2), [1, 0]) == ((1, 0), (0, 1))
    assert weyl_orbit(so6, [0, 0, 1]) == weyl_orbit(so6, (0, 0, 1))
    # one home for the message, shared by every module that rejects points
    assert canon._point is parabolic._point is lattice._point is \
        oracles_point is rootsys._point


def test_root_names():
    gl4 = GroupFamily("gl", 4)
    assert [root_name(gl4, i) for i in range(3)] == ["a1,2", "a2,3", "a3,4"]
    assert root_name(GroupFamily("sp", 4), 1) == "2a2"
    assert root_name(GroupFamily("so", 5), 1) == "a2"
    assert root_name(GroupFamily("so", 6), 2) == "a2+a3"


# every family of cartan_dim <= 8 with a root system: GL1-8, SL1-8, Sp2-16
# and SO3-17
SMALL_FAMILIES = ([GroupFamily(k, r) for k in ("gl", "sl") for r in range(1, 9)]
                  + [GroupFamily("sp", r) for r in range(2, 17, 2)]
                  + [GroupFamily("so", r) for r in range(3, 18)])


def _plate(t, n):
    """The Cartan matrix a_ij = <alpha_i, coroot of alpha_j> of type t and
    rank n, from Bourbaki, Lie Groups and Lie Algebras ch. VI, Plates I-IV.
    A_n is the path 1 - 2 - ... - n; B_n and C_n are the same path with
    a_(n-1,n) = -2 on B_n and a_(n,n-1) = -2 on C_n; D_n is the path up to
    n - 1 with node n tied to node n - 2, the fork, so D_2 is diagonal."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    if t == D:
        edges = edges[:-1] + ([(n - 3, n - 1)] if n >= 3 else [])
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    if n >= 2 and t == B:
        a[n - 2][n - 1] = -2
    if n >= 2 and t == C:
        a[n - 1][n - 2] = -2
    return a


def test_plates_spell_out_the_small_cases():
    assert _plate(A, 3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert _plate(B, 2) == [[2, -2], [-1, 2]]
    assert _plate(C, 2) == [[2, -1], [-2, 2]]
    assert _plate(D, 2) == [[2, 0], [0, 2]]
    # D_3 = A_3 with nodes 1 and 2 swapped
    assert _plate(D, 3) == [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    assert _plate(D, 4) == [[2, -1, 0, 0], [-1, 2, -1, -1],
                            [0, -1, 2, 0], [0, -1, 0, 2]]


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=repr)
def test_cartan_type_is_the_type_of_the_root_system(family):
    """The Cartan matrix of the reference simple roots and coroots is the
    plate of family.cartan_type.  At rank 1, where A1, B1 and C1 share the
    matrix (2), the squared length of the last simple root tells them
    apart: 2 on A and D, 1 on B, 4 on C.  The roots read the type too, so
    their count is also held to the dimension of the group, which reads
    only the kind and r."""
    roots = simple_roots(family)
    n = simple_root_count(family)
    assert len(roots) == n
    assert family.torus_dim + 2 * len(positive_roots(family)) == _dim_group(family)
    matrix = [[evaluate(ai, coroot(family, aj)) for aj in roots] for ai in roots]
    assert matrix == _plate(family.cartan_type, n)
    if n:
        assert evaluate(roots[-1], roots[-1]) == {A: 2, B: 1, C: 4, D: 2}[
            family.cartan_type]


def test_cartan_type_is_not_a_field():
    so6 = GroupFamily("so", 6)
    assert so6 == GroupFamily("so", 6)
    assert hash(so6) == hash(GroupFamily("so", 6)) == hash(("so", 6))
    assert repr(so6) == "GroupFamily(kind='so', r=6)"
    assert [f.name for f in fields(GroupFamily)] == ["kind", "r"]
    assert replace(so6, r=7).cartan_type == B
    # cartan_dim is stored beside the type, and replace computes it afresh
    assert so6.cartan_dim == 3 and replace(so6, r=7).cartan_dim == 3
    assert replace(so6, kind="gl").cartan_dim == 6
    copy = pickle.loads(pickle.dumps(so6))
    assert copy == so6 and copy.cartan_type == D and copy.cartan_dim == 3
    with pytest.raises(FrozenInstanceError):
        so6.cartan_type = B
    with pytest.raises(FrozenInstanceError):
        so6.cartan_dim = 4
