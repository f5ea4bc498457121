import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from hnbundles import canon, rootsys
from hnbundles.bundle import (_BUNDLE_OF_KIND, Atom, PlainBundle, SlBundle,
                              SoBundle, SpBundle, adjoint, bundle_from_degrees,
                              is_semistable, vertical_degree)
from hnbundles.canon import (ORACLE_WORK_GUARD, CanonicalReduction, HNType,
                             _oracle_of_orbit, _reduction_of_orbit, ad_degree,
                             ad_degree_max_oracle, bh_conditions,
                             canonical_reduction, check_bh, hn_type)
from hnbundles.errors import (FamilyMismatch, InvalidReduction,
                              NotInKernelLattice, NotIntegral, TooLarge,
                              ZeroBundle)
from hnbundles.hnfilt import hn_filtration, hn_filtration_isotropic
from hnbundles.lattice import levi_topological_type, topological_type
from hnbundles.parabolic import (ParabolicIndex, _levi_positive_count,
                                 _two_rho_terms, parabolic_from_flag)
from hnbundles.rootsys import (GroupFamily, as_cocharacter,
                               dominant_representative, evaluate,
                               positive_root_count, weyl_orbit,
                               weyl_orbit_size)
from oracles import (_root_split, all_roots, canonical_reduction_uncached,
                     check_bh_uncached, forced_index, is_dominant, is_root,
                     positive_roots, simple_roots)


def test_canonical_reduction_examples():
    sp4 = GroupFamily("sp", 4)
    red = canonical_reduction(sp4, (2, 1))
    assert red.index.members == {0, 1}
    assert red.mu.mu == (2, 1)
    assert positive_root_count(sp4) + _levi_positive_count(red.index) + \
        sp4.torus_dim == 6
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


def test_check_bh_rejects_a_reduction_of_another_family():
    sp4 = GroupFamily("sp", 4)
    red = canonical_reduction(sp4, (2, 1))
    check_bh(sp4, (2, 1), red)
    # the orbit check passes, and the family check comes before the answer
    # kept on the reduction is read
    for other in (GroupFamily("so", 4), GroupFamily("so", 5)):
        with pytest.raises(FamilyMismatch):
            check_bh(other, (2, 1), red)
    with pytest.raises(ValueError, match="has 2 coordinates, gl3 needs 3"):
        check_bh(GroupFamily("gl", 3), (2, 1, 0), red)


def test_a_float_rank_cannot_poison_the_reduction_cache():
    # GL(2.0) once equalled and hashed like GL(2), so its reduction, of
    # cartan_dim 2.0, was handed to the next GL(2) caller, whose check_bh
    # then raised TypeError; the family now refuses the float rank
    canon._reduction_of_orbit.cache_clear()
    with pytest.raises(ValueError, match=r"^rank must be an int, got 2\.0$"):
        canonical_reduction(GroupFamily("gl", 2.0), (1, 0))
    gl2 = GroupFamily("gl", 2)
    red = canonical_reduction(gl2, (1, 0))
    assert type(red.family.cartan_dim) is int
    assert check_bh(gl2, (1, 0), red) == \
        oracles.check_bh_uncached(gl2, red)


def test_a_reduction_is_fixed_by_its_type():
    gl3, sp4, so5 = GroupFamily("gl", 3), GroupFamily("sp", 4), GroupFamily("so", 5)
    # the type is the one field: no second family, and no index to check
    with pytest.raises(TypeError):
        CanonicalReduction(gl3, ParabolicIndex(sp4, {0}), HNType(so5, (2, 1)))
    with pytest.raises(TypeError):
        CanonicalReduction(HNType(sp4, (2, 1)), ParabolicIndex(sp4, {0}))
    with pytest.raises(TypeError):
        CanonicalReduction(mu=HNType(sp4, (2, 1)), index=ParabolicIndex(sp4, {0}))
    red = CanonicalReduction(HNType(sp4, (2, 1)))
    assert red.family == sp4 and red.index == forced_index(sp4, (2, 1))
    assert red == canonical_reduction(sp4, (1, -2))
    # replace raises ValueError up to Python 3.12 and TypeError from 3.13
    with pytest.raises((ValueError, TypeError)):
        replace(red, index=ParabolicIndex(sp4, {0}))
    # a new type brings its own index
    assert replace(red, mu=HNType(sp4, (1, 1))).index.members == {1}


@pytest.mark.parametrize("kinds,mu", [
    ((("gl", 3), ("sl", 3)), (1, 0, -1)),
    ((("sp", 4), ("so", 4), ("so", 5)), (2, 1)),
    ((("sp", 6), ("so", 6), ("so", 7)), (3, 2, 1))],
    ids=["gl3-sl3", "sp4-so4-so5", "sp6-so6-so7"])
def test_check_bh_rejects_each_other_family_of_equal_cartan_dim(kinds, mu):
    families = [GroupFamily(*k) for k in kinds]
    for family in families:
        for other in families:
            red = CanonicalReduction(HNType(other, mu))
            if other == family:
                assert check_bh(family, mu, red) == check_bh_uncached(family, red)
            else:
                # the point and the orbit agree: only the family tells
                with pytest.raises(FamilyMismatch):
                    check_bh(family, mu, red)


def test_check_bh_reads_one_dominant_point(monkeypatch):
    so8, a = GroupFamily("so", 8), (2, -1, 0, 1)
    red = canonical_reduction(so8, a)
    calls = []

    def counted(family, v):
        calls.append(v)
        return dominant_representative(family, v)

    monkeypatch.setattr(canon, "dominant_representative", counted)
    assert check_bh(so8, a, red) == check_bh_uncached(so8, red)
    assert calls == [a]


def _fork_image(family, a):
    """Whether hn_type of the split bundle of a is the outer-automorphism
    image of the dominant point: on even SO, when no entry is zero and an
    odd number of them are negative."""
    return family.kind == "so" and family.r % 2 == 0 and all(a) and \
        sum(x < 0 for x in a) % 2 == 1


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, rs in (
    ("gl", (2, 3, 4)), ("sl", (2, 3, 4)), ("sp", (2, 4, 6, 8)),
    ("so", range(3, 10))) for r in rs], ids=repr)
def test_the_filtration_route_equals_the_degree_route(family):
    # the formal isotropic model holds the absolute values of the degrees,
    # so on even SO it drops their sign parity: there hn_type answers the
    # dominant point with its last entry negated, whose index is the image
    # of the forced one under the outer automorphism
    fork = set()
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        if family.kind == "sl" and sum(a):
            continue
        red = canonical_reduction(family, a)
        filtered = CanonicalReduction(hn_type(bundle_from_degrees(family, a)))
        if filtered != red:
            fork.add(a)
            mu = red.mu.mu
            assert filtered.mu.mu == mu[:-1] + (-mu[-1],), a
    assert fork == {a for a in product(range(-2, 3), repeat=family.cartan_dim)
                    if _fork_image(family, a)}
    assert len(fork) == {"so4": 8, "so6": 32, "so8": 128}.get(
        f"{family.kind}{family.r}", 0)


def test_answers_kept_on_objects_leave_their_values_alone():
    sp4 = GroupFamily("sp", 4)
    red = canonical_reduction_uncached(sp4, (2, 1))
    copy = replace(red)
    seen = (hash(red), repr(red), hash(red.index), repr(red.index))
    assert check_bh(sp4, (2, 1), red) == (True, [4, 3])
    assert ad_degree(sp4, red.index, (2, 1)) == 10
    assert "_bh" in vars(red) and "_two_rho" in vars(red.index)
    assert (hash(red), repr(red), hash(red.index), repr(red.index)) == seen
    assert red == copy and copy == red and hash(copy) == hash(red)
    # a replaced object is built anew and holds no answer
    assert replace(red) == red and "_bh" not in vars(replace(red))
    index = replace(red.index)
    assert index == red.index and "_two_rho" not in vars(index)


def test_the_reduction_reads_no_root_table(monkeypatch):
    sp8, a = GroupFamily("sp", 8), (3, -1, 2, 0)
    mu = dominant_representative(sp8, a)
    nilrad = _root_split(forced_index(sp8, mu))[1]

    def refused(*args):
        raise AssertionError("a closed form listed the roots")

    # all_roots lists the positive roots, so no root list survives this
    monkeypatch.setattr(oracles, "positive_roots", refused)
    _reduction_of_orbit.cache_clear()
    red = canonical_reduction(sp8, a)
    assert ad_degree(sp8, red.index, red.mu.mu) == sum(
        evaluate(alpha, mu) for alpha in nilrad) == 40
    assert positive_root_count(sp8) - _levi_positive_count(red.index) == \
        len(nilrad)
    assert check_bh(sp8, a, red) == check_bh_uncached(sp8, red)
    levi_topological_type(sp8, red.index, a)
    # past the former root table guard: GL161, and SO400 on the D_n fork
    for family, a in ((GroupFamily("gl", 161), (1,) + (0,) * 160),
                      (GroupFamily("so", 400), (1,) * 199 + (-1,))):
        red = canonical_reduction(family, a)
        assert check_bh(family, a, red) == check_bh_uncached(family, red)
        assert ad_degree(family, red.index, red.mu.mu) == evaluate(
            red.index._two_rho, red.mu.mu)
    assert red.index.members == {198} and red.index._two_rho == \
        (199,) * 199 + (-199,)


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


def _work(family, a):
    """The oracle's work from the root tables: 2^count x ((count + 1) |W.a|
    + |Phi+|), count the number of simple roots."""
    count = len(simple_roots(family))
    return (1 << count) * ((count + 1) * weyl_orbit_size(family, a)
                           + len(positive_roots(family)))


def _bound(family, a):
    """The lane bound in closed form: max(1, 2|Phi+|) times max |a_i|."""
    return max(1, 2 * len(positive_roots(family))) * max(map(abs, a))


def test_ad_degree_guard(monkeypatch):
    # the largest inputs of the former cartan_dim <= 5 guard sit at the limit
    assert _work(GroupFamily("sp", 10), (5, 4, 3, 2, 1)) == ORACLE_WORK_GUARD
    assert _work(GroupFamily("so", 11), (5, 4, 3, 2, 1)) == ORACLE_WORK_GUARD
    # a regular GL7 point, and the zero point of GL14, whose table of terms
    # alone reads 2^13 parabolics: refused before the orbit or the table
    for family, a in ((GroupFamily("gl", 7), tuple(range(7))),
                      (GroupFamily("gl", 14), (0,) * 14)):
        assert _work(family, a) > ORACLE_WORK_GUARD
        orbits, tables = weyl_orbit.cache_info(), _two_rho_terms.cache_info()
        answers = _oracle_of_orbit.cache_info()
        with pytest.raises(TooLarge, match="enumeration guard exceeded"):
            ad_degree_max_oracle(family, a)
        assert weyl_orbit.cache_info().misses == orbits.misses
        assert _two_rho_terms.cache_info().misses == tables.misses
        # the answer cache counts the lookup of the refused key as a miss,
        # and stores and evicts nothing
        assert _oracle_of_orbit.cache_info() == answers._replace(
            misses=answers.misses + 1)
    # a family over the guard at its zero point is refused without reading
    # the orbit size, which can be as large as the factorial of the dimension
    monkeypatch.setattr(canon, "weyl_orbit_size", None)
    with pytest.raises(TooLarge, match="enumeration guard exceeded"):
        ad_degree_max_oracle(GroupFamily("sl", 10**4), (0,) * 10**4)
    monkeypatch.undo()
    # the zero point of GL6 is under the count: one point, 32 parabolics
    gl6 = GroupFamily("gl", 6)
    best, argmax = ad_degree_max_oracle(gl6, (0,) * 6)
    assert best == 0 and len(argmax) == 32


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


def _grid(family):
    """The cocharacters of [-2, 2]^n: on SL the trace-zero points."""
    return [a for a in product(range(-2, 3), repeat=family.cartan_dim)
            if family.kind != "sl" or sum(a) == 0]


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("sp", 2), ("sp", 4),
    ("sp", 6), ("so", 3), ("so", 4), ("so", 5), ("so", 6), ("so", 7))], ids=repr)
def test_oracle_equals_the_per_pair_loop(family):
    for a in _grid(family):
        # same best, same argmax pairs in the same order
        assert ad_degree_max_oracle(family, a) == \
            _ad_degree_max_by_pairs(family, a), a


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 1), ("gl", 2), ("gl", 3), ("sl", 1), ("sl", 2), ("sl", 3),
    ("sp", 2), ("sp", 4), ("sp", 6), ("so", 3), ("so", 4), ("so", 5),
    ("so", 6), ("so", 7))], ids=repr)
def test_oracle_answer_cache_equals_the_cold_oracle(family):
    grid = _grid(family)
    if family.kind == "so" and family.r % 2 == 0:
        # even SO keys an odd count of negative entries, with no zero entry
        # to absorb a sign, to a dominant point with its last entry negated
        assert any(all(a) and sum(x < 0 for x in a) % 2 for a in grid)
    for a in grid:
        ad_degree_max_oracle(family, a)
    # the grid holds at most 125 orbits, so every one is still cached
    before = _oracle_of_orbit.cache_info()
    warm = [ad_degree_max_oracle(family, a) for a in grid]
    after = _oracle_of_orbit.cache_info()
    assert (after.hits - before.hits, after.misses) == (len(grid), before.misses)
    cold = []
    for a in grid:
        _oracle_of_orbit.cache_clear()
        cold.append(ad_degree_max_oracle(family, a))
    assert warm == cold == [_ad_degree_max_by_pairs(family, a) for a in grid]


def test_oracle_returns_a_fresh_argmax_list():
    sp4 = GroupFamily("sp", 4)
    best, argmax = ad_degree_max_oracle(sp4, (2, 1))
    expected = list(argmax)
    argmax.reverse()
    argmax.append(None)
    # (1, -2) is a translate of (2, 1): the same cache entry answers it
    again = ad_degree_max_oracle(sp4, (1, -2))
    assert again == (best, expected) and again[1] is not argmax


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    [("gl", r) for r in (1, 2, 3, 4)] + [("sl", r) for r in (1, 2, 3, 4)]
    + [("sp", r) for r in (2, 4, 6, 8)] + [("so", r) for r in range(3, 10)])],
    ids=repr)
def test_reduction_and_bh_caches_equal_the_uncached_reference(family, monkeypatch):
    # W acts by signed permutations, so the grid holds every Weyl
    # translate of each of its points
    grid = _grid(family)
    orbits = {dominant_representative(family, a) for a in grid}
    calls = []

    def counted(*args):
        calls.append(args)
        return bh_conditions(*args)

    monkeypatch.setattr(canon, "bh_conditions", counted)
    _reduction_of_orbit.cache_clear()
    for a in grid:
        red = canonical_reduction(family, a)
        ref = canonical_reduction_uncached(family, a)
        assert red == ref, a
        assert all(type(c) is int for c in red.mu.mu)
        assert check_bh(family, a, red) == check_bh_uncached(family, ref), a
    # each orbit misses once, on its first point, and its other points hit;
    # the BH answer is computed once per orbit, on its cached reduction
    info = _reduction_of_orbit.cache_info()
    assert (info.misses, info.hits) == (len(orbits), len(grid) - len(orbits))
    assert sorted(args[2] for args in calls) == sorted(orbits)


def test_check_bh_returns_a_fresh_list_of_the_point_type():
    sp4 = GroupFamily("sp", 4)
    red = canonical_reduction(sp4, (2, 1))
    # the same reduction at a Fraction point: equal, with an equal hash
    frac = CanonicalReduction(HNType(sp4, (Fraction(2), 1)))
    assert frac == red and hash(frac) == hash(red)
    typed = ((red, int), (frac, Fraction))
    for order in (typed, typed[::-1]):
        # fresh copies, which have read no answer yet
        copies = [(replace(r), kind) for r, kind in order]
        for r, kind in copies * 2:
            ok, degrees = check_bh(sp4, (1, -2), r)
            assert ok and degrees == [4, 3]
            assert [type(d) for d in degrees] == [kind] * 2
    _, degrees = check_bh(sp4, (2, 1), red)
    degrees.append(None)
    assert check_bh(sp4, (-1, 2), red) == (True, [4, 3])


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 4), ("sl", 4), ("sp", 8), ("so", 8), ("so", 9))], ids=repr)
def test_oracle_equals_the_per_pair_loop_sampled_rank_four(family):
    # SO8 has the D4 fork and the sign parity of even SO
    rng = random.Random(f"{family!r}-9")
    for _ in range(40):
        a = [rng.randint(-3, 3) for _ in range(family.cartan_dim)]
        if family.kind == "sl":
            a[-1] -= sum(a)
        assert ad_degree_max_oracle(family, a) == \
            _ad_degree_max_by_pairs(family, a), (family, a)


@pytest.mark.parametrize("family,a", [
    (GroupFamily("gl", 5), (2, 2, 0, -1, -1)), (GroupFamily("gl", 5), (1, 0, 0, 0, 3)),
    (GroupFamily("sp", 10), (2, -2, 1, 0, 0)), (GroupFamily("sp", 10), (0, 3, -1, 1, 3)),
    (GroupFamily("so", 10), (1, -1, 2, 0, 2)), (GroupFamily("so", 10), (-2, 1, 1, 1, 3)),
    (GroupFamily("so", 11), (-3, 5, 1, -4, 2)), (GroupFamily("gl", 6), (3, -1, 2, 0, 2, 3)),
    (GroupFamily("sl", 8), (1, 1, 1, 1, 0, 0, -2, -2))],
    ids=repr)
def test_oracle_equals_the_per_pair_loop_at_the_guard(family, a):
    # points whose work is up to the guard: a regular SO11 point at it, the
    # D5 fork, and GL6 and SL8 points, which the former cartan_dim <= 5
    # guard refused
    assert _work(family, a) <= ORACLE_WORK_GUARD
    assert ad_degree_max_oracle(family, a) == _ad_degree_max_by_pairs(family, a)


@pytest.mark.parametrize("family,base", [
    (GroupFamily("gl", 3), (0, 2, -1)), (GroupFamily("sl", 3), (0, 2, -2)),
    (GroupFamily("sp", 6), (0, -1, 2)), (GroupFamily("so", 5), (0, -1)),
    (GroupFamily("so", 7), (0, 1, -2)), (GroupFamily("so", 8), (0, -1, 2, 1))],
    ids=repr)
def test_oracle_equals_the_per_pair_loop_at_the_lane_limits(family, base):
    # add m to the first coordinate of base (and on SL take it off the last)
    # so that the bound B sits on each side of 2^15, 2^31 and 2^63, the
    # limits of 16-, 32- and 64-bit lanes: the lanes are 64 bits wide, so
    # only a point over 2^63 is refused.  From m = start on, a moved entry
    # has the largest |a_i|, so each step adds the same amount to B
    step = 2 if family.kind == "sl" else 1

    def point(m):
        return (base[0] + m,) + base[1:-1] + (
            base[-1] - m if family.kind == "sl" else base[-1],)

    start = 4 * step
    scale = _bound(family, point(start + step)) - _bound(family, point(start))
    for limit in (15, 31, 63):
        m = start + ((1 << limit) - 1 - _bound(family, point(start))) \
            // scale * step
        below, above = point(m), point(m + step)
        assert _bound(family, below) < 1 << limit <= _bound(family, above)
        assert ad_degree_max_oracle(family, below) == \
            _ad_degree_max_by_pairs(family, below), below
        if limit == 63:
            with pytest.raises(TooLarge, match="enumeration guard exceeded"):
                ad_degree_max_oracle(family, above)
        else:
            assert ad_degree_max_oracle(family, above) == \
                _ad_degree_max_by_pairs(family, above), above


@pytest.mark.parametrize("family,a", [
    (GroupFamily("gl", 3), (1537228672809129302, 0, 0)),
    (GroupFamily("so", 5), (1 << 60, 0)), (GroupFamily("gl", 1), (1 << 63,))],
    ids=repr)
def test_lane_refusal_builds_neither_the_table_nor_the_orbit(family, a):
    # B = 6 max |a_i| on GL3, 8 max |a_i| on SO5 and |a_0| on GL1: each
    # point is the first one up with B >= 2^63
    assert _bound(family, a) >= 1 << 63 > _bound(family, (a[0] - 1,) + a[1:])
    orbits, tables = weyl_orbit.cache_info(), _two_rho_terms.cache_info()
    answers = _oracle_of_orbit.cache_info()
    with pytest.raises(TooLarge, match="enumeration guard exceeded"):
        ad_degree_max_oracle(family, a)
    assert weyl_orbit.cache_info() == orbits
    assert _two_rho_terms.cache_info() == tables
    assert _oracle_of_orbit.cache_info() == answers._replace(
        misses=answers.misses + 1)


@pytest.mark.parametrize("kind", ["gl", "sl"])
def test_rank_one_entries_fit_their_lane(kind):
    # GL1 and SL1 have one parabolic and no term, but the coordinate column
    # still holds the entry, so B = |a_0|.  The one cocharacter of SL1 is
    # 0, and every other entry is refused off Gamma, before the lane guard
    family = GroupFamily(kind, 1)
    index = ParabolicIndex(family, frozenset())
    fits = ((1 << 15) - 1, -(1 << 15), (1 << 31) - 1, (1 << 63) - 1, 1 - (1 << 63))
    wide = (1 << 63, -(1 << 63))
    assert ad_degree_max_oracle(family, (0,)) == (0, [(index, (0,))])
    if kind == "sl":
        for x in fits + wide:
            with pytest.raises(NotInKernelLattice, match="trace zero"):
                ad_degree_max_oracle(family, (x,))
        return
    for x in fits:
        assert ad_degree_max_oracle(family, (x,)) == (0, [(index, (x,))])
    for x in wide:
        with pytest.raises(TooLarge, match="enumeration guard exceeded"):
            ad_degree_max_oracle(family, (x,))


def _families_to_dimension_five():
    return ([GroupFamily(k, r) for k in ("gl", "sl") for r in range(1, 6)]
            + [GroupFamily("sp", r) for r in range(2, 11, 2)]
            + [GroupFamily("so", r) for r in range(3, 12)])


@pytest.mark.parametrize("family", _families_to_dimension_five(), ids=repr)
def test_two_rho_terms_are_the_nonzero_coordinates_of_two_rho(family):
    table = _two_rho_terms(family)
    assert [index for index, _ in table] == _indices(family)
    for index, terms in table:
        assert all(c for _, c in terms), index
        coordinates = [0] * family.cartan_dim
        for k, c in terms:
            coordinates[k] = c
        assert tuple(coordinates) == index._two_rho, index


def _sample_points(family):
    """(2, -1, 0, 1, -2) and all ones, cut to cartan_dim, with the last entry
    taking off the total on SL."""
    points = []
    for a in ((2, -1, 0, 1, -2), (1,) * 5):
        a = list(a[:family.cartan_dim])
        if family.kind == "sl":
            a[-1] -= sum(a)
        points.append(tuple(a))
    return points


@pytest.mark.parametrize("family", _families_to_dimension_five(), ids=repr)
def test_lane_bound_covers_every_score_and_entry(family):
    for a in _sample_points(family):
        orbit = weyl_orbit(family, a)
        scores = [ad_degree(family, index, v)
                  for index in _indices(family) for v in orbit]
        assert _bound(family, a) >= max(map(abs, scores)), a
        assert _bound(family, a) >= max(abs(x) for v in orbit for x in v), a


def test_a_label_reads_its_signs_once(monkeypatch):
    # the type keeps the signs its dominance check read, and the reduction
    # reads its forced index off them, not off a second pass
    signs, calls = canon._simple_root_signs, []

    def counted(family, v):
        calls.append(tuple(v))
        return signs(family, v)

    for module in (canon, rootsys):
        monkeypatch.setattr(module, "_simple_root_signs", counted)
    sp6 = GroupFamily("sp", 6)
    red = canon.stratum_label(sp6, (3, 1, 0))
    assert calls == [(3, 1, 0)]
    assert red.mu.signs == (1, 1, 0) and red.index.members == {0, 1}
    assert red.index == forced_index(sp6, (3, 1, 0))
    # the signs are no field: equality, hash and repr read (family, mu)
    assert [f.name for f in fields(HNType)] == ["family", "mu"]
    assert red.mu == HNType(sp6, (3, 1, 0)) and \
        hash(red.mu) == hash(HNType(sp6, (3, Fraction(1), 0)))
    assert repr(red.mu) == f"HNType(family={sp6!r}, mu=(3, 1, 0))"


def test_hn_type_keeps_ints():
    gl3 = GroupFamily("gl", 3)
    assert [type(c) for c in HNType(gl3, (2, 1, 0)).mu] == [int] * 3
    mixed = HNType(gl3, (Fraction(2), True, False))
    assert [type(c) for c in mixed.mu] == [Fraction] * 3
    # an int or a Fraction is kept as it is; a bool is converted
    two, half = 2, Fraction(1, 2)
    kept = HNType(gl3, (two, half, False)).mu
    assert kept[0] is two and kept[1] is half
    assert type(kept[2]) is Fraction and kept[2] == 0
    # mixed representations of one vector are one HN type
    for other in (HNType(gl3, (2, 1, 0)), HNType(gl3, (2, Fraction(1), 0)),
                  HNType(gl3, (Fraction(4, 2), 1, Fraction(0)))):
        assert other == mixed and hash(other) == hash(mixed)
    red = canonical_reduction(GroupFamily("so", 8), (1, -3, 0, 2))
    assert red.mu.mu == (3, 2, 1, 0)
    assert all(type(c) is int for c in red.mu.mu)
    half = hn_type(PlainBundle((Atom(1, 2),)))
    assert half.mu == (Fraction(1, 2),) * 2
    assert all(type(c) is Fraction for c in half.mu)


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 3), ("sl", 3), ("sp", 4), ("sp", 6), ("so", 4), ("so", 5), ("so", 7))])
def test_canonical_root_sets_are_the_roots_nonnegative_at_mu(family):
    # reference: rescan every root at the dominant representative; the
    # forced index splits the roots at mu
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        if family.kind == "sl" and sum(a) != 0:
            continue
        red = canonical_reduction(family, a)
        mu = red.mu.mu
        levi, nilrad = _root_split(red.index)
        assert set(nilrad) == {
            r for r in all_roots(family) if evaluate(r, mu) > 0}
        assert set(levi + nilrad) == {
            r for r in all_roots(family) if evaluate(r, mu) >= 0}


def bracket_closure_check(red):
    """Root-level shadow of Lie-bracket closure: the nilradical and the
    parabolic root sets of the reduction's index are closed under root
    addition."""
    levi, nilrad = _root_split(red.index)
    for roots in (set(nilrad), set(levi + nilrad)):
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
    assert set(_root_split(red.index)[1]) == {(1, -1), (1, 1), (2, 0)}


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
        assert best == sum(evaluate(r, mu) for r in _root_split(red.index)[1])
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


@st.composite
def atom_bundles(draw):
    """A GL, SL, Sp or SO bundle of 1-4 atoms of rank 1-3.  On SL the last
    atom's degree balances the others'.  On Sp/SO the atoms are the
    positive part, of degrees 1-3, with a zero block of rank 0-3 (even on
    Sp), written as one atom or as rank-1 atoms; an SO bundle has rank at
    least 3, so that it has roots."""
    kind = draw(st.sampled_from(["gl", "sl", "sp", "so"]))
    degrees = st.integers(-4, 4) if kind in ("gl", "sl") else st.integers(1, 3)
    atoms = draw(st.lists(st.builds(Atom, degrees, st.integers(1, 3)),
                          min_size=1, max_size=4))
    if kind == "gl":
        return PlainBundle(tuple(atoms))
    if kind == "sl":
        atoms[-1] = Atom(-sum(a.degree for a in atoms[:-1]), atoms[-1].rank)
        return SlBundle(tuple(atoms))
    z = draw(st.integers(0, 3))
    if kind == "sp":
        z -= z % 2
    one_atom = draw(st.booleans())
    zero = () if not z else (Atom(0, z),) if one_atom else (Atom(0, 1),) * z
    b = _BUNDLE_OF_KIND[kind](tuple(atoms), zero)
    assume(b.rank >= 3)
    return b


@settings(max_examples=500, deadline=None)
@given(atom_bundles())
def test_the_adjoint_bundle_witnesses_the_reduction_at_rational_types(b):
    # Biswas-Holla: at the HN type mu of b, a rational type, the slope > 0
    # part of ad E is the nilradical of the canonical reduction to P_I, of
    # degree <2rho_P, mu>, and with the slope-0 part it is ad E_P, of rank
    # dim P_I
    mu = hn_type(b)
    family, index = mu.family, CanonicalReduction(mu).index
    count, levi = positive_root_count(family), _levi_positive_count(index)
    if count + levi + family.torus_dim == 0:
        # dim P_I = 0 on SL1 alone: ad sl(1) is the zero bundle, refused
        with pytest.raises(ZeroBundle):
            adjoint(b)
        return
    ad = adjoint(b)
    positive_rank = sum(a.rank for a in ad.positive)
    assert positive_rank == count - levi
    assert sum(a.degree for a in ad.positive) == ad_degree(family, index, mu.mu)
    assert positive_rank + ad.zero_rank == count + levi + family.torus_dim


@settings(max_examples=500, deadline=None)
@given(atom_bundles())
def test_the_parabolic_of_the_hn_flag_is_the_canonical_reduction(b):
    # Atiyah-Bott: the stabilizer of the HN flag is the canonical parabolic.
    # The flag's subbundle ranks are the cumulative quotient ranks: all but
    # the whole bundle on GL/SL, every isotropic step on Sp/SO.
    mu = hn_type(b)
    if isinstance(b, PlainBundle):
        quotients = hn_filtration(b).quotients[:-1]
    else:
        quotients = hn_filtration_isotropic(b).quotients
    ranks = list(accumulate(q.rank for q in quotients))
    assert parabolic_from_flag(mu.family, ranks) == CanonicalReduction(mu).index


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
