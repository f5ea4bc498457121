import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hnbundles import canon, parabolic
from hnbundles.bundle import (Atom, PlainBundle, SoBundle, SpBundle,
                              is_semistable, vertical_degree)
from hnbundles.canon import (ORACLE_WORK_GUARD, CanonicalReduction, HNType,
                             _oracle_of_orbit, _packed_orbit,
                             _reduction_of_orbit, ad_degree,
                             ad_degree_max_oracle, bh_conditions,
                             canonical_reduction, check_bh, forced_index,
                             hn_type)
from hnbundles.errors import (FamilyMismatch, InvalidReduction, NotIntegral,
                              TooLarge)
from hnbundles.lattice import levi_topological_type, topological_type
from hnbundles.parabolic import ParabolicIndex, _root_split, _two_rho_terms
from hnbundles.rootsys import (GroupFamily, all_roots, as_cocharacter,
                               dominant_representative, evaluate, is_dominant,
                               is_root, positive_roots, simple_roots,
                               weyl_orbit, weyl_orbit_size)
from oracles import canonical_reduction_uncached, check_bh_uncached


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
    assert index == red.index and not {"_split", "_two_rho"} & set(vars(index))


def test_the_root_table_is_filtered_once_per_reduction(monkeypatch):
    calls = []

    def counted(index):
        calls.append(index)
        return _root_split(index)

    monkeypatch.setattr(parabolic, "_root_split", counted)
    _reduction_of_orbit.cache_clear()
    sp8, a = GroupFamily("sp", 8), (3, -1, 2, 0)
    red = canonical_reduction(sp8, a)
    # the reduction, 2rho_P and the Levi centre read one split of the index
    assert ad_degree(sp8, red.index, red.mu.mu) == sum(
        evaluate(alpha, red.mu.mu) for alpha in red.ad_positive_roots) == 40
    levi_topological_type(sp8, red.index, a)
    assert calls == [red.index]


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
    """The lane bound from the table of terms: max(1, max_I sum |c_k|) times
    sum |a_i|."""
    table, _ = _two_rho_terms(family)
    weight = max(sum(abs(c) for _, c in terms) for _, terms in table)
    return max(1, weight) * sum(map(abs, a))


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


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("sp", 2), ("sp", 4),
    ("sp", 6), ("so", 3), ("so", 4), ("so", 5), ("so", 6), ("so", 7))], ids=str)
def test_oracle_equals_the_per_pair_loop(family):
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        # same best, same argmax pairs in the same order
        assert ad_degree_max_oracle(family, a) == \
            _ad_degree_max_by_pairs(family, a), a


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 1), ("gl", 2), ("gl", 3), ("sl", 1), ("sl", 2), ("sl", 3),
    ("sp", 2), ("sp", 4), ("sp", 6), ("so", 3), ("so", 4), ("so", 5),
    ("so", 6), ("so", 7))], ids=str)
def test_oracle_answer_cache_equals_the_cold_oracle(family):
    grid = list(product(range(-2, 3), repeat=family.cartan_dim))
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
    ids=str)
def test_reduction_and_bh_caches_equal_the_uncached_reference(family, monkeypatch):
    # W acts by signed permutations, so [-2,2]^dim holds every Weyl
    # translate of each of its points
    grid = list(product(range(-2, 3), repeat=family.cartan_dim))
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
    frac = CanonicalReduction(sp4, red.index, HNType(sp4, (Fraction(2), 1)),
                              red.ad_positive_roots, red.ad_parabolic_roots)
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


@pytest.mark.parametrize("family,a", [
    (GroupFamily("gl", 5), (2, 2, 0, -1, -1)), (GroupFamily("gl", 5), (1, 0, 0, 0, 3)),
    (GroupFamily("sp", 10), (2, -2, 1, 0, 0)), (GroupFamily("sp", 10), (0, 3, -1, 1, 3)),
    (GroupFamily("so", 10), (1, -1, 2, 0, 2)), (GroupFamily("so", 10), (-2, 1, 1, 1, 3)),
    (GroupFamily("so", 11), (-3, 5, 1, -4, 2)), (GroupFamily("gl", 6), (3, -1, 2, 0, 2, 3)),
    (GroupFamily("sl", 8), (1, 1, 1, 1, 0, 0, -2, -2))],
    ids=str)
def test_oracle_equals_the_per_pair_loop_at_the_guard(family, a):
    # points whose work is up to the guard: a regular SO11 point at it, the
    # D5 fork, and GL6 and SL8 points, which the former cartan_dim <= 5
    # guard refused
    assert _work(family, a) <= ORACLE_WORK_GUARD
    assert ad_degree_max_oracle(family, a) == _ad_degree_max_by_pairs(family, a)


def _lane_bytes(family, a):
    dominant = dominant_representative(family, as_cocharacter(family, a))
    orbit, _, nbytes, _, _, _ = _packed_orbit(family, dominant)
    return nbytes // len(orbit)


@pytest.mark.parametrize("family,base", [
    (GroupFamily("gl", 3), (0, 2, -1)), (GroupFamily("sl", 3), (0, 2, -2)),
    (GroupFamily("sp", 6), (0, -1, 2)), (GroupFamily("so", 7), (0, 1, -2)),
    (GroupFamily("so", 8), (0, -1, 2, 1))], ids=str)
def test_oracle_equals_the_per_pair_loop_at_the_lane_limits(family, base):
    # add m to the first coordinate of base (and on SL take it off the last)
    # so that the bound B sits on each side of 2^15, 2^31 and 2^63
    step = 2 if family.kind == "sl" else 1

    def point(m):
        return (base[0] + m,) + base[1:-1] + (
            base[-1] - m if family.kind == "sl" else base[-1],)

    scale = _bound(family, point(step)) - _bound(family, point(0))
    for limit, narrow, wide in ((15, 2, 4), (31, 4, 8), (63, 8, None)):
        m = ((1 << limit) - _bound(family, point(0))) // scale * step
        below, above = point(m), point(m + step)
        assert _bound(family, below) < 1 << limit <= _bound(family, above)
        assert _lane_bytes(family, below) == narrow
        assert ad_degree_max_oracle(family, below) == \
            _ad_degree_max_by_pairs(family, below), below
        if wide is None:
            with pytest.raises(TooLarge, match="enumeration guard exceeded"):
                ad_degree_max_oracle(family, above)
        else:
            assert _lane_bytes(family, above) == wide
            assert ad_degree_max_oracle(family, above) == \
                _ad_degree_max_by_pairs(family, above), above


@pytest.mark.parametrize("kind", ["gl", "sl"])
def test_rank_one_entries_fit_their_lane(kind):
    # GL1 and SL1 have one parabolic and no term, but the prefix-sum column
    # still holds the entry, so B = |a_0|
    family = GroupFamily(kind, 1)
    index = ParabolicIndex(family, frozenset())
    for x in ((1 << 15) - 1, -(1 << 15), (1 << 31) - 1, (1 << 63) - 1, 1 - (1 << 63)):
        assert ad_degree_max_oracle(family, (x,)) == (0, [(index, (x,))])
    for x in (1 << 63, -(1 << 63)):
        with pytest.raises(TooLarge, match="enumeration guard exceeded"):
            ad_degree_max_oracle(family, (x,))


def _families_to_dimension_five():
    return ([GroupFamily(k, r) for k in ("gl", "sl") for r in range(1, 6)]
            + [GroupFamily("sp", r) for r in range(2, 11, 2)]
            + [GroupFamily("so", r) for r in range(3, 12)])


@pytest.mark.parametrize("family", _families_to_dimension_five(), ids=str)
def test_two_rho_terms_sit_on_the_index_or_the_last_position(family):
    # 2rho_P is a character of P_I: no term at a simple root outside I
    table, _ = _two_rho_terms(family)
    assert [index for index, _ in table] == _indices(family)
    for index, terms in table:
        assert all(k in index.members or k == family.cartan_dim - 1
                   for k, _ in terms), index


def test_two_rho_terms_pass_counts():
    # column passes per oracle call, against one per nonzero coordinate of
    # 2rho_P in the coordinate basis
    for (kind, r), prefix, coordinate in (
            (("gl", 4), 19, 26), (("sl", 4), 19, 26), (("sp", 8), 32, 49),
            (("so", 8), 32, 49), (("so", 9), 32, 49), (("so", 10), 80, 129)):
        table, _ = _two_rho_terms(GroupFamily(kind, r))
        assert sum(len(terms) for _, terms in table) == prefix, (kind, r)
        assert sum(sum(1 for c in index._two_rho if c)
                   for index, _ in table) == coordinate, (kind, r)


def test_hn_type_keeps_ints():
    gl3 = GroupFamily("gl", 3)
    assert [type(c) for c in HNType(gl3, (2, 1, 0)).mu] == [int] * 3
    mixed = HNType(gl3, (Fraction(2), True, False))
    assert [type(c) for c in mixed.mu] == [Fraction] * 3
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
