import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from hnbundles.canon import ad_degree, bh_conditions, canonical_reduction
from hnbundles.errors import (FamilyMismatch, InvalidFlag, NotACharacter,
                              NothingToGenerate, TooLarge)
from hnbundles.parabolic import (ParabolicIndex, _levi_blocks,
                                 _levi_positive_count, character_generators,
                                 is_dominant_character, parabolic_from_flag,
                                 parabolic_leq)
from hnbundles.rootsys import (GroupFamily, evaluate, positive_root_count,
                               simple_root_count)
from oracles import (ROOT_TABLE_GUARD, _root_split, _root_supports, all_roots,
                     character_oracle, coroot, forced_index, generator_oracle,
                     index_point, levi_blocks, positive_roots,
                     root_split_oracle, simple_roots, solve_rational)


def _idx(family, members):
    return ParabolicIndex(family, frozenset(members))


def test_flag_examples():
    assert parabolic_from_flag(GroupFamily("gl", 4), [2]).members == {1}
    assert parabolic_from_flag(GroupFamily("sp", 4), [2]).members == {1}
    assert parabolic_from_flag(GroupFamily("so", 8), [3]).members == {2, 3}
    assert parabolic_from_flag(GroupFamily("so", 8), [3, 4]).members == {2, 3}
    assert parabolic_from_flag(GroupFamily("so", 8), [4]).members == {3}


def test_flag_errors():
    with pytest.raises(InvalidFlag):
        parabolic_from_flag(GroupFamily("gl", 4), [4])
    with pytest.raises(InvalidFlag):
        parabolic_from_flag(GroupFamily("sp", 4), [3])
    with pytest.raises(InvalidFlag):
        parabolic_from_flag(GroupFamily("gl", 4), [2, 2])


@pytest.mark.parametrize("family", [GroupFamily("gl", 5), GroupFamily("sl", 4),
                                    GroupFamily("sp", 6), GroupFamily("so", 7),
                                    GroupFamily("so", 8), GroupFamily("so", 4)])
def test_full_flag_gives_borel(family):
    top = family.r - 1 if family.kind in ("gl", "sl") else family.cartan_dim
    index = parabolic_from_flag(family, list(range(1, top + 1)))
    assert index.members == set(range(len(simple_roots(family))))


def test_levi_block_examples():
    gl4 = GroupFamily("gl", 4)
    assert levi_blocks(gl4, _idx(gl4, {1})).blocks == ((1, 2), (3, 2))
    sp4 = GroupFamily("sp", 4)
    assert levi_blocks(sp4, _idx(sp4, {0})).blocks == ((1, 1), (2, 2), (4, 1))
    so5 = GroupFamily("so", 5)
    assert levi_blocks(so5, _idx(so5, {1})).blocks == ((1, 2), (3, 1), (4, 2))


@pytest.mark.parametrize("family", [GroupFamily("gl", 5), GroupFamily("sp", 6),
                                    GroupFamily("so", 7), GroupFamily("so", 8)])
def test_levi_blocks_mirror_and_total(family):
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = _idx(family, {i for i in range(count) if bits >> i & 1})
        sizes = levi_blocks(family, index).sizes()
        assert sum(sizes) == family.r
        if family.kind in ("sp", "so"):
            assert sizes == tuple(reversed(sizes))


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 4), ("sl", 3), ("sp", 6), ("so", 7), ("so", 8))])
def test_root_split_partitions_the_roots(family):
    roots = all_roots(family)
    simples = simple_roots(family)
    for bits in range(1 << len(simples)):
        index = _idx(family, [i for i in range(len(simples)) if bits >> i & 1])
        levi, nilrad = _root_split(index)
        assert list(levi) == [a for a in roots if a in levi]
        assert set(levi) == {tuple(-c for c in a) for a in levi}
        opposite = {tuple(-c for c in a) for a in nilrad}
        assert len(levi) + 2 * len(nilrad) == len(roots)
        assert set(levi) | set(nilrad) | opposite == set(roots)
        for i, alpha in enumerate(simples):
            assert (alpha in nilrad) == (i in index.members)


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 4), ("sl", 3), ("sp", 6), ("so", 4), ("so", 7), ("so", 8))])
def test_root_split_equals_the_span_definition(family):
    # reference: a Levi root is one in the span of the simple roots outside I
    roots = all_roots(family)
    simples = simple_roots(family)
    for bits in range(1 << len(simples)):
        index = _idx(family, [i for i in range(len(simples)) if bits >> i & 1])
        keep = [a for i, a in enumerate(simples) if i not in index.members]
        levi = tuple(a for a in roots
                     if keep and solve_rational(keep, a) is not None)
        nilrad = tuple(a for a in positive_roots(family) if a not in levi)
        assert _root_split(index) == (levi, nilrad)
        assert forced_index(family, index_point(index)) == index


# every family with a root system and r <= 14
FAMILIES = [GroupFamily(kind, r) for kind in ("gl", "sl", "sp", "so")
            for r in range(1, 15)
            if (kind != "sp" or r % 2 == 0) and (kind != "so" or r >= 3)]


def _name(family):
    return f"{family.kind}{family.r}"


@pytest.mark.parametrize("family", [f for f in FAMILIES if f.cartan_dim <= 4],
                         ids=_name)
def test_root_split_equals_the_solve_point_route(family):
    count = len(simple_roots(family))
    for bits in range(1 << count):
        index = _idx(family, [i for i in range(count) if bits >> i & 1])
        assert _root_split(index) == root_split_oracle(index)


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 12), ("sl", 12), ("sp", 12), ("so", 11), ("so", 12))], ids=_name)
def test_root_split_equals_the_solve_point_route_at_rank_twelve(family):
    # the singleton and co-singleton indices, the ones pi1 asks for
    count = len(simple_roots(family))
    for i in range(count):
        for members in ({i}, set(range(count)) - {i}):
            index = _idx(family, members)
            assert _root_split(index) == root_split_oracle(index)


def _table_size(family):
    return 2 * positive_root_count(family) * family.cartan_dim


def test_root_table_guard(monkeypatch):
    # the oracle's root table: GL160 sits at the limit; Sp252, SO253 and
    # SO254 just under it
    assert _table_size(GroupFamily("gl", 160)) == ROOT_TABLE_GUARD
    for kind, r in (("sl", 160), ("sp", 252), ("so", 253), ("so", 254)):
        assert _table_size(GroupFamily(kind, r)) <= ROOT_TABLE_GUARD
    # the next rank of each kind is refused before a root is listed, and
    # the canonical reduction, which reads no root table, answers there
    monkeypatch.setattr(oracles, "all_roots", None)
    for kind, r in (("gl", 161), ("sl", 161), ("sp", 254), ("so", 255),
                    ("so", 256)):
        family = GroupFamily(kind, r)
        assert _table_size(family) > ROOT_TABLE_GUARD
        with pytest.raises(TooLarge, match="enumeration guard exceeded"):
            _root_supports(family)
        zero = (0,) * family.cartan_dim
        assert canonical_reduction(family, zero).index.members == set()


# every index of these families, 629 in all, against the root table
CLOSED_FORM_GRID = [GroupFamily("gl", r) for r in range(1, 8)] + \
    [GroupFamily("sl", r) for r in range(2, 8)] + \
    [GroupFamily("sp", r) for r in range(2, 13, 2)] + \
    [GroupFamily("so", r) for r in range(3, 14)]


def _every_index(family):
    count = simple_root_count(family)
    return [_idx(family, [i for i in range(count) if bits >> i & 1])
            for bits in range(1 << count)]


@pytest.mark.parametrize("family", CLOSED_FORM_GRID, ids=_name)
def test_levi_closed_forms_equal_the_root_table(family):
    # 2rho_P is the sum of the nilradical roots, and P_I holds the Levi and
    # nilradical roots (and the torus): exact ints, equal to the table's
    positive = positive_root_count(family)
    for index in _every_index(family):
        levi, nilrad = _root_split(index)
        two_rho = tuple(sum(a[t] for a in nilrad)
                        for t in range(family.cartan_dim))
        assert index._two_rho == two_rho, index
        assert all(type(c) is int for c in index._two_rho)
        levi_count = _levi_positive_count(index)
        assert positive - levi_count == len(nilrad), index
        assert positive + levi_count == len(levi + nilrad), index
        # the runs and the tail cover the coordinates once, in order
        runs, fork, tail = _levi_blocks(index)
        bounds = [lo for lo, _ in runs] + [family.cartan_dim - tail]
        assert [hi for _, hi in runs] == bounds[1:]
        assert fork == oracles.on_the_fork(index)


def _points(rng, family):
    """An int point, a Fraction point and a mixed point, whose one
    Fraction entry sits anywhere."""
    dim = family.cartan_dim
    ints = tuple(rng.randint(-4, 4) for _ in range(dim))
    fractions = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(dim))
    k = rng.randrange(dim)
    mixed = ints[:k] + (Fraction(rng.randint(-8, 8), 2),) + ints[k + 1:]
    return ints, fractions, mixed


@pytest.mark.parametrize("family", CLOSED_FORM_GRID, ids=_name)
def test_bh_degrees_equal_the_pairings_with_the_generators(family):
    # one prefix-sum pass against the pairing of each generator with the
    # point: equal values of equal types, a Fraction for any point that
    # holds one.  The generators equal the kernel route's.
    rng = random.Random(f"bh {family.kind}{family.r}")
    count = simple_root_count(family)
    kernel = [generator_oracle(family, i) for i in range(count)]
    for index in _every_index(family):
        if index.members:
            assert character_generators(family, index) == [
                kernel[i] for i in sorted(index.members)]
        for v in _points(rng, family):
            expected = [evaluate(kernel[i], v) for i in sorted(index.members)]
            _, degrees = bh_conditions(family, index, v)
            assert degrees == expected, (index, v)
            assert list(map(type, degrees)) == list(map(type, expected)), \
                (index, v)


def test_character_generators_equal_the_kernel_oracle():
    pairs = 0
    for family in FAMILIES:
        count = len(simple_roots(family))
        if count:
            borel = _idx(family, range(count))
            assert character_generators(family, borel) == [
                generator_oracle(family, i) for i in range(count)], family
            pairs += count
    assert pairs == 258


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 5), ("sl", 4), ("sp", 2), ("sp", 6), ("so", 3), ("so", 4),
    ("so", 7), ("so", 8))], ids=_name)
def test_dominant_character_coefficients_equal_the_solve(family):
    rng = random.Random(11)
    simples = simple_roots(family)
    count = len(simples)
    dim = family.cartan_dim
    for _ in range(60):
        if rng.random() < 0.5:
            # every functional is a character of the Borel
            members = set(range(count))
            dchi = [rng.randint(-3, 3) for _ in range(dim)]
        else:
            # a combination of the generators of a random index, plus for
            # GL/SL a multiple of the trace, which is off the span
            members = {i for i in range(count) if rng.random() < 0.5} \
                or {rng.randrange(count)}
            dchi = [0] * dim
            for i in members:
                m = rng.randint(-2, 2)
                dchi = [x + m * g for x, g in zip(dchi, generator_oracle(family, i))]
            if family.kind in ("gl", "sl"):
                trace = rng.randint(-1, 1)
                dchi = [x + trace for x in dchi]
        if not any(dchi):
            continue
        coeffs = solve_rational(simples, dchi)
        ok = coeffs is not None and all(c.denominator == 1 and c >= 0
                                        for c in coeffs)
        assert is_dominant_character(family, _idx(family, members), dchi) \
            == (ok, coeffs), (members, dchi)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f.cartan_dim <= 4],
                         ids=_name)
def test_character_test_equals_the_coroot_loop(family):
    # every functional in {-1, 0, 1}^dim, and for each index the sum of its
    # generators and its negation, which are characters of that index
    count = simple_root_count(family)
    cube = list(product((-1, 0, 1), repeat=family.cartan_dim))
    outcomes = set()
    for bits in range(1 << count):
        index = _idx(family, [i for i in range(count) if bits >> i & 1])
        chi = [0] * family.cartan_dim
        for i in index.members:
            chi = [x + g for x, g in zip(chi, generator_oracle(family, i))]
        for dchi in cube + [tuple(chi), tuple(-x for x in chi)]:
            try:
                character_oracle(family, index, dchi)
                expected = None
            except NotACharacter as e:
                expected = str(e)
            try:
                is_dominant_character(family, index, dchi)
                got = None
            except NotACharacter as e:
                got = str(e)
            assert got == expected, (index.members, dchi)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 4), ("sl", 3), ("sp", 6), ("so", 7), ("so", 8), ("so", 4))])
def test_two_rho_is_a_dominant_character(family):
    simples = simple_roots(family)
    for bits in range(1 << len(simples)):
        index = _idx(family, [i for i in range(len(simples)) if bits >> i & 1])
        two_rho = index._two_rho
        for i, alpha in enumerate(simples):
            pairing = evaluate(two_rho, coroot(family, alpha))
            assert pairing > 0 if i in index.members else pairing == 0


@pytest.mark.parametrize("family, expected", [
    (GroupFamily("gl", 1), (0,)),
    (GroupFamily("gl", 4), (3, 1, -1, -3)),
    (GroupFamily("sl", 3), (2, 0, -2)),
    (GroupFamily("sp", 2), (2,)),
    (GroupFamily("sp", 6), (6, 4, 2)),
    (GroupFamily("so", 3), (1,)),
    (GroupFamily("so", 7), (5, 3, 1)),
    (GroupFamily("so", 4), (2, 0)),
    (GroupFamily("so", 8), (6, 4, 2, 0))])
def test_two_rho_of_the_borel_and_of_g(family, expected):
    count = len(simple_roots(family))
    assert _idx(family, range(count))._two_rho == expected
    assert _idx(family, [])._two_rho == (0,) * family.cartan_dim


def test_parabolic_leq():
    gl3 = GroupFamily("gl", 3)
    assert parabolic_leq(_idx(gl3, {0, 1}), _idx(gl3, {0}))
    assert not parabolic_leq(_idx(gl3, {0}), _idx(gl3, {1}))
    assert not parabolic_leq(_idx(gl3, set()), _idx(gl3, {0}))
    assert parabolic_leq(_idx(gl3, {0}), _idx(gl3, set()))
    with pytest.raises(FamilyMismatch):
        parabolic_leq(_idx(gl3, {0}), _idx(GroupFamily("gl", 4), {0}))


def test_dominant_character_example():
    gl4 = GroupFamily("gl", 4)
    ok, coeffs = is_dominant_character(gl4, _idx(gl4, {1}), (1, 1, -1, -1))
    assert ok and coeffs == [1, 2, 1]
    ok, coeffs = is_dominant_character(gl4, _idx(gl4, {1}), (-1, -1, 1, 1))
    assert not ok and coeffs == [-1, -2, -1]


def test_dominant_character_errors():
    gl4 = GroupFamily("gl", 4)
    with pytest.raises(NotACharacter):
        is_dominant_character(gl4, _idx(gl4, {1}), (0, 0, 0, 0))
    with pytest.raises(NotACharacter):
        is_dominant_character(gl4, _idx(gl4, {1}), (1, 0, 0, -1))


def test_character_checks_reject_other_families_and_lengths():
    # evaluate zips and would silently truncate, or read past the end
    gl3, sp4 = GroupFamily("gl", 3), GroupFamily("sp", 4)
    with pytest.raises(ValueError):
        is_dominant_character(gl3, _idx(gl3, {0}), (1,))
    with pytest.raises(FamilyMismatch):
        is_dominant_character(gl3, _idx(sp4, {0}), (1, -1, 0))
    with pytest.raises(FamilyMismatch):
        character_generators(gl3, _idx(sp4, {0}))


def test_character_generator_examples():
    gl4 = GroupFamily("gl", 4)
    assert character_generators(gl4, _idx(gl4, {1})) == [(1, 1, -1, -1)]
    gl3 = GroupFamily("gl", 3)
    assert character_generators(gl3, _idx(gl3, {0, 1})) == [(2, -1, -1), (1, 1, -2)]
    sp4 = GroupFamily("sp", 4)
    assert character_generators(sp4, _idx(sp4, {1})) == [(1, 1)]


def test_character_generators_empty_index():
    gl3 = GroupFamily("gl", 3)
    with pytest.raises(NothingToGenerate):
        character_generators(gl3, _idx(gl3, set()))


@pytest.mark.parametrize("family", [GroupFamily("gl", 4), GroupFamily("sl", 4),
                                    GroupFamily("sp", 6), GroupFamily("so", 7),
                                    GroupFamily("so", 8)])
def test_generators_are_dominant_and_vanish_elsewhere(family):
    count = len(simple_roots(family))
    simples = simple_roots(family)
    for bits in range(1, 1 << count):
        index = _idx(family, {i for i in range(count) if bits >> i & 1})
        gens = character_generators(family, index)
        for pos, i in enumerate(sorted(index.members)):
            chi = gens[pos]
            ok, coeffs = is_dominant_character(family, index, chi)
            assert ok
            assert coeffs[i] > 0
            # vanishing at the other members is pairing-vanishing
            for j in index.members:
                pairing = evaluate(chi, coroot(family, simples[j]))
                assert (pairing > 0) == (j == i)


def test_index_members_become_a_frozenset():
    gl3 = GroupFamily("gl", 3)
    index = ParabolicIndex(gl3, {0})
    assert type(index.members) is frozenset
    assert index == _idx(gl3, {0}) and hash(index) == hash(_idx(gl3, {0}))
    assert ad_degree(gl3, index, (1, 0, 0)) == 2
    assert ParabolicIndex(gl3, [1, 0]).members == {0, 1}
    for members in ({5}, {-1}, {0, 2}):
        with pytest.raises(ValueError) as err:
            ParabolicIndex(gl3, members)
        assert str(err.value) == "parabolic index out of range"
    # 1.0, True and Fraction(1) equal 1, but are no ints: a float member
    # would name its root a2.0,3.0, and ad_degree cannot read it.  The
    # message names that rule, even for a member also out of range
    for members, shown in (({1.0}, "1.0"), ({True}, "True"),
                           ({0, Fraction(1)}, "Fraction(1, 1)"),
                           ({5.0}, "5.0")):
        with pytest.raises(ValueError) as err:
            ParabolicIndex(gl3, members)
        assert str(err.value) == f"parabolic index members must be ints, got {shown}"
