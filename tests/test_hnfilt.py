import random
from fractions import Fraction
from itertools import combinations_with_replacement, groupby

import pytest
from hypothesis import given, settings, strategies as st

import hnbundles.hnfilt
import hnbundles.oracles
from hnbundles.bundle import (Atom, PlainBundle, SlBundle, SoBundle, SpBundle,
                              adjoint, direct_sum, dual, is_semistable, tensor,
                              underlying)
from hnbundles.errors import TooLarge, UnsupportedRank
from hnbundles.hnfilt import (Filtration, IsotropicFiltration, _group_by_slope,
                              extend_with_perps, hn_filtration,
                              hn_filtration_isotropic, scss)
from hnbundles.oracles import _hn_candidates, hn_uniqueness_oracle
from oracles import hn_winners_by_partitions

B = PlainBundle((Atom(3, 1), Atom(1, 2), Atom(1, 2), Atom(-2, 1)))


def test_scss_examples():
    assert scss(B) == (Atom(3, 1),)
    whole = PlainBundle((Atom(0, 1), Atom(0, 3)))
    assert scss(whole) == whole.atoms
    assert scss(PlainBundle((Atom(2, 2), Atom(1, 1)))) == (Atom(2, 2), Atom(1, 1))


def test_scss_reads_the_underlying_bundle():
    # the maximal destabilising piece of an Sp or SO bundle is isotropic:
    # the top slope of its positive part, never of the mirror
    assert scss(SpBundle((Atom(2, 1), Atom(1, 1)), ())) == (Atom(2, 1),)
    assert scss(SoBundle((Atom(1, 2), Atom(1, 1)), (Atom(0, 1),))) == \
        (Atom(1, 1),)
    assert scss(SoBundle((), (Atom(0, 3),))) == (Atom(0, 3),)


def test_hn_filtration_examples():
    filt = hn_filtration(B)
    assert [q.atoms for q in filt.quotients] == [
        (Atom(3, 1),), (Atom(1, 2), Atom(1, 2)), (Atom(-2, 1),)]
    assert list(filt.slopes) == [3, 0.5, -2]
    single = hn_filtration(PlainBundle((Atom(1, 2), Atom(1, 2))))
    assert len(single.quotients) == 1
    three = hn_filtration(PlainBundle((Atom(2, 1), Atom(1, 1), Atom(0, 1))))
    assert len(three.quotients) == 3


def test_hn_filtration_sp_examples():
    f = hn_filtration_isotropic(SpBundle((Atom(2, 1),), (Atom(0, 2),)))
    assert [q.atoms for q in f.quotients] == [(Atom(2, 1),)]
    assert sum(a.rank for a in f.middle) == 2
    trivial = hn_filtration_isotropic(SpBundle((), (Atom(0, 4),)))
    assert not trivial.quotients and sum(a.rank for a in trivial.middle) == 4
    lagr = hn_filtration_isotropic(SpBundle((Atom(3, 1), Atom(1, 2)), ()))
    assert [q.atoms for q in lagr.quotients] == [(Atom(3, 1),), (Atom(1, 2),)]
    assert not lagr.middle


def test_hn_filtration_so_examples():
    f = hn_filtration_isotropic(SoBundle((Atom(1, 1),), (Atom(0, 2),)))
    assert [q.atoms for q in f.quotients] == [(Atom(1, 1),)] and f.rank_flag
    g = hn_filtration_isotropic(SoBundle((Atom(2, 1), Atom(1, 1)), (Atom(0, 1),)))
    assert [q.atoms for q in g.quotients] == [(Atom(2, 1),), (Atom(1, 1),)]
    assert not g.rank_flag
    t = hn_filtration_isotropic(SoBundle((), (Atom(0, 6),)))
    assert not t.quotients
    with pytest.raises(UnsupportedRank):
        hn_filtration_isotropic(SoBundle((Atom(1, 1),), ()))


def test_extend_with_perps_examples():
    f = extend_with_perps(hn_filtration_isotropic(SpBundle((Atom(2, 1),), (Atom(0, 2),))))
    assert [q.atoms for q in f.quotients] == [
        (Atom(2, 1),), (Atom(0, 2),), (Atom(-2, 1),)]
    t = extend_with_perps(hn_filtration_isotropic(SpBundle((), (Atom(0, 4),))))
    assert len(t.quotients) == 1
    lagr = extend_with_perps(
        hn_filtration_isotropic(SpBundle((Atom(3, 1), Atom(1, 2)), ())))
    assert [q.atoms for q in lagr.quotients] == [
        (Atom(3, 1),), (Atom(1, 2),), (Atom(-1, 2),), (Atom(-3, 1),)]


def test_uniqueness_oracle_examples():
    assert hn_uniqueness_oracle(PlainBundle((Atom(3, 1), Atom(-2, 1))))
    assert hn_uniqueness_oracle(PlainBundle((Atom(0, 1), Atom(0, 1))))
    assert hn_uniqueness_oracle(SpBundle((Atom(2, 1), Atom(1, 1)), ()))
    assert hn_uniqueness_oracle(SlBundle((Atom(2, 1), Atom(-2, 2))))


# atom lists of total degree 0: up to four atoms and one more that cancels
# their degree, so at most five, under the oracle's guard
sl_atoms_st = st.lists(st.builds(Atom, st.integers(-3, 3), st.integers(1, 2)),
                       min_size=1, max_size=4).map(
    lambda atoms: tuple(atoms) + (Atom(-sum(a.degree for a in atoms), 1),))


@given(sl_atoms_st)
def test_sl_bundle_answers_as_its_plain_bundle(atoms):
    # an SL bundle is a plain bundle of degree 0: every function of a plain
    # bundle takes it as it is and answers as on the plain bundle, but for
    # the adjoint bundle, End_0 E on SL: End E less its trace line
    sl, b = SlBundle(atoms), PlainBundle(atoms)
    assert sl != b and sl.atoms == b.atoms and underlying(sl) is sl
    assert hn_filtration(sl).quotients == hn_filtration(b).quotients
    assert is_semistable(sl) == is_semistable(b)
    assert scss(sl) == scss(b)
    assert dual(sl) == dual(b)
    assert tensor(sl, sl) == tensor(b, b) == tensor(sl, b)
    assert direct_sum(sl, sl) == direct_sum(b, b)
    ad_sl, ad = adjoint(sl), adjoint(b)
    assert ad_sl.positive == ad.positive
    assert ad_sl.zero_rank == ad.zero_rank - 1
    assert hn_uniqueness_oracle(sl) and hn_uniqueness_oracle(b)


def test_uniqueness_oracle_guard():
    # the limit counts the atoms the search partitions, not the rank
    assert hn_uniqueness_oracle(PlainBundle((Atom(0, 9),)))
    assert hn_uniqueness_oracle(SpBundle(tuple(Atom(d, 1) for d in range(1, 9))))
    with pytest.raises(TooLarge):
        hn_uniqueness_oracle(PlainBundle(tuple(Atom(d, 1) for d in range(9))))
    with pytest.raises(TooLarge):
        hn_uniqueness_oracle(SoBundle((Atom(1, 1),) * 9, (Atom(0, 1),)))


def _search_and_reference_agree(atoms):
    assert set(_hn_candidates(atoms)) == hn_winners_by_partitions(atoms), atoms


def test_search_finds_the_partition_winners():
    pool = [Atom(d, r) for d in range(-3, 4) for r in (1, 2)]
    for size in (1, 2, 3, 4):
        for atoms in combinations_with_replacement(pool, size):
            _search_and_reference_agree(PlainBundle(atoms).atoms)
    rng = random.Random(18)
    for _ in range(60):
        atoms = tuple(Atom(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(rng.randint(1, 6)))
        _search_and_reference_agree(PlainBundle(atoms).atoms)
    for _ in range(60):
        positive = tuple(Atom(rng.randint(1, 3), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 4)))
        zeros = tuple([Atom(0, 1)] * (2 * rng.randint(0, 1)))
        # with no atoms at all the Sp bundle is the zero bundle, which the
        # model refuses; the SO one still has its odd zero line
        bundles = [SoBundle(positive, zeros + (Atom(0, 1),))]
        if positive or zeros:
            bundles.append(SpBundle(positive, zeros))
        for b in bundles:
            _search_and_reference_agree(b.positive)
            if b.rank >= 3:
                assert hn_uniqueness_oracle(b)


def test_search_reads_neither_the_bundle_model_nor_the_fast_path(monkeypatch):
    cases = [(Atom(2, 1), Atom(1, 2), Atom(1, 2), Atom(0, 1), Atom(-1, 1)),
             (Atom(0, 1),) * 5, tuple(Atom(d, 1) for d in range(4, -1, -1)), ()]
    want = [hn_winners_by_partitions(atoms) for atoms in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the search read the bundle model or the fast path")

    for module in (hnbundles.hnfilt, hnbundles.oracles):
        for name in ("is_semistable", "PlainBundle", "hn_filtration"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert [set(_hn_candidates(atoms)) for atoms in cases] == want


def _group_by_fraction(atoms):
    """The slope grouping keyed by Fraction slopes: sort, then groupby."""
    slope = lambda a: Fraction(a.degree, a.rank)  # noqa: E731
    return tuple(PlainBundle(tuple(run)) for _, run in
                 groupby(sorted(atoms, key=slope, reverse=True), key=slope))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Atom, st.integers(-5, 5), st.integers(1, 4)),
                max_size=8))
def test_group_by_slope_equals_fraction_grouping(atoms):
    assert _group_by_slope(atoms) == _group_by_fraction(atoms)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(Atom, st.integers(-3, 3), st.integers(1, 2)),
                min_size=1, max_size=4).map(tuple))
def test_oracle_agrees_with_fast_path(atoms):
    assert hn_uniqueness_oracle(PlainBundle(atoms))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(Atom, st.integers(1, 3), st.integers(1, 2)),
                max_size=3).map(tuple),
       st.integers(0, 2), st.booleans())
def test_perp_extension_matches_plain_route(positive, zeros, symplectic):
    if symplectic:
        if not (positive or zeros):
            return  # the zero bundle, which the model refuses
        b = SpBundle(positive, tuple([Atom(0, 1)] * (2 * zeros)))
    else:
        b = SoBundle(positive, tuple([Atom(0, 1)] * (2 * zeros + 1)))
    if not symplectic and b.rank < 3:
        return
    filt = hn_filtration_isotropic(b)
    assert extend_with_perps(filt).quotients == \
        hn_filtration(underlying(b)).quotients


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(Atom, st.integers(-3, 3), st.integers(1, 2)),
                min_size=1, max_size=4).map(tuple))
def test_slopes_are_distinct_atom_slopes(atoms):
    b = PlainBundle(atoms)
    filt = hn_filtration(b)
    assert list(filt.slopes) == sorted({a.slope for a in atoms}, reverse=True)
    assert (len(filt.quotients) == 1) == \
        (len({a.slope for a in atoms}) == 1)


def test_filtrations_reject_bad_slopes():
    low, high = PlainBundle((Atom(0, 1),)), PlainBundle((Atom(3, 1),))
    with pytest.raises(ValueError, match="not strictly decreasing"):
        Filtration((low, high))
    with pytest.raises(ValueError, match="not strictly decreasing"):
        Filtration((high, high))
    with pytest.raises(ValueError, match="semistable"):
        Filtration((PlainBundle((Atom(1, 1), Atom(0, 1))),))
    with pytest.raises(ValueError, match="^HN quotients must be semistable$"):
        IsotropicFiltration((PlainBundle((Atom(3, 1), Atom(1, 1))),), ())
    with pytest.raises(ValueError, match="not strictly decreasing"):
        IsotropicFiltration((PlainBundle((Atom(1, 1),)), high), ())
    with pytest.raises(ValueError, match="positive slopes"):
        IsotropicFiltration((high, low), ())
    assert Filtration((high, low)).slopes == (3, 0)
    # slopes compare cross-multiplied, and the message still prints them
    # as fractions
    half, third = PlainBundle((Atom(2, 4),)), PlainBundle((Atom(1, 3),))
    with pytest.raises(ValueError, match=r"^HN slopes \(1/3, 1/2\) are not "
                       "strictly decreasing$"):
        Filtration((third, half))
    with pytest.raises(ValueError, match=r"^HN slopes \(1/2, 1/2\) are not"):
        Filtration((half, PlainBundle((Atom(1, 2),))))
    with pytest.raises(ValueError, match="positive slopes"):
        IsotropicFiltration((half, PlainBundle((Atom(0, 3),))), ())
    assert Filtration((half, third)).slopes == (Fraction(1, 2), Fraction(1, 3))


def test_an_isotropic_middle_has_degree_zero():
    # a middle atom of slope 1 would complete to slopes (2, 1, -2), the
    # HN filtration of no bundle with that positive part
    high = PlainBundle((Atom(2, 1),))
    for middle in ((Atom(1, 1),), (Atom(0, 2), Atom(-1, 1))):
        with pytest.raises(ValueError, match="^isotropic HN middle must "
                           "consist of degree-0 atoms$"):
            IsotropicFiltration((high,), middle)
    f = IsotropicFiltration((high,), (Atom(0, 1),))
    assert extend_with_perps(f).slopes == (2, 0, -2)
