import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hnbundles.bundle import (_BUNDLE_OF_KIND, Atom, IsotropicBundle,
                              PlainBundle, SlBundle, SoBundle, SpBundle,
                              adjoint, bundle_from_degrees, direct_sum, dual,
                              is_semistable, tensor, underlying,
                              vertical_degree)
from hnbundles.canon import hn_type
from hnbundles.cli import parse_bundle_spec
from hnbundles.errors import (InvalidFlag, NotDegreeZero, NotIntegral,
                              UnsupportedRank, ZeroBundle)
from hnbundles.hnfilt import (Filtration, IsotropicFiltration,
                              extend_with_perps, hn_filtration,
                              hn_filtration_isotropic, scss)
from hnbundles.rootsys import KINDS, GroupFamily
from oracles import adjoint_bundle_oracle, vertical_degree_composite

atoms_st = st.lists(
    st.builds(Atom, st.integers(-4, 4), st.integers(1, 3)),
    min_size=1, max_size=4).map(tuple)


def test_slope_examples():
    assert PlainBundle((Atom(3, 1), Atom(1, 2))).slope == Fraction(4, 3)
    assert PlainBundle((Atom(0, 5),)).slope == 0
    b = PlainBundle((Atom(-2, 1), Atom(2, 1)))
    assert (b.slope, b.degree, b.rank) == (0, 0, 2)


def test_empty_bundle_rejected():
    with pytest.raises(ZeroBundle):
        PlainBundle(())
    # rank 0 on Sp and SO too: no positive part and no zero block
    for build in (lambda: SpBundle((), ()), lambda: SoBundle((), ()),
                  lambda: _BUNDLE_OF_KIND["sp"]((), ()),
                  lambda: _BUNDLE_OF_KIND["so"]((), ())):
        with pytest.raises(ZeroBundle, match="at least one atom"):
            build()


def test_malformed_bundles_rejected():
    with pytest.raises(ValueError, match="atom rank must be positive"):
        Atom(1, 0)
    # True equals 1, but would print as the spec "True:1", which no parse reads
    for degree, rank in ((1.5, 1), (Fraction(3, 2), 2), (1, 2.0), (1, "2"),
                         (True, 1), (1, True), (Fraction(2), 1)):
        with pytest.raises(ValueError, match="atom degree and rank must be ints"):
            Atom(degree, rank)
    with pytest.raises(TypeError, match="expected atoms"):
        PlainBundle(((1, 1),))
    # an atom next to a non-atom fails the type check, not the sort
    with pytest.raises(TypeError, match="expected atoms"):
        PlainBundle((Atom(1, 1), (1, 1)))
    with pytest.raises(TypeError, match="expected atoms"):
        SpBundle(((1, 1), Atom(1, 1)), ())
    with pytest.raises(NotDegreeZero, match="^SL bundle must have total degree 0$"):
        SlBundle((Atom(1, 1), Atom(0, 1)))
    with pytest.raises(ValueError, match="positive part"):
        SpBundle((Atom(0, 1),), ())
    with pytest.raises(ValueError, match="zero block"):
        SoBundle((), (Atom(1, 1),))


def test_bundle_from_degrees_reads_a_cocharacter():
    gl2, gl3 = GroupFamily("gl", 2), GroupFamily("gl", 3)
    for family, degrees in ((gl3, (1, 2)), (gl2, (1.5, 2)), (gl2, (1, 2, 3)),
                            (GroupFamily("sp", 4), (1,))):
        with pytest.raises(NotIntegral, match="is not a cocharacter"):
            bundle_from_degrees(family, degrees)
    # an integral Fraction reads as its int
    assert bundle_from_degrees(gl2, (Fraction(4, 2), 1)) == \
        PlainBundle((Atom(2, 1), Atom(1, 1)))
    assert bundle_from_degrees(GroupFamily("so", 5), (0, -2)) == \
        SoBundle((Atom(2, 1),), (Atom(0, 1),) * 3)


def test_dual_tensor_sum():
    assert tensor(PlainBundle((Atom(1, 2),)), PlainBundle((Atom(1, 3),))).atoms \
        == (Atom(5, 6),)
    assert dual(PlainBundle((Atom(3, 1), Atom(-1, 2)))).atoms \
        == (Atom(1, 2), Atom(-3, 1))
    b = PlainBundle((Atom(3, 1), Atom(1, 2)))
    assert tensor(b, PlainBundle((Atom(0, 1),))) == b
    assert direct_sum(b, b).rank == 2 * b.rank


@given(atoms_st, atoms_st)
def test_tensor_slope_additive_and_dual_degree(xs, ys):
    a, b = PlainBundle(xs), PlainBundle(ys)
    assert dual(a).degree == -a.degree
    for x in xs:
        for y in ys:
            prod = tensor(PlainBundle((x,)), PlainBundle((y,)))
            assert prod.slope == x.slope + y.slope


def test_vertical_degree_examples():
    assert vertical_degree(GroupFamily("gl", 4), (2, 4), (3, 2)) == -8
    assert vertical_degree(GroupFamily("sp", 4), (0, 4), (2, 1)) == -8
    assert vertical_degree(GroupFamily("so", 5), (0, 5), (1, 2)) == -2


def test_vertical_degree_errors():
    with pytest.raises(NotDegreeZero):
        vertical_degree(GroupFamily("sp", 4), (1, 4), (2, 1))
    with pytest.raises(InvalidFlag):
        vertical_degree(GroupFamily("gl", 4), (2, 4), (3, 4))
    with pytest.raises(UnsupportedRank):
        vertical_degree(GroupFamily("so", 2), (0, 2), (1, 1))
    # the ambient rank is the family's own
    with pytest.raises(UnsupportedRank, match="E has rank 3, sp4 needs 4"):
        vertical_degree(GroupFamily("sp", 4), (0, 3), (1, 1))
    for route in (vertical_degree, vertical_degree_composite):
        with pytest.raises(UnsupportedRank, match="E has rank 9, gl2 needs 2"):
            route(GroupFamily("gl", 2), (1, 9), (1, 4))


def test_vertical_degree_routes_and_signs():
    for r in range(2, 13):
        for l in range(1, r):
            for f in range(-5, 6):
                for d in range(-5, 6):
                    fam = GroupFamily("gl", r)
                    v = vertical_degree(fam, (d, r), (f, l))
                    assert v == vertical_degree_composite(fam, (d, r), (f, l))
                    mu_f, mu_e = Fraction(f, l), Fraction(d, r)
                    assert (v >= 0) == (mu_f <= mu_e)
                    assert (v > 0) == (mu_f < mu_e)
    for n in range(1, 7):
        for l in range(1, n + 1):
            for f in range(-5, 6):
                fam = GroupFamily("sp", 2 * n)
                v = vertical_degree(fam, (0, 2 * n), (f, l))
                assert v == vertical_degree_composite(fam, (0, 2 * n), (f, l))
                assert (v >= 0) == (Fraction(f, l) <= 0)
    for r in range(3, 13):
        for l in range(1, r // 2 + 1):
            for f in range(-5, 6):
                fam = GroupFamily("so", r)
                v = vertical_degree(fam, (0, r), (f, l))
                assert v == vertical_degree_composite(fam, (0, r), (f, l))
                if l != r // 2 - 1 or r % 2 == 1:
                    assert (v >= 0) == (Fraction(f, l) <= 0)


BIG = 10 ** 6


@st.composite
def flag_reductions(draw):
    """(family, e, f) of any kind at rank up to BIG, even on Sp and at
    least 3 on SO, with any admissible l, and f and d in [-BIG, BIG],
    d = 0 on SL/Sp/SO."""
    kind = draw(st.sampled_from(["gl", "sl", "sp", "so"]))
    if kind == "sp":
        r = 2 * draw(st.integers(1, BIG // 2))
    else:
        r = draw(st.integers(3 if kind == "so" else 2, BIG))
    l = draw(st.integers(1, r - 1 if kind in ("gl", "sl") else r // 2))
    d = draw(st.integers(-BIG, BIG)) if kind == "gl" else 0
    return GroupFamily(kind, r), (d, r), (draw(st.integers(-BIG, BIG)), l)


@given(flag_reductions())
def test_vertical_degree_routes_agree_beyond_the_grid(flag):
    # the CLI answers by the closed form alone, so the determinant-line
    # route checks it here, past the exhaustive grid above
    family, e, f = flag
    assert vertical_degree(family, e, f) == \
        vertical_degree_composite(family, e, f)


def test_is_semistable_examples():
    assert is_semistable(PlainBundle((Atom(1, 2), Atom(1, 2))))
    assert not is_semistable(SpBundle((Atom(1, 1),), ()))
    assert is_semistable(SoBundle((), (Atom(0, 4),)))
    assert is_semistable(SoBundle((Atom(5, 1),), ())) is True  # rank 2 case
    # equal slopes at different ranks, and negative ones
    assert is_semistable(PlainBundle((Atom(1, 2), Atom(2, 4), Atom(3, 6))))
    assert is_semistable(PlainBundle((Atom(-1, 2), Atom(-2, 4))))
    assert not is_semistable(PlainBundle((Atom(-1, 2), Atom(1, 2))))
    assert not is_semistable(PlainBundle((Atom(1, 2), Atom(1, 3))))


@given(st.lists(st.builds(Atom, st.integers(-4, 4), st.integers(1, 3)),
                min_size=1, max_size=5))
def test_is_semistable_is_one_slope(atoms):
    assert is_semistable(PlainBundle(tuple(atoms))) == \
        (len({a.slope for a in atoms}) == 1)


def test_positive_part_is_tested_on_degrees():
    for atom in (Atom(0, 3), Atom(-1, 2)):
        with pytest.raises(ValueError, match="^positive part must consist "
                           "of slope > 0 atoms$"):
            SpBundle((Atom(1, 1), atom), ())
    assert SpBundle((Atom(1, 3),), ()).positive == (Atom(1, 3),)


def test_isotropic_bundles_share_one_shape():
    pos, zero = (Atom(1, 1),), (Atom(0, 2),)
    sp, so = SpBundle(pos, zero), SoBundle(pos, zero)
    assert isinstance(sp, IsotropicBundle) and isinstance(so, IsotropicBundle)
    assert (sp.kind, so.kind) == ("sp", "so") and sp != so
    assert sp.rank == so.rank == 4 and underlying(sp) == underlying(so)
    assert _BUNDLE_OF_KIND["sp"](pos, zero) == sp
    assert _BUNDLE_OF_KIND["so"](pos, zero) == so
    with pytest.raises(UnsupportedRank):
        SpBundle(pos, (Atom(0, 1),))
    assert SoBundle(pos, (Atom(0, 1),)).rank == 3
    # every bundle names its kind, and its class, its family and a parsed
    # spec agree on it: one bundle and one spec of each kind
    examples = {"gl": (PlainBundle((Atom(1, 1), Atom(0, 2))), "gl3: 1:1, 0:2"),
                "sl": (SlBundle((Atom(1, 1), Atom(-1, 1))), "sl2: deg=1,-1"),
                "sp": (sp, "sp4: 1:1 | z=2"),
                "so": (so, "so3: deg=1")}
    assert tuple(examples) == KINDS
    for kind, (b, spec) in examples.items():
        assert b.kind == kind and type(b) is _BUNDLE_OF_KIND[b.kind]
        assert hn_type(b).family is GroupFamily(b.kind, b.rank)
        assert parse_bundle_spec(spec).bundle.kind == kind


def split_adjoint(family, a):
    """The adjoint bundle of the torus-split bundle of degree vector a."""
    return adjoint(bundle_from_degrees(family, a))


def test_adjoint_bundle_examples():
    ad = split_adjoint(GroupFamily("sp", 4), (2, 1))
    degs = sorted(a.degree for a in underlying(ad).atoms)
    assert degs == [-4, -3, -2, -1, 0, 0, 1, 2, 3, 4]
    assert underlying(ad).rank == 10
    ad2 = split_adjoint(GroupFamily("gl", 2), (1, 1))
    assert all(a.degree == 0 for a in underlying(ad2).atoms)
    ad3 = split_adjoint(GroupFamily("so", 4), (1, 0))
    degs3 = sorted(a.degree for a in underlying(ad3).atoms)
    assert degs3 == [-1, -1, 0, 0, 1, 1]
    assert underlying(ad3).rank == 6


def test_adjoint_bundle_errors():
    with pytest.raises(NotIntegral):
        split_adjoint(GroupFamily("gl", 2), (Fraction(1, 2), 0))


def test_so_bundles_of_rank_at_most_2_keep_their_rules():
    # SO(2) is no family, but an SO bundle of rank 2 or 1 is a bundle of
    # the model, since adjoint returns orthogonal containers of any rank:
    # ad of the rank-2 bundle is one trivial line, and so is that of a
    # GL1 bundle
    with pytest.raises(UnsupportedRank, match=r"^SO\(2\) has no usable root system$"):
        GroupFamily("so", 2)
    assert adjoint(SoBundle((Atom(1, 1),), ())) == SoBundle((), (Atom(0, 1),))
    ad = adjoint(PlainBundle((Atom(3, 1),)))
    assert ad == SoBundle((), (Atom(0, 1),)) and ad.rank == 1
    # the rank-2 rules: always semistable, and no isotropic filtration
    so2 = SoBundle((Atom(5, 1),), ())
    assert is_semistable(so2) is True
    with pytest.raises(UnsupportedRank, match=r"^SO\(2\) has no usable root system$"):
        hn_filtration_isotropic(so2)
    # nor a family, which is where the filtration's refusal comes from
    with pytest.raises(UnsupportedRank, match=r"^SO\(2\) has no usable root system$"):
        so2.family
    with pytest.raises(UnsupportedRank, match=r"^SO requires r >= 2, got 1$"):
        ad.family


# one spec of each kind, and deg= specs on odd SO, where bundle_from_degrees
# adds the odd zero, on even SO and on SL
@pytest.mark.parametrize("text", ["gl3: 1:1, 0:2", "sl2: 1:1, -1:1", "sp4: 1:1 | z=2",
                                  "so5: 2:1 | z=3", "so5: deg=2,0", "so4: deg=1,-1",
                                  "sl3: deg=1,0,-1"])
def test_a_bundle_owns_the_family_of_its_spec(text):
    head = text.split(":")[0]
    family = GroupFamily(head[:2], int(head[2:]))
    assert parse_bundle_spec(text).bundle.family is family


# every family of cartan_dim <= 4 with a root system
ADJOINT_GRID = [GroupFamily(kind, r) for kind in ("gl", "sl")
                for r in range(1, 5)] + \
    [GroupFamily("sp", r) for r in (2, 4, 6, 8)] + \
    [GroupFamily("so", r) for r in range(3, 10)]


@pytest.mark.parametrize("family", ADJOINT_GRID, ids=str)
def test_adjoint_bundle_equals_the_root_table(family):
    # every integral point of [-2, 2]^n: on SL the trace-zero ones among
    # them, on even SO those with no zero entry and an odd number of
    # negative ones
    for a in product(range(-2, 3), repeat=family.cartan_dim):
        if family.kind == "sl" and sum(a):
            continue
        if family == GroupFamily("sl", 1):
            # ad sl(1) = 0: both routes refuse the zero bundle
            for route in (split_adjoint, adjoint_bundle_oracle):
                with pytest.raises(ZeroBundle):
                    route(family, a)
            continue
        assert split_adjoint(family, a) == adjoint_bundle_oracle(family, a), a


def test_adjoint_gl_examples():
    ad = adjoint(PlainBundle((Atom(1, 1), Atom(0, 2))))
    assert sorted(underlying(ad).atoms) == sorted(
        (Atom(0, 1), Atom(2, 2), Atom(-2, 2), Atom(0, 4)))
    assert underlying(adjoint(PlainBundle((Atom(0, 1),)))).atoms == (Atom(0, 1),)
    ad2 = adjoint(PlainBundle((Atom(3, 1), Atom(-3, 1))))
    assert sorted(underlying(ad2).atoms) == sorted(
        (Atom(0, 1), Atom(6, 1), Atom(-6, 1), Atom(0, 1)))


def test_adjoint_squares_and_trace_line():
    # Sp: Sym^2, an atom (d, r) giving (d(r + 1), r(r + 1)/2); SO: Lambda^2,
    # (d(r - 1), r(r - 1)/2) and none for r = 1; a pair of atoms, x tensor y
    assert adjoint(SpBundle((Atom(1, 2),))) == SoBundle(
        (Atom(3, 3),), (Atom(0, 4),))
    assert adjoint(SoBundle((Atom(1, 2),), (Atom(0, 1),))) == SoBundle(
        (Atom(1, 2), Atom(1, 1)), (Atom(0, 4),))
    assert adjoint(SoBundle((), (Atom(0, 3),))) == SoBundle((), (Atom(0, 3),))
    # SL: End E less the trace line, off its first slope-0 atom
    assert adjoint(SlBundle((Atom(0, 2),))) == SoBundle((), (Atom(0, 3),))
    # ad sl(1) = 0: the zero bundle, which the model refuses
    with pytest.raises(ZeroBundle):
        adjoint(SlBundle((Atom(0, 1),)))
    sl3 = bundle_from_degrees(GroupFamily("sl", 3), (1, 0, -1))
    assert adjoint(sl3).zero_part == (Atom(0, 1),) * 2
    assert adjoint(PlainBundle(sl3.atoms)).zero_part == (Atom(0, 1),) * 3


def test_adjoint_bundle_does_not_see_the_d_fork():
    # negating the last entry swaps a_i - a_n and a_i + a_n: the multiset of
    # |alpha(a)| is the same on both families of maximal isotropic subbundles
    for r, a in ((4, (1, -1)), (6, (2, 1, -1))):
        flipped = a[:-1] + (-a[-1],)
        so = GroupFamily("so", r)
        assert split_adjoint(so, a) == split_adjoint(so, flipped)


def test_an_isotropic_bundle_needs_a_kind():
    with pytest.raises(TypeError, match="SpBundle or SoBundle"):
        IsotropicBundle((Atom(1, 1),), (Atom(0, 1),))


@given(st.sampled_from(["gl", "sl", "sp", "so"]), st.integers(2, 8),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_adjoint_degrees_symmetric(kind, r, coords):
    if kind == "sp" and r % 2:
        r += 1
    if kind == "so" and r < 3:
        r = 3
    family = GroupFamily(kind, r)
    a = (coords * 8)[: family.cartan_dim]
    if kind == "sl":
        # SL cocharacters have trace zero
        a[-1] = -sum(a[:-1])
    ad = underlying(split_adjoint(family, a))
    degs = sorted(x.degree for x in ad.atoms)
    assert degs == sorted(-d for d in degs)
    assert ad.degree == 0


def test_sl_semistability_matches_underlying():
    b = PlainBundle((Atom(2, 1), Atom(-2, 1)))
    sl = SlBundle(b.atoms)
    assert is_semistable(sl) == is_semistable(b)
    assert underlying(sl) is sl
    c = PlainBundle((Atom(0, 1), Atom(0, 3)))
    assert is_semistable(SlBundle(c.atoms)) == is_semistable(c)


def test_rank_and_degree_are_not_fields():
    # summed once at construction: ==, hash and repr read the atoms alone,
    # and replace builds afresh, so it sums again
    b = PlainBundle((Atom(1, 2), Atom(-3, 1)))
    assert [f.name for f in fields(PlainBundle)] == ["atoms"]
    assert [f.name for f in fields(SlBundle)] == ["atoms"]
    assert (b.rank, b.degree) == (3, -2)
    assert repr(b) == "PlainBundle(atoms=(Atom(degree=1, rank=2), " \
                      "Atom(degree=-3, rank=1)))"
    assert hash(b) == hash(PlainBundle(b.atoms[::-1]))
    c = replace(b, atoms=(Atom(2, 1),) * 4)
    assert (c.rank, c.degree) == (4, 8)
    sl = replace(SlBundle((Atom(1, 1), Atom(-1, 1))), atoms=(Atom(0, 5),))
    assert type(sl) is SlBundle and (sl.rank, sl.degree) == (5, 0)
    with pytest.raises(NotDegreeZero):
        replace(sl, atoms=(Atom(1, 1),))
    with pytest.raises(NotDegreeZero):
        SlBundle((Atom(1, 1), Atom(0, 1)))
    with pytest.raises(FrozenInstanceError):
        b.rank = 4
    copy = pickle.loads(pickle.dumps(b))
    assert copy == b and (copy.rank, copy.degree) == (3, -2)



def test_isotropic_ranks_are_stored_sums_not_fields():
    # summed once at construction, over a grid of Sp and SO bundles; an Sp
    # bundle of odd rank is refused
    positives = [(), (Atom(1, 1),), (Atom(2, 1), Atom(1, 2)),
                 (Atom(3, 2), Atom(3, 2), Atom(1, 1))]
    zero_parts = [(), (Atom(0, 1),), (Atom(0, 2),), (Atom(0, 1), Atom(0, 3))]
    built = 0
    for cls, positive, zero_part in product((SpBundle, SoBundle), positives,
                                            zero_parts):
        zero_rank = sum(a.rank for a in zero_part)
        rank = 2 * sum(a.rank for a in positive) + zero_rank
        if not rank or (cls is SpBundle and rank % 2):
            continue
        b = cls(positive, zero_part)
        assert (b.rank, b.zero_rank) == (rank, zero_rank), b
        c = pickle.loads(pickle.dumps(b))
        assert c == b and (c.rank, c.zero_rank) == (rank, zero_rank)
        built += 1
    assert built == 26
    # ==, hash and repr read the atoms alone, and replace sums again
    for cls in (IsotropicBundle, SpBundle, SoBundle):
        assert [f.name for f in fields(cls)] == ["positive", "zero_part"]
    b = SoBundle((Atom(1, 1), Atom(2, 1)), (Atom(0, 1),))
    assert repr(b) == "SoBundle(positive=(Atom(degree=2, rank=1), " \
                      "Atom(degree=1, rank=1)), zero_part=(Atom(degree=0, rank=1),))"
    assert hash(b) == hash(SoBundle(b.positive[::-1], b.zero_part))
    c = replace(b, zero_part=(Atom(0, 2), Atom(0, 1)))
    assert (c.rank, c.zero_rank) == (7, 3)
    with pytest.raises(FrozenInstanceError):
        b.rank = 4

def test_sl_bundle_is_a_plain_bundle_of_its_own_type():
    atoms = (Atom(-2, 1), Atom(2, 1))
    sl = SlBundle(atoms)
    assert isinstance(sl, PlainBundle) and sl.atoms == (Atom(2, 1), Atom(-2, 1))
    assert repr(sl) == "SlBundle(atoms=(Atom(degree=2, rank=1), " \
                       "Atom(degree=-2, rank=1)))"
    assert sl == SlBundle(atoms[::-1]) and hash(sl) == hash(SlBundle(atoms[::-1]))
    assert sl != PlainBundle(atoms)
    assert bundle_from_degrees(GroupFamily("sl", 2), (2, -2)) == sl
    assert type(bundle_from_degrees(GroupFamily("gl", 2), (2, -2))) is PlainBundle


@given(st.lists(st.builds(Atom, st.integers(1, 4), st.integers(1, 2)),
                max_size=3).map(tuple),
       st.integers(0, 2))
def test_decorated_semistability_matches_underlying(positive, zeros):
    zero_part = tuple([Atom(0, 1)] * (2 * zeros))
    if positive or zero_part:
        sp = SpBundle(positive, zero_part)
        assert is_semistable(sp) == is_semistable(underlying(sp))
    so = SoBundle(positive, zero_part + (Atom(0, 1),))
    assert is_semistable(so) == is_semistable(underlying(so)) or so.rank == 2


# Each function that takes only some kinds of bundle, called with every
# other kind (an atom, which is no bundle, included) in each argument
# place, and the TypeError it raises: the function and what it takes.
_PLAIN, _SL = PlainBundle((Atom(1, 1),)), SlBundle((Atom(1, 1), Atom(-1, 1)))
_SP, _SO = SpBundle((Atom(1, 1),)), SoBundle((Atom(1, 1),), (Atom(0, 1),))
_ATOM = Atom(1, 1)
WRONG_KINDS = (
    [(fn, args, f"{fn.__name__} takes a plain or SL bundle, got {type(w).__name__}")
     for w in (_SP, _SO, _ATOM)
     for fn, args in ((hn_filtration, (w,)), (dual, (w,)),
                      (tensor, (w, _PLAIN)), (tensor, (_PLAIN, w)),
                      (direct_sum, (w, _SL)), (direct_sum, (_SL, w)),
                      (Filtration, ((w,),)), (IsotropicFiltration, ((w,), ())))]
    + [(hn_filtration_isotropic, (w,),
        f"hn_filtration_isotropic takes an Sp or SO bundle, got {type(w).__name__}")
       for w in (_PLAIN, _SL, _ATOM)]
    + [(fn, (w,), f"{fn.__name__} takes a plain, SL, Sp or SO bundle, got {type(w).__name__}")
       for w in (_ATOM, (_ATOM,))
       for fn in (hn_type, is_semistable, underlying, adjoint, scss)]
    + [(extend_with_perps, (w,),
        f"extend_with_perps takes an isotropic filtration, got {type(w).__name__}")
       for w in (hn_filtration(_PLAIN), _SP)])


@pytest.mark.parametrize("fn, args, message", WRONG_KINDS,
                         ids=[m for _, _, m in WRONG_KINDS])
def test_a_bundle_of_the_wrong_kind_is_refused(fn, args, message):
    with pytest.raises(TypeError) as info:
        fn(*args)
    assert type(info.value) is TypeError and str(info.value) == message
