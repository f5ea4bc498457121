import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hnbundles import canon, rootsys, strata
from hnbundles.errors import FamilyMismatch, TooLarge
from hnbundles.oracles import HULL_ORBIT_GUARD, hull_membership_lp_oracle
from hnbundles.strata import (StrataPoset, enumerate_strata, gl_dominance,
                              hull_membership, stratum_label, stratum_leq,
                              to_dot)
from hnbundles.rootsys import (GroupFamily, dominant_representative,
                               weyl_orbit, weyl_orbit_size)
from oracles import enumerate_strata_oracle, is_dominant


def test_hull_examples():
    gl3 = GroupFamily("gl", 3)
    assert hull_membership(gl3, (2, 0, -2), (1, 0, -1))
    assert hull_membership(gl3, (2, 0, -2), (2, 0, -2))
    assert not hull_membership(gl3, (2, 0, -2), (3, 0, -3))
    sp4 = GroupFamily("sp", 4)
    assert hull_membership(sp4, (2, 1), (1, 1))
    assert not hull_membership(sp4, (1, 1), (2, 1))


def test_hull_guard():
    # only the LP oracle enumerates the orbit, so only it is guarded, on
    # the orbit's size: a regular SO10 point sits at the limit
    so10 = GroupFamily("so", 10)
    assert weyl_orbit_size(so10, (5, 4, 3, 2, 1)) == HULL_ORBIT_GUARD
    assert hull_membership_lp_oracle(so10, (5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    # over it: the smallest orbit over it (1,980 points), an SO12 point with
    # two zeros, a GL7 point with one repeated entry, regular SO11 and Sp12
    # points; each refused before its orbit is built
    for family, mu in ((GroupFamily("gl", 11), (1, 1) + (0,) * 7 + (-1, -1)),
                       (GroupFamily("so", 12), (3, 2, 1, 1, 0, 0)),
                       (GroupFamily("gl", 7), (5, 4, 3, 2, 1, 0, 0)),
                       (GroupFamily("so", 11), (5, 4, 3, 2, 1)),
                       (GroupFamily("sp", 12), (6, 5, 4, 3, 2, 1))):
        assert weyl_orbit_size(family, mu) > HULL_ORBIT_GUARD
        orbits = weyl_orbit.cache_info()
        with pytest.raises(TooLarge, match="hull guard exceeded"):
            hull_membership_lp_oracle(family, mu, mu)
        assert weyl_orbit.cache_info() == orbits
    # the zero point of GL7, a one-point orbit, is in its own hull
    assert hull_membership_lp_oracle(GroupFamily("gl", 7), (0,) * 7, (0,) * 7)


def test_hull_membership_past_the_oracle_guard():
    gl7 = GroupFamily("gl", 7)
    mu = (3, 2, 1, 0, -1, -2, -3)
    for nu, inside in (((1, 1, 0, 0, 0, -1, -1), True), ((0,) * 7, True),
                       ((4, 0, 0, 0, 0, 0, -4), False), ((1,) * 7, False)):
        assert hull_membership(gl7, mu, nu) is inside
        assert gl_dominance(mu, nu) is inside
    # (1,...,1) and (1,...,1,-1) are both dominant for D7, in different
    # orbits and with incomparable hulls; for B7 they share one orbit
    ones = (1,) * 7
    flipped = (1,) * 6 + (-1,)
    d7, b7 = GroupFamily("so", 14), GroupFamily("so", 15)
    assert not hull_membership(d7, ones, flipped)
    assert not hull_membership(d7, flipped, ones)
    assert hull_membership(b7, ones, flipped) and hull_membership(b7, flipped, ones)
    e1, e12 = (2,) + (0,) * 6, (1, 1) + (0,) * 5
    for family in (d7, b7):
        assert hull_membership(family, e1, e12)
        assert not hull_membership(family, e12, e1)


def test_hull_agrees_with_gl_dominance():
    # the LP is the reference, prefix-sum dominance the fast cross-check
    for dim in (2, 3):
        fam = GroupFamily("gl", dim)
        vecs = [v for v in product(range(-3, 4), repeat=dim)
                if list(v) == sorted(v, reverse=True)]
        for mu in vecs:
            for nu in vecs:
                assert hull_membership(fam, mu, nu) == gl_dominance(mu, nu)


def _hull_grid(dim):
    """Integer points of a box, dominant or not, and points of half-integers."""
    steps = (-2, -1, 0, 1, 2) if dim <= 2 else (-1, 0, 1)
    points = list(product(steps, repeat=dim))
    points += [tuple(Fraction(c, 2) for c in p)
               for p in product((-3, 1), repeat=dim)]
    return points


@pytest.mark.parametrize("family", [GroupFamily(k, r) for k, r in (
    ("gl", 1), ("gl", 2), ("gl", 3), ("sl", 1), ("sl", 2), ("sl", 3),
    ("sp", 2), ("sp", 4), ("sp", 6), ("so", 3), ("so", 4), ("so", 5),
    ("so", 6), ("so", 7))])
def test_hull_equals_the_lp_oracle(family):
    # every ordered pair of the grid: GL/SL pairs with different centres
    # included, and both answers occur in every family
    grid = _hull_grid(family.cartan_dim)
    seen = set()
    for mu in grid:
        for nu in grid:
            inside = hull_membership(family, mu, nu)
            assert inside == hull_membership_lp_oracle(family, mu, nu), (mu, nu)
            seen.add(inside)
    assert seen == {True, False}


@pytest.mark.parametrize("family,samples", [
    (GroupFamily("sp", 8), 8), (GroupFamily("so", 8), 16), (GroupFamily("so", 9), 8)])
def test_hull_equals_the_lp_oracle_sampled_rank_four(family, samples):
    rng = random.Random(5)

    def point():
        return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                     for _ in range(family.cartan_dim))

    seen = set()
    for _ in range(samples):
        mu, nu = point(), point()
        inside = hull_membership(family, mu, nu)
        assert inside == hull_membership_lp_oracle(family, mu, nu), (mu, nu)
        seen.add(inside)
    assert seen == {True, False}


def test_hull_rejects_wrong_length_points():
    # without the checks zip would truncate a short nu, and the simplex
    # would index past the end of a short mu
    gl3 = GroupFamily("gl", 3)
    for mu, nu in (((2, 0, -2), (1, -1)), ((2, 0, -2), (1, 0, 0, -1)),
                   ((2, 0), (1, 0, -1))):
        for decide in (hull_membership, hull_membership_lp_oracle):
            with pytest.raises(ValueError):
                decide(gl3, mu, nu)
    # hull_membership raises rootsys._point's text, for the first bad point
    so8 = GroupFamily("so", 8)
    for family, mu, nu, text in (
            (gl3, (2, 0, -2), (1, -1), "point (1, -1) has 2 coordinates, gl3 needs 3"),
            (gl3, (2, 0), iter((1, 0)), "point (2, 0) has 2 coordinates, gl3 needs 3"),
            (so8, [1, 1, 1, -1, 0], (1, 1),
             "point (1, 1, 1, -1, 0) has 5 coordinates, so8 needs 4")):
        with pytest.raises(ValueError) as raised:
            hull_membership(family, mu, nu)
        assert str(raised.value) == text


def test_hull_rejects_total_degree_mismatch():
    assert not hull_membership(GroupFamily("gl", 2), (1, 0), (1, 1))
    assert not gl_dominance((1, 0), (1, 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GroupFamily("gl", 3), GroupFamily("sp", 4),
                        GroupFamily("so", 5), GroupFamily("so", 4)]),
       st.lists(st.integers(-2, 2), min_size=2, max_size=3),
       st.lists(st.integers(-2, 2), min_size=2, max_size=3))
def test_hull_weyl_invariant(family, xs, ys):
    dim = family.cartan_dim
    mu = tuple((xs * 3)[:dim])
    nu = tuple((ys * 3)[:dim])
    base = hull_membership(family, mu, nu)
    for w in weyl_orbit(family, mu):
        assert hull_membership(family, w, nu) == base
    for w in weyl_orbit(family, nu):
        assert hull_membership(family, mu, w) == base


def test_stratum_label_errors():
    gl3 = GroupFamily("gl", 3)
    with pytest.raises(ValueError):
        stratum_label(gl3, (1, 0))  # short type
    with pytest.raises(ValueError):
        stratum_label(gl3, (0, 1, 0))  # not dominant


def test_stratum_leq_examples():
    gl3 = GroupFamily("gl", 3)
    lo = stratum_label(gl3, (1, 0, -1))
    hi = stratum_label(gl3, (2, 0, -2))
    assert stratum_leq(lo, hi) and not stratum_leq(hi, lo)
    assert stratum_leq(lo, lo)
    # across parabolic shapes the hull side matches prefix-sum dominance
    assert hull_membership(gl3, (1, 1, -2), (1, 0, -1)) == \
        gl_dominance((1, 1, -2), (1, 0, -1))
    assert not stratum_leq(lo, stratum_label(gl3, (1, 1, -2)))
    with pytest.raises(FamilyMismatch):
        stratum_leq(lo, stratum_label(GroupFamily("gl", 2), (1, -1)))


def test_semistable_label_below_everything():
    gl3 = GroupFamily("gl", 3)
    ss = stratum_label(gl3, (0, 0, 0))
    for coords in product(range(-2, 3), repeat=3):
        if list(coords) != sorted(coords, reverse=True) or sum(coords) != 0:
            continue
        lab = stratum_label(gl3, coords)
        assert stratum_leq(ss, lab)
        assert stratum_leq(lab, ss) == (lab == ss)
    sp4 = GroupFamily("sp", 4)
    ss2 = stratum_label(sp4, (0, 0))
    for coords in product(range(3), repeat=2):
        if coords[0] < coords[1]:
            continue
        assert stratum_leq(ss2, stratum_label(sp4, coords))


def test_enumerate_gl2_degree_zero():
    p = enumerate_strata(GroupFamily("gl", 2), 1, total_degree=0)
    mus = [lab.mu.mu for lab in p.labels]
    assert mus == [(1, -1), (0, 0)]
    assert [sorted(lab.index.members) for lab in p.labels] == [[0], []]
    assert p.relation == {(1, 0)}  # semistable label sits below


def test_enumerate_sp2_and_bound_zero():
    p = enumerate_strata(GroupFamily("sp", 2), 1)
    assert [lab.mu.mu for lab in p.labels] == [(1,), (0,)]
    for fam in (GroupFamily("gl", 3), GroupFamily("sp", 4), GroupFamily("so", 5)):
        q = enumerate_strata(fam, 0)
        assert len(q.labels) == 1 and not q.relation


def test_enumerate_guards():
    with pytest.raises(TooLarge):
        enumerate_strata(GroupFamily("gl", 5), 1)
    with pytest.raises(TooLarge):
        enumerate_strata(GroupFamily("gl", 2), 5)


def test_enumerate_refuses_a_negative_bound():
    # [-bound, bound] is empty, which once gave an empty poset; the CLI's
    # --bound meets this check, and no other
    for family in (GroupFamily("gl", 2), GroupFamily("sp", 4), GroupFamily("gl", 5)):
        for bound in (-1, -5):
            with pytest.raises(ValueError, match=f"^bound must be nonnegative, got {bound}$"):
                enumerate_strata(family, bound)


# every family with a root system and cartan_dim <= 4
LISTING_FAMILIES = ([GroupFamily(kind, r) for kind in ("gl", "sl") for r in range(1, 5)]
                    + [GroupFamily("sp", r) for r in (2, 4, 6, 8)]
                    + [GroupFamily("so", r) for r in range(3, 10)])


@pytest.mark.parametrize("family", LISTING_FAMILIES, ids=repr)
def test_dominant_points_equal_the_box_walk(family):
    # the box walk: every point of [-bound, bound]^dim in descending
    # lexicographic order, kept when dominant (and of sum 0 for SL)
    for bound in range(5):
        box = product(range(bound, -bound - 1, -1), repeat=family.cartan_dim)
        want = [p for p in box if is_dominant(family, p)
                and (family.kind != "sl" or sum(p) == 0)]
        assert list(strata._dominant_points(family, bound)) == want, bound


# every family with a root system and cartan_dim <= 3 at bounds 0-3, and
# the rank-4 families at bounds 0-2
ORACLE_GRID = [(GroupFamily(kind, r), range(4)) for kind, ranks in (
    ("gl", (1, 2, 3)), ("sl", (1, 2, 3)), ("sp", (2, 4, 6)),
    ("so", (3, 4, 5, 6, 7))) for r in ranks] + [
    (GroupFamily(kind, r), range(3))
    for kind, r in (("gl", 4), ("sl", 4), ("sp", 8), ("so", 8), ("so", 9))]


@pytest.mark.parametrize("family,bounds", ORACLE_GRID,
                         ids=[f"{f.kind}{f.r}" for f, _ in ORACLE_GRID])
def test_enumerate_equals_the_pairwise_oracle(family, bounds):
    for bound in bounds:
        for degree in (None, 0, 1):
            assert enumerate_strata(family, bound, degree) == \
                enumerate_strata_oracle(family, bound, degree)


def test_enumerate_decides_no_pair_by_hull(monkeypatch):
    so8 = GroupFamily("so", 8)
    want = enumerate_strata_oracle(so8, 2)

    def refused(*args):
        raise AssertionError("enumerate_strata compared a pair")

    monkeypatch.setattr(strata, "stratum_leq", refused)
    monkeypatch.setattr(strata, "hull_membership", refused)
    assert enumerate_strata(so8, 2) == want


def test_enumerate_forces_each_index_once(monkeypatch):
    # a label reads its simple-root signs once: its type's dominance check
    # keeps them, and its forced index is read off them
    signs, calls = canon._simple_root_signs, []

    def counted(family, mu):
        calls.append(mu)
        return signs(family, mu)

    for module in (canon, rootsys):
        monkeypatch.setattr(module, "_simple_root_signs", counted)
    for family in (GroupFamily("gl", 3), GroupFamily("so", 8)):
        calls.clear()
        assert len(enumerate_strata(family, 2).labels) == len(calls)


def _closure(p: StrataPoset):
    k = len(p.labels)
    leq = [[i == j for j in range(k)] for i in range(k)]
    for i, j in p.relation:
        leq[i][j] = True
    for m in range(k):
        for i in range(k):
            for j in range(k):
                leq[i][j] = leq[i][j] or (leq[i][m] and leq[m][j])
    return leq


@pytest.mark.parametrize("family,bound", [
    (GroupFamily("gl", 3), 2), (GroupFamily("sp", 4), 2),
    (GroupFamily("so", 5), 2), (GroupFamily("so", 4), 2)])
def test_poset_laws(family, bound):
    p = enumerate_strata(family, bound)
    k = len(p.labels)
    direct = [[stratum_leq(p.labels[i], p.labels[j]) for j in range(k)]
              for i in range(k)]
    # antisymmetry and transitivity
    for i in range(k):
        assert direct[i][i]
        for j in range(k):
            if i != j and direct[i][j]:
                assert not direct[j][i]
            for m in range(k):
                if direct[i][j] and direct[j][m]:
                    assert direct[i][m]
    # the covering relation closes back up to the full order
    closed = _closure(p)
    for i in range(k):
        for j in range(k):
            assert closed[i][j] == direct[i][j]
    # covers are irredundant
    for i, j in p.relation:
        assert not any(m not in (i, j) and direct[i][m] and direct[m][j]
                       for m in range(k))


def test_labels_use_dominant_representatives():
    gl3 = GroupFamily("gl", 3)
    p = enumerate_strata(gl3, 1)
    for lab in p.labels:
        assert tuple(lab.mu.mu) == dominant_representative(gl3, lab.mu.mu)
        assert all(isinstance(c, (int, Fraction)) for c in lab.mu.mu)


def edges_from_dot(text):
    """Node and edge sets parsed back from to_dot output."""
    edges = set()
    nodes = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith('"') and "->" in line:
            left, right = line.split("->")
            edges.add((left.strip().strip('"'),
                       right.strip().rstrip(";").strip().strip('"')))
        elif line.startswith('"') and line.endswith('";'):
            nodes.add(line[1:-2])
    return nodes, edges


def test_dot_round_trip():
    p = enumerate_strata(GroupFamily("gl", 2), 1, total_degree=0)
    text = to_dot(p)
    assert text == to_dot(p)  # byte-deterministic
    nodes, edges = edges_from_dot(text)
    assert len(nodes) == 2 and len(edges) == 1
    edge = next(iter(edges))
    assert edge == ("(0,0);{}", "(1,-1);{a1,2}")  # edge runs lower to higher
    q = enumerate_strata(GroupFamily("sp", 4), 1)
    nodes_q, edges_q = edges_from_dot(to_dot(q))
    assert len(nodes_q) == len(q.labels) and len(edges_q) == len(q.relation)


def test_dot_empty_edges():
    p = enumerate_strata(GroupFamily("gl", 2), 0)
    text = to_dot(p)
    assert text.startswith("digraph strata {") and text.endswith("}\n")
    nodes, edges = edges_from_dot(text)
    assert len(nodes) == 1 and not edges
