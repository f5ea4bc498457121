"""The low-rank isomorphisms as a cross-check of the Sp/SO paths against
the GL/SL ones, with no oracle: each map below carries the cocharacters
of one family onto the even-sum class of another and each simple root
to a simple root (the node map), so the canonical reduction, the forced
index, the adjoint degree, the Levi root count, the Levi flag of the BH
conditions and orbit-hull membership must correspond.

  Sp2 = SL2         a -> (a, -a)
  SL2 -> SO3        f -> (f1 - f2), the adjoint representation
  Sp4 -> SO5        (a1, a2) -> (a1 + a2, a1 - a2), on the trace-free
                    part of the second exterior power; a1,2 -> a2 and
                    2a2 -> a1,2
  SL4 -> SO6        f -> (f1 + f2, f1 + f3, f1 + f4), on the second
                    exterior power; a1,2 -> a2+a3, a2,3 -> a1,2 and
                    a3,4 -> a2,3
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hnbundles.canon import (ad_degree, bh_conditions, canonical_reduction,
                             check_bh)
from hnbundles.parabolic import ParabolicIndex, _levi_positive_count
from hnbundles.rootsys import GroupFamily
from hnbundles.strata import hull_membership
from oracles import simple_root_values

# name -> (source, target, cocharacter map, node map: image of simple root i)
ISOGENIES = {
    "sp2-sl2": (GroupFamily("sp", 2), GroupFamily("sl", 2),
                lambda a: (a[0], -a[0]), (0,)),
    "sl2-so3": (GroupFamily("sl", 2), GroupFamily("so", 3),
                lambda f: (f[0] - f[1],), (0,)),
    "sp4-so5": (GroupFamily("sp", 4), GroupFamily("so", 5),
                lambda a: (a[0] + a[1], a[0] - a[1]), (1, 0)),
    "sl4-so6": (GroupFamily("sl", 4), GroupFamily("so", 6),
                lambda f: (f[0] + f[1], f[0] + f[2], f[0] + f[3]), (2, 0, 1)),
}


def _points(family):
    """Cocharacters of family with entries in [-3, 3], the last one of an
    SL point set by the others."""
    n = family.cartan_dim - (family.kind == "sl")
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if family.kind == "sl":
        return coords.map(lambda v: tuple(v) + (-sum(v),))
    return coords.map(tuple)


def _indexes(source, target, nodes):
    """Every parabolic index of source, with its image in target."""
    count = len(nodes)
    for k in range(count + 1):
        for members in combinations(range(count), k):
            yield (ParabolicIndex(source, members),
                   ParabolicIndex(target, {nodes[i] for i in members}))


@pytest.mark.parametrize("name", ISOGENIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_reductions_correspond(name, data):
    source, target, phi, nodes = ISOGENIES[name]
    a = data.draw(_points(source))
    b = phi(a)
    # the node map carries each simple-root value at a to the same value at b
    values = simple_root_values(target, b)
    assert [values[j] for j in nodes] == simple_root_values(source, a)
    red, image = canonical_reduction(source, a), canonical_reduction(target, b)
    assert image.mu.mu == phi(red.mu.mu)
    assert image.index.members == {nodes[i] for i in red.index.members}
    assert ad_degree(target, image.index, image.mu.mu) == \
        ad_degree(source, red.index, red.mu.mu)
    assert _levi_positive_count(image.index) == _levi_positive_count(red.index)
    assert check_bh(target, b, image)[0] is check_bh(source, a, red)[0] is True
    # every parabolic, at the point itself rather than the dominant one
    for index, mapped in _indexes(source, target, nodes):
        assert ad_degree(target, mapped, b) == ad_degree(source, index, a)
        assert _levi_positive_count(mapped) == _levi_positive_count(index)
        assert bh_conditions(target, mapped, b)[0] == \
            bh_conditions(source, index, a)[0]


@pytest.mark.parametrize("name", ISOGENIES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hull_membership_corresponds(name, data):
    # ten pairs an example: 2,000 pairs a map
    source, target, phi, _ = ISOGENIES[name]
    mu = data.draw(_points(source))
    for nu in data.draw(st.lists(_points(source), min_size=10, max_size=10)):
        assert hull_membership(target, phi(mu), phi(nu)) == \
            hull_membership(source, mu, nu), (mu, nu)
