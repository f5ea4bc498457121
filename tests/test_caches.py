import importlib
import pkgutil

import hnbundles
import oracles
from hnbundles import canon, parabolic
from hnbundles.parabolic import CACHED_DIM
from hnbundles.rootsys import (ORBIT_CACHE_LIMIT, GroupFamily, weyl_orbit,
                               weyl_orbit_size)


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(hnbundles.__path__):
        module = importlib.import_module(f"hnbundles.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert "hnbundles.rootsys.weyl_orbit" in caches
    assert "hnbundles.cli.build_parser" in caches
    # the adjoint-degree oracle reads one table of 2rho_P terms per family
    assert caches["hnbundles.parabolic._two_rho_terms"] is not None
    # and keeps one answer per orbit it scores, not the orbit's packed
    # prefix-sum columns
    assert caches["hnbundles.canon._oracle_of_orbit"] is not None
    assert "hnbundles.canon._packed_orbit" not in caches
    # the canonical reduction and its BH data, once per orbit
    assert caches["hnbundles.canon._reduction_of_orbit"] is not None
    assert caches["hnbundles.canon._bh_of_orbit"] is not None
    # the root tables of the families of cartan_dim <= CACHED_DIM, and
    # one larger table
    assert caches["hnbundles.parabolic._cached_supports"] is not None
    assert caches["hnbundles.parabolic._large_supports"] == 1
    # the closed forms of lattice keep nothing; the tower oracle keeps a
    # bounded cache of its Smith normal forms
    assert not any(name.startswith("hnbundles.lattice.") for name in caches)
    assert oracles.lattice_tower.cache_info().maxsize is not None
    # production reads the simple-root pairings in closed form, so the root
    # tables keep no cache; an idle one added later shows up here
    for name in ("simple_roots", "positive_roots", "all_roots"):
        assert f"hnbundles.rootsys.{name}" not in caches
    unbounded = sorted(name for name, size in caches.items() if size is None)
    assert not unbounded, f"unbounded caches: {unbounded}"


def test_per_family_caches_keep_small_families_only():
    # every family the per-family caches admit fits in the table cache
    small = [GroupFamily(kind, r) for kind in ("gl", "sl") for r in range(1, 17)]
    small += [GroupFamily("sp", 2 * n) for n in range(1, 17)]
    small += [GroupFamily("so", r) for r in range(3, 34)]
    assert {f.cartan_dim for f in small} == set(range(1, CACHED_DIM + 1))
    assert len(small) <= parabolic._cached_supports.cache_info().maxsize
    # a family over CACHED_DIM keeps its table alone and caches no root
    # split, reduction or BH data; the next larger table replaces it
    per_index = (parabolic._cached_supports, parabolic._cached_root_split,
                 canon._reduction_of_orbit, canon._bh_of_orbit)
    for r in (17, 18):
        family, a = GroupFamily("gl", r), (1,) + (0,) * (r - 1)
        before = [cache.cache_info() for cache in per_index]
        red = canon.canonical_reduction(family, a)
        assert red == oracles.canonical_reduction_uncached(family, a)
        assert canon.check_bh(family, a, red) == \
            oracles.check_bh_uncached(family, red)
        assert [cache.cache_info() for cache in per_index] == before
        assert parabolic._large_supports.cache_info().currsize == 1
        assert parabolic._root_supports(family) is parabolic._root_supports(family)


def test_orbit_cache_keeps_orbits_up_to_its_limit():
    # a regular Sp10 orbit, 3,840 points of 5 coordinates, sits at the limit
    sp10 = GroupFamily("sp", 10)
    assert weyl_orbit_size(sp10, (5, 4, 3, 2, 1)) * 5 == ORBIT_CACHE_LIMIT
    orbit = weyl_orbit(sp10, (5, 4, 3, 2, 1))
    assert weyl_orbit(sp10, (1, -2, 3, -4, 5)) is orbit
    # a regular GL7 orbit, 5,040 points of 7, is over it: built afresh on
    # each call, and the cache neither stores nor evicts
    gl7, a = GroupFamily("gl", 7), (6, 5, 4, 3, 2, 1, 0)
    before = weyl_orbit.cache_info()
    first = weyl_orbit(gl7, a)
    assert weyl_orbit(gl7, a[::-1]) == first and len(first) == 5040
    assert weyl_orbit.cache_info() == before
