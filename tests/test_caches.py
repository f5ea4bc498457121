import contextlib
import importlib
import io
import pkgutil
from functools import cached_property
from weakref import WeakValueDictionary

import hnbundles
import oracles
from hnbundles import canon, cli, parabolic, rootsys
from hnbundles.canon import CACHED_DIM
from hnbundles.cli import ANSWER_CACHE_LIMIT, run_command
from hnbundles.rootsys import (ORBIT_CACHE_LIMIT, GroupFamily, weyl_orbit,
                               weyl_orbit_size)


# every module-level cache, by name, with its bound.  A cache is keyed by
# value only where callers bring fresh objects, a family or a dominant
# point; what is derived from an object those caches keep rides on that
# object (PER_OBJECT), so its memory goes with the object.  A weak table
# keeps no object alive, so its bound is the objects alive (None).
MODULE_CACHES = {
    "hnbundles.rootsys._family_table": 256,
    "hnbundles.rootsys._live_families": None,
    "hnbundles.rootsys.weyl_orbit": 128,
    "hnbundles.parabolic._two_rho_terms": 128,
    "hnbundles.canon._reduction_of_orbit": 256,
    "hnbundles.canon._oracle_of_orbit": 256,
    "hnbundles.cli.build_parser": 1,
    # bounded in characters held, not in entries
    "hnbundles.cli.run_command": ANSWER_CACHE_LIMIT,
}

PER_OBJECT = ((canon.CanonicalReduction, "_bh"),
              (parabolic.ParabolicIndex, "_two_rho"))


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(hnbundles.__path__):
        module = importlib.import_module(f"hnbundles.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
            elif isinstance(obj, WeakValueDictionary):
                caches[f"{module.__name__}.{name}"] = None
    # weyl_orbit hands out the cache of _weyl_orbit, which keeps its orbits
    assert weyl_orbit.cache_info == rootsys._weyl_orbit.cache_info
    del caches["hnbundles.rootsys._weyl_orbit"]
    assert caches == MODULE_CACHES
    for cls, name in PER_OBJECT:
        assert isinstance(vars(cls)[name], cached_property), (cls, name)
    # the tower oracle keeps a bounded cache of its Smith normal forms, and
    # the root table oracle one of its tables
    assert oracles.lattice_tower.cache_info().maxsize is not None
    assert oracles._cached_supports.cache_info().maxsize is not None


def test_cache_clear_empties_the_answer_cache():
    argv = ["pi1", "--family=gl", "--rank=3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == run_command(argv) == 0
    hits, misses, maxsize, held = run_command.cache_info()
    assert (hits, misses, maxsize) == (1, 1, ANSWER_CACHE_LIMIT) and held > 0
    # the benchmark empties each cache through the cache_clear it finds
    # among a module's names
    for obj in vars(cli).values():
        getattr(obj, "cache_clear", lambda: None)()
    assert run_command.cache_info() == (0, 0, ANSWER_CACHE_LIMIT, 0)


def test_per_family_caches_keep_small_families_only():
    # the families the reduction cache admits, 79 of them, fit in the
    # oracle's root table cache, which keeps the same families
    small = [GroupFamily(kind, r) for kind in ("gl", "sl") for r in range(1, 17)]
    small += [GroupFamily("sp", 2 * n) for n in range(1, 17)]
    small += [GroupFamily("so", r) for r in range(3, 34)]
    assert {f.cartan_dim for f in small} == set(range(1, CACHED_DIM + 1))
    assert len(small) <= oracles._cached_supports.cache_info().maxsize
    # a family over CACHED_DIM caches no reduction: each call builds one
    for r in (17, 18):
        family, a = GroupFamily("gl", r), (1,) + (0,) * (r - 1)
        before = canon._reduction_of_orbit.cache_info()
        red = canon.canonical_reduction(family, a)
        assert red == oracles.canonical_reduction_uncached(family, a)
        assert canon.canonical_reduction(family, a) is not red
        assert canon.check_bh(family, a, red) == \
            oracles.check_bh_uncached(family, red)
        assert canon._reduction_of_orbit.cache_info() == before
        table = oracles._root_supports(family)
        assert oracles._root_supports(family) == table
        assert oracles._root_supports(family) is not table


def test_family_table_stays_at_its_bound():
    table = rootsys._family_table
    bound = table.cache_info().maxsize
    first = GroupFamily("gl", 1)
    red = canon.canonical_reduction(first, (1,))
    for r in range(2, bound + 11):
        GroupFamily("gl", r)
    assert table.cache_info().currsize == bound
    # GL1 was evicted, but a reference to it lives: the family built again
    # is that object, from the live-family table, so the caches keyed by
    # it still answer
    assert rootsys._live_families[GroupFamily, "gl", 1] is first
    again = GroupFamily("gl", 1)
    assert again is first
    assert canon.canonical_reduction(again, (1,)) is red
    assert table.cache_info().currsize == bound


def test_live_family_table_keeps_no_family_alive():
    # a family out of the LRU table with no reference left leaves the live
    # table too: its bound is the families alive
    live, key = rootsys._live_families, (GroupFamily, "gl", 10 ** 6)
    assert GroupFamily("gl", 10 ** 6) is live[key]
    for r in range(1, rootsys._family_table.cache_info().maxsize + 1):
        GroupFamily("sl", r)
    assert key not in live
    assert GroupFamily("gl", 10 ** 6) is live[key]


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
