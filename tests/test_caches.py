import importlib
import pkgutil

import hnbundles
import oracles


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
