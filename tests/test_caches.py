import importlib
import pkgutil

import hnbundles


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(hnbundles.__path__):
        module = importlib.import_module(f"hnbundles.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert "hnbundles.rootsys.weyl_orbit" in caches
    assert "hnbundles.cli.build_parser" in caches
    unbounded = sorted(name for name, size in caches.items() if size is None)
    assert not unbounded, f"unbounded caches: {unbounded}"
