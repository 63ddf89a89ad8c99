"""Every cache in the package is known and bounded.

A functools cache anywhere in ``almostplanar.*``, or a module-level dict
that the program fills as it runs, is a cache.  Exactly three exist:
the planarity cache and the verdict cache, each an LRU with a fixed
bound, and classify's index, which holds an entry per vertex count
(and bicycle-sweep choice) up to the classify cap.  A new one fails
here until it is bounded and listed.
"""

import importlib
import pkgutil

import almostplanar
from almostplanar import verify
from almostplanar.classify import classify
from almostplanar.families import gen_bicycle

# Module-level dicts filled at import and never written again.
TABLES = {
    "cli._SET_OPTIONS",
    "constructive.SPECTRA",
    "families.FAMILIES",
    "families._BY_SPEC_TYPE",
    "verify.SUITES",
}


def _module_objects() -> dict[int, tuple[str, object]]:
    """Every module-level object of the package, by identity, with the
    first `module.name` that holds it."""
    found: dict[int, tuple[str, object]] = {}
    for info in pkgutil.iter_modules(almostplanar.__path__):
        module = importlib.import_module(f"almostplanar.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                found.setdefault(id(value), (f"{info.name}.{name}", value))
    return found


def _resolve(dotted: str) -> object:
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"almostplanar.{module}"), name)


def test_the_only_caches_are_the_planarity_caches_and_the_classify_index():
    objects = _module_objects()
    functools_caches = {
        f"{value.__module__.rsplit('.', 1)[1]}.{value.__qualname__}": value
        for _, value in objects.values()
        if hasattr(value, "cache_info")
    }
    assert set(functools_caches) == {
        "planarity._planar_cached",
        "planarity.almost_planar_verdict",
    }
    for cached in functools_caches.values():
        assert cached.cache_info().maxsize is not None

    tables = {id(_resolve(name)) for name in TABLES}
    dict_caches = [
        name
        for key, (name, value) in objects.items()
        if isinstance(value, dict) and key not in tables
    ]
    assert dict_caches == ["classify._indexes"]

    # the tables stay as imported while the program runs
    sizes = {name: len(_resolve(name)) for name in TABLES}
    classify(gen_bicycle(7).graph)
    assert all(res.passed for res in verify.run_suite("theorems", 7))
    assert {name: len(_resolve(name)) for name in TABLES} == sizes
