"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import dynrmat


def package_caches():
    """Every functools cache of the package: the functions of its modules
    and the methods of their classes that have a cache_clear."""
    found = {}
    for info in pkgutil.iter_modules(dynrmat.__path__):
        module = importlib.import_module("dynrmat." + info.name)
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type):
                members += vars(value).values()
            for m in members:
                if hasattr(m, "cache_clear"):
                    found[id(m)] = m
    return list(found.values())


@pytest.fixture
def cold_caches():
    """Clear every cache of the package; the caches, to read cache_info."""
    caches = package_caches()
    for c in caches:
        c.cache_clear()
    return caches
