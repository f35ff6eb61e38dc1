"""Shared fixtures."""

import importlib
import os
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


@pytest.fixture
def eager_workers(monkeypatch):
    """Fork row workers at the start of every operator comparison, and
    count the forks the caller makes: a list whose length is that count.
    The process may run on 3 CPUs, so jobs=3 starts 2 workers on any
    host."""
    from dynrmat import report

    monkeypatch.setattr(report, "FORK_COST_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks
