"""The package namespace: each public name is read from its home module at
every access, and nothing is kept in the package itself."""

import functools
import importlib

import pytest

import markovwindow as mw


def test_each_public_name_is_its_home_module_object():
    for name in mw.__all__:
        obj = getattr(mw, name)
        if name == "zoo":
            assert obj is importlib.import_module("markovwindow.zoo")
            continue
        assert obj.__module__.startswith("markovwindow."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from markovwindow import *", namespace)
    assert {name: namespace[name] for name in mw.__all__} == {name: getattr(mw, name) for name in mw.__all__}


def test_dir_and_submodules():
    assert set(mw.__all__) <= set(dir(mw))
    assert {"chain", "complexity", "geometry", "montecarlo", "divergences", "spectral", "cli"} <= set(dir(mw))
    assert mw.complexity is importlib.import_module("markovwindow.complexity")
    assert mw.geometry.coefficient_diff is importlib.import_module("markovwindow.geometry").coefficient_diff
    assert mw.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mw.no_such_name
    assert not hasattr(mw, "tracing")  # a name that is neither public nor a submodule
    with pytest.raises(ImportError):
        exec("from markovwindow import no_such_name", {})


def test_patched_then_restored_home_function_reads_through(monkeypatch):
    # Tracing wraps a function where its home module looks it up, then puts
    # the original back; the package name follows both, as nothing is cached.
    chain = importlib.import_module("markovwindow.chain")
    real = chain.evolve
    traced = functools.wraps(real)(lambda *args, **kwargs: real(*args, **kwargs))
    assert mw.evolve is real
    monkeypatch.setattr(chain, "evolve", traced)
    assert mw.evolve is traced and "evolve" not in vars(mw)
    monkeypatch.undo()
    assert mw.evolve is real and "evolve" not in vars(mw)
