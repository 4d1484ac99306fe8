import importlib

import pytest

import shiryaev_qsd as sq


def _home(name):
    # the module that defines a public name: its lazy module, or the
    # package itself for the names it imports eagerly
    lazy = sq._LAZY.get(name)
    return importlib.import_module(f"shiryaev_qsd.{lazy}") if lazy else sq


@pytest.mark.parametrize("name", sq.__all__)
def test_public_names_resolve(name, monkeypatch):
    if name in sq._LAZY:
        monkeypatch.delitem(vars(sq), name, raising=False)
    assert getattr(sq, name) is getattr(_home(name), name)
    assert name in dir(sq)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from shiryaev_qsd import *", ns)
    assert {n: ns[n] for n in sq.__all__} == {n: getattr(sq, n) for n in sq.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sq.no_such_name
    assert not hasattr(sq, "run_check")
    assert "no_such_name" not in dir(sq)


def test_lazy_name_is_cached_after_first_access(monkeypatch):
    # a cached name is a plain attribute read: a second access must not
    # enter __getattr__, which would cost microseconds per density call
    for name in sq._LAZY:
        monkeypatch.delitem(vars(sq), name, raising=False)
        first = getattr(sq, name)
        assert vars(sq)[name] is first
    entered = []
    monkeypatch.setattr(sq, "__getattr__", lambda name: entered.append(name))
    assert all(getattr(sq, name) is vars(sq)[name] for name in sq._LAZY)
    assert entered == []
