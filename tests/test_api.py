"""The public API: `bridgestab.__all__` names what the package exports."""

import bridgestab as bs


def test_all_has_no_duplicates():
    assert len(bs.__all__) == len(set(bs.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in bs.__all__ if not hasattr(bs, name)]
    assert not missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bridgestab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(bs.__all__)
