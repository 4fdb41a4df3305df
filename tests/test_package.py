from __future__ import annotations

from types import ModuleType

import treebridges


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from treebridges import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == treebridges.__all__


def test_all_is_sorted_public_and_holds_no_module():
    names = treebridges.__all__
    assert names == sorted(set(names))
    assert not [name for name in names if name.startswith("_")]
    assert not [name for name in names if isinstance(getattr(treebridges, name), ModuleType)]
    # only the package's own functions and classes, nothing its imports leak
    owners = {getattr(treebridges, name).__module__.split(".")[0] for name in names}
    assert owners == {"treebridges"}
