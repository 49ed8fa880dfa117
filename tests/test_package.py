import types

import mstdkit


def test_all_lists_only_public_names_that_resolve():
    assert len(set(mstdkit.__all__)) == len(mstdkit.__all__)
    for name in mstdkit.__all__:
        assert not isinstance(getattr(mstdkit, name), types.ModuleType), name
    namespace = {}
    exec("from mstdkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mstdkit.__all__)
