import types

import rankqda


def test_star_import_binds_exactly_the_sorted_public_names():
    namespace = {}
    exec("from rankqda import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == rankqda.__all__
    assert rankqda.__all__ == sorted(set(rankqda.__all__))
    assert [name for name in rankqda.__all__ if name.startswith("_")] == []
    assert [name for name in rankqda.__all__ if isinstance(getattr(rankqda, name), types.ModuleType)] == []
