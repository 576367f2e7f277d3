from __future__ import annotations

import types

import qcgirth


def test_all_names_the_public_surface():
    names = qcgirth.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(qcgirth, name) for name in names)
    public = {name for name, value in vars(qcgirth).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
