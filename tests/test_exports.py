import importlib
import pkgutil

import pytest

import qwalk

# qwalk.__main__ runs the command line on import
MODULES = sorted(
    f"qwalk.{m.name}" for m in pkgutil.iter_modules(qwalk.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["qwalk", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(exported)) == len(exported)
