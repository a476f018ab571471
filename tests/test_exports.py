import importlib

import pytest

MODULES = ("autodiff", "cli", "data", "layers", "metrics", "models", "training")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    exports = importlib.import_module(f"moectr.{name}").__all__
    namespace: dict = {}
    exec(f"from moectr.{name} import *", namespace)
    assert len(set(exports)) == len(exports)
    assert set(exports) <= set(namespace)
