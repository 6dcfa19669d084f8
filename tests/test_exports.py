import importlib

import pytest

MODULES = ["igopt", "igopt.families", "igopt.families.base", "igopt.families.bernoulli",
           "igopt.families.gaussian", "igopt.families.rbm", "igopt.engine",
           "igopt.experiment", "igopt.fisher", "igopt.flow", "igopt.normal",
           "igopt.objectives", "igopt.weights"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale name in __all__ breaks ``from <module> import *``
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"
    exec(f"from {name} import *", {})
