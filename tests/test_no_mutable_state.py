"""Design guards: every exported dataclass is frozen, and no package module
keeps mutable state between calls (a dict, list or set, or a writeable
numpy array, bound at module level)."""
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import anharmprop

MODULES = [anharmprop] + [
    importlib.import_module(f"anharmprop.{info.name}")
    for info in pkgutil.iter_modules(anharmprop.__path__)
]


def test_exported_dataclasses_are_frozen():
    classes = {
        name: obj
        for name, obj in vars(anharmprop).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert "OscillatorSolution" in classes
    mutable = [name for name, cls in classes.items() if not cls.__dataclass_params__.frozen]
    assert mutable == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_mutable_module_state(module):
    offenders = [
        name
        for name, value in vars(module).items()
        if not (name.startswith("__") and name.endswith("__"))
        and (
            isinstance(value, (dict, list, set))
            or (isinstance(value, np.ndarray) and value.flags.writeable)
        )
    ]
    assert offenders == []
