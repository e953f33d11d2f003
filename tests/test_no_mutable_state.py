"""Design guards: every exported dataclass is frozen, and no package module
keeps mutable state between calls (a dict, list or set, a writeable numpy
array, or a scipy sparse array with writeable data, indices or indptr, bound
at module level or held in a module-level tuple)."""
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from scipy.sparse import csr_array, issparse

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


def _mutable(value) -> bool:
    if isinstance(value, tuple):
        return any(_mutable(v) for v in value)
    if issparse(value):
        return any(_mutable(getattr(value, part)) for part in ("data", "indices", "indptr"))
    return isinstance(value, (dict, list, set)) or (
        isinstance(value, np.ndarray) and value.flags.writeable
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_mutable_module_state(module):
    offenders = [
        name
        for name, value in vars(module).items()
        if not (name.startswith("__") and name.endswith("__")) and _mutable(value)
    ]
    assert offenders == []


def test_nested_and_sparse_state_is_seen():
    frozen = np.zeros(2)
    frozen.setflags(write=False)
    sparse = csr_array(np.eye(2))
    assert _mutable(((frozen, sparse),))
    for part in (sparse.data, sparse.indices, sparse.indptr):
        part.setflags(write=False)
    assert not _mutable(((frozen, sparse),))
    assert _mutable((frozen, [1]))
