"""Design guards: every exported dataclass is frozen, no package module
keeps mutable state between calls (a dict, list or set, a writeable numpy
array, or a scipy sparse array with writeable data, indices or indptr, bound
at module level or held in a module-level tuple), and the results of
`solve_Q` and `propagator` hold no writeable array or mutable mapping."""
import dataclasses
import importlib
import pkgutil
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from scipy.sparse import csr_array, issparse

import anharmprop
from anharmprop import CoefficientModel, propagator, solve_Q

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


def _held(value):
    """Every array and mapping a result holds: the fields of its dataclasses,
    recursively.  The model is the caller's input and is not walked."""
    if isinstance(value, CoefficientModel):
        return
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _held(getattr(value, f.name))
    elif isinstance(value, (np.ndarray, Mapping)):
        yield value


def test_transposed_operator_tables_are_seen():
    # The series keeps each operator and its transpose; both are module state.
    from anharmprop import anharmonic

    for tables in (anharmonic._W_TABLES, anharmonic._P1_TABLES):
        for p, q, op, op_t in tables:
            assert issparse(op_t) and op_t.shape == op.T.shape
            assert not _mutable(op_t)
            writeable = op_t.copy()
            assert _mutable(((p, q, op, writeable),))


RESULTS = {
    "solution": lambda: solve_Q(CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0), 128),
    "caustic-solution": lambda: solve_Q(CoefficientModel(a=0.0, b=-30.0, c=1.0, beta=2.0)),
    "breakdown": lambda: propagator(
        CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0), 0.3, -0.2, mu_max=2, grid_n=128
    ),
}


@pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS.keys())
def test_results_are_read_only(make):
    held = list(_held(make()))
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    mappings = [v for v in held if isinstance(v, Mapping)]
    assert len(arrays) >= 7 and len(mappings) == 1
    assert [a for a in arrays if a.flags.writeable] == []
    assert [m for m in mappings if isinstance(m, MutableMapping)] == []
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(TypeError):
        mappings[0]["Q"] = 0.0
