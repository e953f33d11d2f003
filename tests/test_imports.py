"""Import-time contracts: the package loads no scipy.interpolate,
scipy.integrate or scipy.special until a function that needs one runs, and
the CubicSpline names that perfbench/tracing.py rebinds stay reachable."""
import subprocess
import sys

import pytest
import scipy.interpolate

from anharmprop import anharmonic, oscillator_ode

# A fresh interpreter: this test process has loaded scipy.interpolate already.
# The float.hex() values are the ones the lazily loaded routes gave while
# scipy was imported at the top of each module.
FRESH_IMPORT = """
import sys
import anharmprop, anharmprop.cli
loaded = [m for m in ("scipy.interpolate", "scipy.integrate", "scipy.special") if m in sys.modules]
assert loaded == [], loaded
from anharmprop import (
    CoefficientModel, i1_hermite_method, i1_quadrature, pcf_scaled, wn_series_exact,
)
got = (
    i1_quadrature(0.3, 0.5, 1.3).hex(),
    i1_hermite_method(0.3, 0.5, 1.3).hex(),
    pcf_scaled(-2.5, 1.7).hex(),
    wn_series_exact(CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0), (0.3, -0.2), 2).hex(),
)
assert got == (
    "0x1.5a136c93215a9p+1",
    "0x1.5a136c932159ep+1",
    "0x1.ccdff05f0c23ep-2",
    "0x1.4f12c4e903913p-2",
), got
"""


def test_import_loads_no_heavy_scipy_module():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [oscillator_ode, anharmonic], ids=lambda m: m.__name__)
class TestRebindableCubicSpline:
    def test_is_scipys_class(self, module):
        assert module.CubicSpline is scipy.interpolate.CubicSpline

    def test_monkeypatch_rebinds_and_restores(self, module, monkeypatch):
        sentinel = object()
        with monkeypatch.context() as patch:
            patch.setattr(module, "CubicSpline", sentinel)
            assert module.CubicSpline is sentinel
        assert module.CubicSpline is scipy.interpolate.CubicSpline

    def test_unknown_name_raises(self, module):
        with pytest.raises(AttributeError, match=rf"module '{module.__name__}' has no attribute"):
            module.NoSuchName  # noqa: B018
