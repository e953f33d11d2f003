"""Reference for the library's local quintic integral rule, shared by the
tests of the series and of the ODE solution."""
import numpy as np
from scipy.interpolate import PPoly


def local_quintic_ppoly(grid, y):
    """scipy's PPoly whose piece on each interval is the quintic through the
    six nodes around it (moved inward at the grid's ends), found by a
    Vandermonde solve in the local coordinate u = (t - t_i) / dx_i."""
    n = grid.size - 1
    nodes = np.clip(np.arange(n) - 2, 0, n - 5)[:, None] + np.arange(6)
    dx = np.diff(grid)[:, None]
    u = (grid[nodes] - grid[:-1, None]) / dx
    coeffs = np.linalg.solve(u[..., None] ** np.arange(6), y[nodes][..., None])[..., 0]
    return PPoly((coeffs / dx ** np.arange(6))[:, ::-1].T, grid)
