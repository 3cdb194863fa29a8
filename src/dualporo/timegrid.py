"""Time grid builders for the block and effective solvers."""
from __future__ import annotations

import numpy as np


def uniform_times(t_end: float, n_steps: int) -> np.ndarray:
    if n_steps < 1 or t_end <= 0.0:
        raise ValueError("need n_steps >= 1 and t_end > 0")
    return np.linspace(0.0, t_end, n_steps + 1)


def blocked_geometric_times(t_end: float, dt0: float, block_len: int = 64,
                            growth: float = 1.2) -> np.ndarray:
    """Piecewise-uniform grid whose step grows by `growth` between blocks.

    Quasi-geometric refinement toward t = 0 (relative step dt/t stays
    bounded by about (growth-1)/block_len) while letting linear solvers
    reuse one factorization per block. The final step is shortened to land
    exactly on t_end.
    """
    if dt0 <= 0.0 or t_end <= 0.0 or block_len < 1 or growth < 1.0:
        raise ValueError("invalid blocked-geometric parameters")
    times = [0.0]
    dt = dt0
    while times[-1] < t_end:
        for _ in range(block_len):
            t = times[-1] + dt
            if t >= t_end - 1e-12 * t_end:
                times.append(t_end)
                return np.array(times)
            times.append(t)
        dt *= growth
    return np.array(times)


def midpoints(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    return 0.5 * (times[:-1] + times[1:])
