"""Linearized block imbibition: constant and variable diffusivity.

Replacing alpha(s) by a scalar turns the block problem into the heat
equation. Two linearizations are provided, both imbibition.run_linear:
the block's modes (imbibition.BlockMemory, the fast diagonalization
method of Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185) driven by
effective.exchange_series, the driver of the sqrt kernel too, on a clock
whose rate is the scalar.  Neither factors a matrix, and each returns
the block's ExchangeSeries, not divided by delta:

  * constant ("clin"): the saturation average alpha_bar = int_0^1 alpha;
  * variable ("vlin"): a time-dependent scalar, the average of alpha over
    the saturation range the wall value has visited so far, frozen per
    step in physical time.  (The change of time variable tau(t) =
    int_0^t alpha_hat maps it to the unit-coefficient problem, with
    Q_vlin(t) = alpha_hat(t) * Q_unit(tau(t)).)

The eigenfunction series of the constant problem on the cube, the
analytic reference of the clin block solve, is kept with the tests in
tests/oracles.py.
"""
from __future__ import annotations

import numpy as np

from .blockmesh import BlockMesh
from .effective import running_range_alpha
from .imbibition import BlockProblem, ExchangeSeries, midpoints, run_linear


def variable_coefficients(problem: BlockProblem) -> np.ndarray:
    """Per-interval scalar diffusivity: average of alpha over the wall-value
    range visited through the interval's start node."""
    return running_range_alpha(problem.report_walls,
                               problem.cset.matrix_table())[:-1]


def run_constant_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None) -> ExchangeSeries:
    """Block exchange with alpha replaced by its saturation average."""
    q = run_linear(problem, problem.cset.alpha_bar(), mesh)
    return ExchangeSeries(midpoints(problem.times), q, "clin", problem.delta)


def run_variable_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None) -> ExchangeSeries:
    """Block exchange with the range-averaged diffusivity
    (variable_coefficients), frozen per step in physical time."""
    q = run_linear(problem, variable_coefficients(problem), mesh)
    return ExchangeSeries(midpoints(problem.times), q, "vlin", problem.delta)
