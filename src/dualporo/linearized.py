"""Linearized block imbibition: constant and variable diffusivity.

Replacing alpha(s) by a scalar turns the block problem into the heat
equation. Two linearizations are provided, both solved on the block mesh
by imbibition.run_linear.  The mesh's diffusion operator is a Kronecker
sum of one 1D operator, so one 1D eigenproblem turns each backward-Euler
step into a scalar update per mode, whatever the coefficient sequence
(the fast diagonalization method of Lynch, Rice & Thomas, Numer. Math. 6
(1964) 185); neither run factors a matrix:

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
from .imbibition import BlockProblem, BlockSolution, run_linear


def variable_coefficients(problem: BlockProblem) -> np.ndarray:
    """Per-interval scalar diffusivity: average of alpha over the wall-value
    range visited through the interval's start node."""
    cset = problem.cset
    wall = cset.transfer(np.array([problem.boundary(float(t))
                                   for t in problem.times]))
    return running_range_alpha(wall, cset.matrix_table())[:-1]


def run_constant_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None) -> BlockSolution:
    """Block solve with alpha replaced by its saturation average."""
    return run_linear(problem, problem.cset.alpha_bar(), mesh)


def run_variable_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None):
    """Block solve with the range-averaged diffusivity, frozen per step in
    physical time. Returns (solution, coefficients)."""
    coeff = variable_coefficients(problem)
    return run_linear(problem, coeff, mesh), coeff
