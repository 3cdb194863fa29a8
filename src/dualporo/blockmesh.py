"""Tensor-product finite-volume meshes for the block and the flood.

Both problems use cell-centred two-point flux finite volumes on tensor
grids.  product_mesh builds the one mesh type, TensorMesh, from one 1D
node array per axis: cell volumes and centres, the interior faces with
their transmissibilities (face area / centre distance), and the named
walls xmin .. zmax with their half-cell transmissibilities (face area /
distance from centre to wall).  The flood mesh is the product of uniform
axes; the block mesh is the d-fold product of one graded 1D grid.

The imbibition solution lives in thin layers along the block walls (the
diffusion length sqrt(a*t) is orders of magnitude below the block edge for
small fracture widths), so the block's 1D node distribution is graded
exponentially toward both ends of the interval and uniform in the middle.
tensor_mesh turns the faces and walls of the cube mesh, d in {1, 2, 3},
into the block's BlockMesh: cells, diffusion operator and the weights of
the Dirichlet value on all walls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class GradingParams:
    """Controls of the graded 1D grid.

    strength: exponential grading strength inside the wall layers;
        0 degenerates to the uniform grid.
    kappa: layer width safety factor on the diffusion length.
    layer_fraction: fraction of each half's cells placed inside the layer.
    """

    strength: float = 6.0
    kappa: float = 2.0
    layer_fraction: float = 0.5


@dataclass(frozen=True)
class GradedGrid1D:
    """Symmetric node set on [0, L]: nodes[i] + nodes[n-i] == L."""

    nodes: np.ndarray
    length: float
    layer_width: float
    strength: float

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)


def graded_interval(n_cells: int, length: float, layer_width: float,
                    grading: GradingParams = GradingParams()) -> GradedGrid1D:
    """Symmetric grid with exponentially graded wall layers.

    Within each layer of width sigma the node offsets follow
    sigma * (exp(b*u) - 1)/(exp(b) - 1), finest spacing at the wall; the
    interior is uniform. strength b = 0 returns the uniform grid.
    """
    if n_cells < 4 or n_cells % 2:
        raise ValueError("n_cells must be an even number >= 4")
    if not 0.0 < layer_width <= length / 4.0 + 1e-15:
        raise ValueError("layer_width must lie in (0, length/4]")
    b = grading.strength
    if b < 0.0:
        raise ValueError("grading strength must be >= 0")
    if b == 0.0:
        nodes = np.linspace(0.0, length, n_cells + 1)
        return GradedGrid1D(nodes, length, layer_width, b)

    n_half = n_cells // 2
    n_layer = int(round(grading.layer_fraction * n_half))
    n_layer = min(max(n_layer, 2), n_half - 2)
    u = np.arange(n_layer + 1) / n_layer
    layer = layer_width * np.expm1(b * u) / np.expm1(b)
    interior = np.linspace(layer_width, length / 2.0,
                           n_half - n_layer + 1)[1:]
    left = np.concatenate((layer, interior))
    right = (length - left[::-1])[1:]
    nodes = np.concatenate((left, right))
    nodes[n_half] = length / 2.0  # exact symmetry pivot
    return GradedGrid1D(nodes, length, layer_width, b)


def layer_adapted_grid(n_cells: int, delta: float, diffusion_scale: float,
                       grading: GradingParams = GradingParams()) -> GradedGrid1D:
    """Grid on [0, 1-delta] with layer width min(L/4, kappa*sqrt(scale)).

    diffusion_scale is the squared diffusion length a*T_ref of the run the
    grid is built for (block units).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if diffusion_scale < 0.0:
        raise ValueError("diffusion_scale must be >= 0")
    length = 1.0 - delta
    sigma = min(length / 4.0, grading.kappa * np.sqrt(diffusion_scale))
    if sigma <= 0.0:
        sigma = length / 4.0
    return graded_interval(n_cells, length, sigma, grading)


_AXES = "xyz"


@dataclass(frozen=True)
class _Cells:
    """Cells of a tensor-product box mesh, numbered in C order over the
    axes (the last axis fastest)."""

    dimension: int
    volumes: np.ndarray
    centers: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.volumes)

    @property
    def total_volume(self) -> float:
        return float(self.volumes.sum())


@dataclass(frozen=True)
class TensorMesh(_Cells):
    """Two-point flux data of a tensor-product box mesh, shape cells per
    axis.

    Interior faces are listed axis by axis as (lower cell, higher cell,
    area / centre distance).  boundary maps each wall, "xmin" .. "zmax",
    to its cells, their half-cell transmissibilities (area / distance
    from centre to wall) and their face areas.  A direction without an
    axis has unit extent.
    """

    shape: tuple
    face_left: np.ndarray
    face_right: np.ndarray
    face_trans: np.ndarray
    boundary: dict


def product_mesh(axes) -> TensorMesh:
    """Tensor mesh of one strictly increasing node array per axis."""
    nodes = [np.asarray(x, dtype=float) for x in axes]
    if not 1 <= len(nodes) <= 3:
        raise ValueError("a tensor mesh has one to three axes")
    if any(x.ndim != 1 or len(x) < 2 or not (np.diff(x) > 0.0).all()
           for x in nodes):
        raise ValueError("each axis needs at least two increasing nodes")
    dim = len(nodes)
    widths = [np.diff(x) for x in nodes]
    mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
    shape = tuple(len(w) for w in widths)

    vol = widths[0]
    for w in widths[1:]:
        vol = np.multiply.outer(vol, w)
    idx = np.arange(vol.size).reshape(shape)

    left, right, trans, boundary = [], [], [], {}
    for axis in range(dim):
        # cross-sectional area of a face normal to `axis`
        cross = np.ones(shape)
        for other in range(dim):
            if other != axis:
                sh = [1] * dim
                sh[other] = shape[other]
                cross = cross * widths[other].reshape(sh)

        n = shape[axis]
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[axis] = slice(0, n - 1)
        hi[axis] = slice(1, n)
        sh = [1] * dim
        sh[axis] = n - 1
        dist = (mids[axis][1:] - mids[axis][:-1]).reshape(sh)
        left.append(idx[tuple(lo)].reshape(-1))
        right.append(idx[tuple(hi)].reshape(-1))
        trans.append((cross[tuple(lo)] / dist).reshape(-1))

        for side, cell, half in (
                ("min", 0, mids[axis][0] - nodes[axis][0]),
                ("max", n - 1, nodes[axis][-1] - mids[axis][-1])):
            sl = [slice(None)] * dim
            sl[axis] = cell
            area = cross[tuple(sl)].reshape(-1)
            boundary[_AXES[axis] + side] = (idx[tuple(sl)].reshape(-1),
                                            area / half, area)

    grids = np.meshgrid(*mids, indexing="ij")
    centers = np.stack([g.reshape(-1) for g in grids], axis=1)
    return TensorMesh(dimension=dim, shape=shape, volumes=vol.reshape(-1),
                      centers=centers, face_left=np.concatenate(left),
                      face_right=np.concatenate(right),
                      face_trans=np.concatenate(trans), boundary=boundary)


@dataclass(frozen=True)
class BlockMesh(_Cells):
    """Cube mesh of one graded 1D grid with its diffusion operator, built
    from the faces and walls of the cube's TensorMesh.

    diffusion_matrix applies sum_faces T*(v_nb - v_i) per cell for interior
    faces and subtracts the Dirichlet coupling T_b*v_i on wall cells;
    boundary_weights holds those T_b, so the discrete flux divergence of a
    cell field v with uniform wall value g is
        diffusion_matrix @ v + boundary_weights * g.
    """

    grid: GradedGrid1D
    diffusion_matrix: sp.csr_matrix
    boundary_weights: np.ndarray


def tensor_mesh(grid: GradedGrid1D, dimension: int) -> BlockMesh:
    """Build the d-dimensional cube mesh from one 1D grid per axis."""
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    mesh = product_mesh([grid.nodes] * dimension)
    m = mesh.n_cells
    per_axis = m // grid.n_cells * (grid.n_cells - 1)
    rows, cols, vals = [], [], []
    bweights = np.zeros(m)
    # entries axis by axis, interior faces before that axis's two walls:
    # the order in which tocsr sums each diagonal
    for axis in range(dimension):
        faces = slice(axis * per_axis, (axis + 1) * per_axis)
        left = mesh.face_left[faces]
        right = mesh.face_right[faces]
        t_int = mesh.face_trans[faces]
        rows += [left, right, left, right]
        cols += [right, left, left, right]
        vals += [t_int, t_int, -t_int, -t_int]
        for side in ("min", "max"):
            cells, t_b, _ = mesh.boundary[_AXES[axis] + side]
            np.add.at(bweights, cells, t_b)
            rows.append(cells)
            cols.append(cells)
            vals.append(-t_b)

    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).tocsr()
    # the block keeps only what its solvers read: retaining the faces and
    # walls of every block mesh raised the block runs' peak memory
    return BlockMesh(dimension=dimension, volumes=mesh.volumes,
                     centers=mesh.centers, grid=grid, diffusion_matrix=mat,
                     boundary_weights=bweights)
