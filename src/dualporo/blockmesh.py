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
the Dirichlet value on the walls.

The block problem is mirror-symmetric about the cube's mid-planes (uniform
wall value, uniform initial state), so it can be solved on one corner: the
product of the left half of the 1D grid, which ends exactly at L/2.  The
corner mesh keeps only the "min" walls as Dirichlet walls; its "max" faces
are no-flux mirror planes, and BlockMesh.copies = 2^d counts the corners
that make up the cube.  The full cube (corner=False) stays as the
reference.

Both solvers' Newton matrices keep one sparsity pattern for a whole run.
FixedPattern holds that pattern as one CSC matrix and writes each
iteration's values into it, and LU_OPTIONS is the one SuperLU ordering
every factorization of such a matrix uses.
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
    # at least one layer cell, and two interior cells where there is room
    n_layer = min(max(n_layer, 2), max(n_half - 2, 1))
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

# SuperLU options of every factorization of a FixedPattern matrix: minimum
# degree on the pattern of A^T + A, with diagonal pivots preferred.  The
# matrices are structurally symmetric, so this ordering keeps less fill
# than the default COLAMD (a 48 x 48 flood Jacobian: 410 k -> 243 k
# entries of L + U, half the factorization time).  The block's small
# matrices gain mostly from the diagonal pivots: 256 corner cells factor
# in 0.78 ms with COLAMD, 0.73 ms with the ordering alone and 0.55 ms with
# both (one 2-vCPU x86 host).
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A",
              "options": {"SymmetricMode": True}}


class FixedPattern:
    """A sparse matrix whose nonzero pattern is fixed by a list of slots.

    Slot i holds entry (rows[i], cols[i]); slots that share an entry are
    summed.  The pattern is the union of the slots, built once as a CSC
    matrix, and fill writes new slot values into it.
    """

    def __init__(self, rows, cols, shape: tuple):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        keys, self._pos = np.unique(cols * shape[0] + rows,
                                    return_inverse=True)
        indptr = np.zeros(shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // shape[0], minlength=shape[1]),
                  out=indptr[1:])
        self.matrix = sp.csc_matrix(
            (np.zeros(len(keys)), keys % shape[0], indptr), shape=shape)

    def fill(self, vals) -> sp.csc_matrix:
        """The matrix with entries summed from one value per slot, in slot
        order; the next call overwrites it."""
        mat = self.matrix
        mat.data[:] = np.bincount(self._pos, weights=vals,
                                  minlength=mat.nnz)
        return mat


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
    """Cube mesh of one graded 1D grid, or of its mirror corner, with its
    diffusion operator, built from the faces and walls of a TensorMesh.

    diffusion_matrix applies sum_faces T*(v_nb - v_i) per cell for interior
    faces and subtracts the Dirichlet coupling T_b*v_i on wall cells;
    boundary_weights holds those T_b, so the discrete flux divergence of a
    cell field v with uniform wall value g is
        diffusion_matrix @ v + boundary_weights * g.
    copies is the number of such meshes that tile the cube: 1 for the
    full cube, 2^d for the corner.
    """

    grid: GradedGrid1D
    diffusion_matrix: sp.csr_matrix
    boundary_weights: np.ndarray
    copies: int


def tensor_mesh(grid: GradedGrid1D, dimension: int,
                corner: bool = False) -> BlockMesh:
    """Build the d-dimensional cube mesh from one 1D grid per axis, or
    with corner=True the mesh of its corner [0, L/2]^d, whose "max" faces
    are mirror planes without flux."""
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    nodes = grid.nodes[: grid.n_cells // 2 + 1] if corner else grid.nodes
    sides = ("min",) if corner else ("min", "max")
    mesh = product_mesh([nodes] * dimension)
    m = mesh.n_cells
    n = len(nodes) - 1
    per_axis = m // n * (n - 1)
    rows, cols, vals = [], [], []
    bweights = np.zeros(m)
    # entries axis by axis, interior faces before that axis's walls: the
    # order in which tocsr sums each diagonal
    for axis in range(dimension):
        faces = slice(axis * per_axis, (axis + 1) * per_axis)
        left = mesh.face_left[faces]
        right = mesh.face_right[faces]
        t_int = mesh.face_trans[faces]
        rows += [left, right, left, right]
        cols += [right, left, left, right]
        vals += [t_int, t_int, -t_int, -t_int]
        for side in sides:
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
                     boundary_weights=bweights,
                     copies=2 ** dimension if corner else 1)
