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
Its grading is fixed by the module constants below, not by options.
tensor_mesh turns the faces and walls of the cube mesh, d in {1, 2, 3},
into the block's BlockMesh: cells, diffusion operator and the weights of
the Dirichlet value on the walls.

The block problem is mirror-symmetric about the cube's mid-planes (uniform
wall value, uniform initial state), so it can be solved on one corner: the
product of the left half of the 1D grid, which ends exactly at L/2.  The
corner mesh keeps only the "min" walls as Dirichlet walls; its "max" faces
are no-flux mirror planes.  The corner is the d-fold product of one 1D
grid, so its solution is also symmetric under every permutation of the
axes (Bossavit, Comput. Methods Appl. Mech. Engrg. 56 (1986) 167), and
wedge_mesh keeps one cell per orbit, the cells i >= j (>= k): 136 of 256
on a 16^2 corner, 816 of 4,096 on a 16^3 one.  Each kept cell carries the
corner's own equation, its neighbours read through their orbits'
representatives.  BlockMesh.copies is a per-cell multiplicity, the number
of the cube's cells that a cell stands for: 1 on the full cube, 2^d on
the corner, 2^d times the orbit size on the wedge.  The full cube and the
corner (tensor_mesh) stay as the references.

Both solvers' Newton matrices keep one sparsity pattern for a whole run.
FixedPattern holds that pattern as one CSC matrix and writes each
iteration's values into it.  How it factors depends on the pattern alone,
so FixedPattern decides once, when it is built, and stores the matrix in
the order that route factors: analyse once, refactor many times, as KLU
does for circuit Jacobians (Davis and Palamadai Natarajan, ACM TOMS 37
(2010) 36).  A narrow pattern, whose Cuthill-McKee order has
half-bandwidth kl with n kl^2 < BAND_WORK (Cuthill and McKee, Proc. 24th
ACM National Conf. (1969) 157), is factored by LAPACK's band LU, dgbtrf:
the block's wedges (in 3d through 52 cells per axis), its corners and
floods up to 43 x 43 cells.  A wider one is
factored by SuperLU in the LU_OPTIONS ordering of one stand-in matrix,
which stays the reference the band route is tested against.
FixedPattern.factor returns either route's LU in that stored order.

FixedPattern.solver gives one Newton solve solve(mat, b) -> x, b and x
in the unknowns' own order, which it permutes into the stored order and
back once per call.  On the band route it factors every correction's
matrix.  On SuperLU's it factors the first and keeps that LU: each later
correction is solved by GMRES on the new matrix, right-preconditioned by
the kept LU (krylov_solve), and only a solve that misses KRYLOV_RTOL
within KRYLOV_ITER iterations drops it and factors its matrix, whose LU
is kept instead.  Each correction stays an exact Newton step to
KRYLOV_RTOL, and no two LUs are alive at once (Knoll and Keyes, J.
Comput. Phys. 193 (2004) 357).  KRYLOV_ITER = 0 factors every correction
on both routes and keeps no LU, the reference path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu as _splu


# The graded 1D grid: exponential grading strength inside the wall
# layers, the layer width's safety factor on the diffusion length, and the
# fraction of each half's cells placed inside the layer.
GRADING_STRENGTH = 6.0
LAYER_KAPPA = 2.0
LAYER_FRACTION = 0.5


@dataclass(frozen=True)
class GradedGrid1D:
    """Symmetric node set on [0, L]: nodes[i] + nodes[n-i] == L."""

    nodes: np.ndarray
    length: float
    layer_width: float

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)


def graded_interval(n_cells: int, length: float,
                    layer_width: float) -> GradedGrid1D:
    """Symmetric grid with exponentially graded wall layers.

    Within each layer of width sigma the node offsets follow
    sigma * (exp(b*u) - 1)/(exp(b) - 1), b = GRADING_STRENGTH, finest
    spacing at the wall; the interior is uniform.
    """
    if n_cells < 4 or n_cells % 2:
        raise ValueError("n_cells must be an even number >= 4")
    if not 0.0 < layer_width <= length / 4.0 + 1e-15:
        raise ValueError("layer_width must lie in (0, length/4]")
    b = GRADING_STRENGTH
    n_half = n_cells // 2
    n_layer = int(round(LAYER_FRACTION * n_half))
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
    return GradedGrid1D(nodes, length, layer_width)


def layer_adapted_grid(n_cells: int, delta: float,
                       diffusion_scale: float) -> GradedGrid1D:
    """Grid on [0, 1-delta] with layer width
    min(L/4, LAYER_KAPPA * sqrt(scale)).

    diffusion_scale is the squared diffusion length a*T_ref of the run the
    grid is built for (block units).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if diffusion_scale < 0.0:
        raise ValueError("diffusion_scale must be >= 0")
    length = 1.0 - delta
    sigma = min(length / 4.0, LAYER_KAPPA * np.sqrt(diffusion_scale))
    if sigma <= 0.0:
        sigma = length / 4.0
    return graded_interval(n_cells, length, sigma)


_AXES = "xyz"

# The bound on n kl^2, the band LU's work, below which a FixedPattern of n
# unknowns and Cuthill-McKee half-bandwidth kl is factored by dgbtrf.  Set
# from the time whole runs spend in LU and solve, band / SuperLU (median
# of three to five alternating runs, one 2-vCPU x86 host): floods of
# 32^2, 40^2, 44^2 and 48^2 cells (n kl^2 8.7e6, 2.1e7, 3.1e7, 4.3e7)
# 0.63, 0.84, 1.02, 1.09; 2d corners of 64^2 and 80^2 (1.7e7, 4.1e7)
# 0.74, 0.98; 3d corners of 12^3 .. 14^3 (2.3e7 .. 6.5e7) 0.56 .. 0.65.
# The bound sits at the flood's crossover, so 3d corners from 13^3 keep
# SuperLU: the flood's pressure columns are 1e5 times smaller than its
# saturation columns, and dgbtrf swaps half its saturation rows.  The 3d
# wedges that build_mesh solves stay on the band route through 52 cells
# per axis (48 cells: 2,600 wedge cells, kl = 82; 52: kl = 95), and
# SuperLU starts at 54 (3,654 wedge cells).
BAND_WORK = 30_000_000

# SuperLU's ordering of a wider FixedPattern: minimum degree on the pattern
# of A^T + A, with diagonal pivots preferred.  The matrices are
# structurally symmetric, so this ordering keeps less fill than the
# default COLAMD (a 48 x 48 flood Jacobian: 410 k -> 243 k entries of
# L + U, half the factorization time).  The ordering is computed once per
# pattern, from one stand-in matrix; every factorization of the pattern's
# matrices then takes it as given (NATURAL): a 48 x 48 flood LU takes
# 13.0 ms instead of 16.1 ms, a 96 x 96 one 81.9 ms instead of 96.5 ms
# (one 2-vCPU x86 host, interleaved).
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A",
              "options": {"SymmetricMode": True}}

# GMRES on a Newton solve's kept SuperLU factors: the largest number of
# iterations a correction may take, and the bound on its true residual
# relative to the right-hand side (2-norms).  0 iterations factor every
# correction.  The band route factors every correction whatever the cap:
# its LU costs a few of its own solves.
KRYLOV_ITER = 10
KRYLOV_RTOL = 1.0e-12


def _band_order(mat: sp.csc_matrix, work: int):
    """The Cuthill-McKee order of mat's structurally symmetric pattern,
    or None once its half-bandwidth kl reaches n kl^2 >= work.

    Level by level from a node of least degree: each level holds the
    unplaced neighbours of the one before, ordered by their earliest
    placed neighbour, then by degree; a component that runs out restarts
    at the unplaced node of least degree.  Every entry couples a level to
    itself or to the next, so the half-bandwidth is the largest distance
    from a node to its earliest neighbour, and a wide pattern stops
    within a few levels."""
    n = mat.shape[0]
    indptr, indices = mat.indptr, mat.indices
    degree = np.diff(indptr)
    rank = np.full(n, -1)
    placed = 0
    while placed < n:
        free = np.flatnonzero(rank < 0)
        level = free[[np.argmin(degree[free])]]
        while len(level):
            rank[level] = np.arange(placed, placed + len(level))
            placed += len(level)
            counts = degree[level]
            ends = np.cumsum(counts)
            nb = indices[np.repeat(indptr[level] - ends + counts, counts)
                         + np.arange(ends[-1])]
            parent = np.repeat(rank[level], counts)
            new = rank[nb] < 0
            level, first = np.unique(nb[new], return_index=True)
            parent = parent[new][first]
            by = np.lexsort((degree[level], parent))
            level, parent = level[by], parent[by]
            kl = (placed + np.arange(len(level)) - parent).max(initial=0)
            if n * kl ** 2 >= work:
                return None
    return np.argsort(rank)


def _lu_order(mat: sp.csc_matrix) -> np.ndarray:
    """The symmetric permutation q that SuperLU's LU_OPTIONS ordering
    (minimum degree and elimination-tree postorder) gives mat's pattern:
    it factors A[q][:, q].  Read from the LU of a diagonally dominant
    matrix of that pattern, whose pivots stay on the diagonal; mat's
    values are overwritten."""
    mat.data[:] = -1.0
    standin = mat + sp.diags(np.diff(mat.indptr) + 1.0)
    return np.argsort(_splu(standin.tocsc(), **LU_OPTIONS).perm_c)


class BandLU:
    """LAPACK's band LU (dgbtrf) of a matrix with kl sub- and ku
    superdiagonals, given in band storage ab: entry (i, j) in row
    kl + ku + i - j of column j, the first kl rows free for the fill of
    row interchanges.  ab is overwritten by the factors."""

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        self._lu, self._piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        self._kl, self._ku = kl, ku

    def solve(self, b) -> np.ndarray:
        return dgbtrs(self._lu, self._kl, self._ku, b, self._piv)[0]


def krylov_solve(mat, b, lu, max_iter: int):
    """x with |b - mat x| <= KRYLOV_RTOL |b| by GMRES from x = 0,
    right-preconditioned by lu.solve (Saad and Schultz, SIAM J. Sci. Stat.
    Comput. 7 (1986) 856), or None if none of its first max_iter iterates
    gets there.  The true residual decides; GMRES's least-squares residual
    only says when to look.  A zero Arnoldi norm (exact breakdown) ends
    the iteration, its iterate then exact in the Krylov space."""
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(len(b))
    basis = np.empty((max_iter + 1, len(b)))
    pre = np.empty((max_iter, len(b)))          # lu.solve of each basis vector
    hess = np.zeros((max_iter + 1, max_iter))
    rhs = np.zeros(max_iter + 1)
    basis[0], rhs[0] = b / norm_b, norm_b
    for j in range(max_iter):
        pre[j] = lu.solve(basis[j])
        w = mat @ pre[j]
        for _ in range(2):                      # Gram-Schmidt, twice
            c = basis[:j + 1] @ w
            w -= c @ basis[:j + 1]
            hess[:j + 1, j] += c
        hess[j + 1, j] = h = float(np.linalg.norm(w))
        if not np.isfinite(h):
            return None
        y = np.linalg.lstsq(hess[:j + 2, :j + 1], rhs[:j + 2], rcond=None)[0]
        estimate = np.linalg.norm(hess[:j + 2, :j + 1] @ y - rhs[:j + 2])
        if h == 0.0 or estimate <= KRYLOV_RTOL * norm_b:
            x = y @ pre[:j + 1]
            if np.linalg.norm(b - mat @ x) <= KRYLOV_RTOL * norm_b:
                return x
            if h == 0.0:
                return None
        basis[j + 1] = w / h
    return None


class FixedPattern:
    """A square sparse matrix whose nonzero pattern is fixed by a list of
    slots, stored in the order its LU takes.

    Slot i holds entry (rows[i], cols[i]); slots that share an entry are
    summed.  The pattern is the union of the slots, built once as a CSC
    matrix of the symmetrically permuted unknowns: entry (i, j) of the
    stored matrix is entry (order[i], order[j]) of the slots' matrix.
    order is the pattern's Cuthill-McKee order when that is narrow enough
    for the band LU (band holds its (kl, ku) then), else SuperLU's
    LU_OPTIONS order (band is None).  fill writes new slot values into the
    matrix, and factor is the one way to factor it; solver gives a Newton
    solve the function that solves its corrections.
    """

    def __init__(self, rows, cols, shape: tuple):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        n = shape[0]
        pattern = sp.csc_matrix((np.ones(len(rows)), (rows, cols)),
                                shape=shape)
        self.order = _band_order(pattern, BAND_WORK)
        banded = self.order is not None
        if not banded:
            self.order = _lu_order(pattern)
        rank = np.argsort(self.order)
        keys, self._pos = np.unique(rank[cols] * n + rank[rows],
                                    return_inverse=True)
        indptr = np.zeros(shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=shape[1]),
                  out=indptr[1:])
        self.matrix = sp.csc_matrix(
            (np.zeros(len(keys)), keys % n, indptr), shape=shape)
        self.band = None
        if banded:
            i, j = keys % n, keys // n
            kl, ku = int((i - j).max()), int((j - i).max())
            self.band = (kl, ku)
            # each stored entry's place in the C-ordered transpose of the
            # band storage BandLU takes
            self._band_index = j * (2 * kl + ku + 1) + kl + ku + i - j

    def fill(self, vals) -> sp.csc_matrix:
        """The stored (permuted) matrix with entries summed from one value
        per slot, in slot order; the next call overwrites it."""
        mat = self.matrix
        mat.data[:] = np.bincount(self._pos, weights=vals,
                                  minlength=mat.nnz)
        return mat

    def factor(self, mat: sp.csc_matrix, splu):
        """LU of mat, a matrix of this pattern as fill returns it, in the
        stored order: the BandLU on a band pattern, else the LU splu
        (scipy's, or a caller's wrapper of it) makes.  A singular matrix
        raises RuntimeError on either route."""
        if self.band is None:
            return splu(mat, permc_spec="NATURAL",
                        options={"SymmetricMode": True})
        kl, ku = self.band
        ab = np.zeros((mat.shape[1], 2 * kl + ku + 1))
        ab.reshape(-1)[self._band_index] = mat.data
        return BandLU(ab.T, kl, ku)

    def solver(self, splu):
        """solve(mat, b) -> x for one Newton solve on this pattern, mat as
        fill returns it, b and x in the unknowns' own order.  It factors
        by factor with splu and, on SuperLU's route with KRYLOV_ITER > 0,
        keeps one LU for GMRES as long as it lives (module docstring)."""
        order, kept = self.order, None

        def solve(mat, b):
            nonlocal kept
            b = b[order]
            x = None if kept is None else krylov_solve(mat, b, kept,
                                                       KRYLOV_ITER)
            if x is None:
                kept = None                 # dropped before the next LU
                lu = self.factor(mat, splu)
                if self.band is None and KRYLOV_ITER:
                    kept = lu
                x = lu.solve(b)
            out = np.empty(len(b))
            out[order] = x
            return out

        return solve


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
    copies holds, per cell, the number of the cube's cells it stands for:
    1 on the full cube, 2^d on the corner, 2^d times the orbit size on
    the wedge.  Block means, volumes and wall fluxes count every cell
    copies times.
    """

    grid: GradedGrid1D
    diffusion_matrix: sp.csr_matrix
    boundary_weights: np.ndarray
    copies: np.ndarray

    def mean(self, field) -> float:
        """Volume average of a cell field over the whole cube."""
        weights = self.copies * self.volumes
        return float(np.dot(weights, field) / weights.sum())


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
                     copies=np.full(m, 2 ** dimension if corner else 1))


def permutation_orbits(n: int, dimension: int):
    """The orbits of the index tuples (i_1, .., i_d), 0 <= i < n, numbered
    in C order, under the permutations of the axes: (reps, orbit), reps the
    increasing numbers of the tuples with i_1 >= .. >= i_d, one per orbit,
    and orbit[c] the position in reps of tuple c's representative."""
    shape = (n,) * dimension
    tuples = np.indices(shape).reshape(dimension, -1)
    rep = np.ravel_multi_index(np.sort(tuples, axis=0)[::-1], shape)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    return reps, np.searchsorted(reps, rep)


def wedge_mesh(grid: GradedGrid1D, dimension: int) -> BlockMesh:
    """The corner mesh of tensor_mesh(grid, dimension, corner=True) reduced
    to its permutation wedge, one cell per orbit of its cells (module
    docstring).  Each kept cell keeps its volume, wall weight and row of
    the corner's diffusion matrix, whose columns are summed by orbit:
    D_w = D[reps] C, C mapping each corner cell to its orbit.  In 1d it
    is the corner."""
    corner = tensor_mesh(grid, dimension, corner=True)
    reps, orbit = permutation_orbits(grid.n_cells // 2, dimension)
    d = corner.diffusion_matrix[reps].tocoo()
    mat = sp.csr_matrix((d.data, (d.row, orbit[d.col])),
                        shape=(len(reps), len(reps)))
    return BlockMesh(dimension=dimension, volumes=corner.volumes[reps],
                     centers=corner.centers[reps], grid=grid,
                     diffusion_matrix=mat,
                     boundary_weights=corner.boundary_weights[reps],
                     copies=corner.copies[reps] * np.bincount(orbit))
