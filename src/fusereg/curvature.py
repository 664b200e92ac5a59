"""Curvature regularization of displacement fields.

The regularizer is S(u) = 0.5 * sum_components |L u|^2 with L the 5-point
Laplacian whose boundary rows are dropped (linear extrapolation ghosts).
Its gradient is the bilaplacian B = L^T L, a symmetric positive
semi-definite operator whose kernel contains every affine field, so rigid
and affine motions pass through the regularizer for free.

Its reflecting-boundary counterpart is diagonal in the 2-D DCT, which
makes :func:`neumann_solve` the one curvature inverse of every solver: the
semi-implicit direction, the l-BFGS and trust-region seed and the
Gauss-Newton preconditioner.  No solver factorizes anything;
:class:`SemiImplicitOperator` is the exact sparse operator, kept as the
reference the DCT solve approximates near the border.

Everything here works in pixel units: the physical grid spacing only
rescales alpha, and keeping the operator dimensionless makes parameter
values transferable across pyramid levels.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.fft import dctn, idctn

from .errors import ParameterError
from .grid import (
    DisplacementField,
    GridGeometry,
    laplacian_adjoint_values,
    laplacian_values,
)


def curvature_energy(u: DisplacementField) -> float:
    """0.5 * (|L u_x|^2 + |L u_y|^2) in pixel units."""
    lx = laplacian_values(u.u_x)
    ly = laplacian_values(u.u_y)
    return 0.5 * float(np.sum(lx * lx) + np.sum(ly * ly))


def bilaplacian(u: DisplacementField) -> DisplacementField:
    """Gradient of :func:`curvature_energy`: B u = L^T (L u) per component."""
    bx = laplacian_adjoint_values(laplacian_values(u.u_x))
    by = laplacian_adjoint_values(laplacian_values(u.u_y))
    return DisplacementField(u.geometry, bx, by)


# one slot is one level's constant
@functools.lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")
def _neumann_factor(h: int, w: int, c: float) -> np.ndarray:
    """Read-only eigenvalue factor 1 / (1 + c lam^2) of :func:`neumann_solve`.

    A c lam^2 past the float range gives the factor's limit, 0, and the
    mean (lam = 0) passes unchanged, also at c = inf.
    """
    ly = -4.0 * np.sin(np.pi * np.arange(h) / (2.0 * h)) ** 2
    lx = -4.0 * np.sin(np.pi * np.arange(w) / (2.0 * w)) ** 2
    lam = ly[:, None] + lx[None, :]
    factor = 1.0 / (1.0 + c * lam * lam)
    factor[0, 0] = 1.0
    factor.flags.writeable = False
    return factor


def neumann_solve(values: np.ndarray, c: float) -> np.ndarray:
    """Solve (I + c * B_N) x = values for each (h, w) plane of ``values``.

    B_N = L_N^T L_N is the bilaplacian of the reflecting-boundary Laplacian
    L_N, whose 1-D second difference has the end rows [-1, 1] and [1, -1]
    in place of dropped ones.  The orthonormal 2-D DCT-II diagonalizes it
    with eigenvalues (lx + ly)^2, l = -4 sin^2(pi k / 2n).
    B_N equals :func:`bilaplacian` two or more pixels from the border, so
    the solve is an O(n log n) preconditioner for the dropped-boundary
    operator, not its inverse.
    """
    coeffs = dctn(values, type=2, norm="ortho", axes=(-2, -1))
    coeffs *= _neumann_factor(*values.shape[-2:], c)
    return idctn(coeffs, type=2, norm="ortho", axes=(-2, -1), overwrite_x=True)


def _second_difference_matrix(n: int):
    """1-D [1, -2, 1] matrix with the two boundary rows zeroed."""
    import scipy.sparse as sp

    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    d = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    d[0, :] = 0.0
    d[n - 1, :] = 0.0
    return d.tocsr()


def laplacian_matrix(geometry: GridGeometry):
    """Sparse matrix form of the dropped-boundary Laplacian on the raveled grid."""
    import scipy.sparse as sp

    h, w = geometry.shape
    dx = _second_difference_matrix(w)
    dy = _second_difference_matrix(h)
    return (sp.kron(sp.identity(h), dx) + sp.kron(dy, sp.identity(w))).tocsr()


class SemiImplicitOperator:
    """The exact implicit-step operator (I + dt * alpha * B) with a cached
    sparse LU; no solver uses it (they take :func:`neumann_solve`), it is
    the dropped-boundary reference.

    B = L^T L is assembled sparse once per grid; the operator is symmetric
    positive definite (eigenvalues >= 1), so its LU factorization needs no
    pivoting and can use a minimum-degree ordering of its symmetric
    pattern, applied to rows and columns alike (about 40% fewer factor
    non-zeros than the default column ordering at 128x128).  :meth:`solve`
    runs both displacement components through the factors as one
    two-column right-hand side.
    """

    def __init__(self, geometry: GridGeometry, alpha: float, dt: float):
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ParameterError("alpha must be finite and positive")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ParameterError("dt must be finite and positive")
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        self.geometry = geometry
        self.alpha = float(alpha)
        self.dt = float(dt)
        lap = laplacian_matrix(geometry)
        n = geometry.width * geometry.height
        self.matrix = (sp.identity(n) + (self.dt * self.alpha) * (lap.T @ lap)).tocsc()
        self._lu = splu(
            self.matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )

    def apply(self, u: DisplacementField) -> DisplacementField:
        """Forward application (I + dt * alpha * B) u."""
        shape = self.geometry.shape
        ax = (self.matrix @ u.u_x.ravel()).reshape(shape)
        ay = (self.matrix @ u.u_y.ravel()).reshape(shape)
        return DisplacementField(u.geometry, ax, ay)

    def solve(self, rhs: DisplacementField) -> DisplacementField:
        """Solve (I + dt * alpha * B) u = rhs."""
        shape = self.geometry.shape
        sol = self._lu.solve(np.column_stack((rhs.u_x.ravel(), rhs.u_y.ravel())))
        return DisplacementField(
            rhs.geometry, sol[:, 0].reshape(shape), sol[:, 1].reshape(shape)
        )
