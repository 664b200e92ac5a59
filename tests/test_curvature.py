"""Curvature regularizer and the semi-implicit operator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dctn, idctn

import fusereg
from fusereg import curvature
from fusereg.curvature import (
    SemiImplicitOperator,
    bilaplacian,
    curvature_energy,
    laplacian_matrix,
    neumann_solve,
)
from fusereg.errors import ParameterError
from fusereg.grid import (
    DisplacementField,
    GridGeometry,
    laplacian_values,
)

from conftest import field_from_vector, field_vector


def affine_field(geometry, a=0.3, b=-0.2, c=1.5, d=0.1, e=0.4, f=-2.0):
    xs, ys = np.meshgrid(
        np.arange(float(geometry.width)), np.arange(float(geometry.height))
    )
    return DisplacementField(geometry, (a * xs + b * ys + c, d * xs + e * ys + f))


def random_field(geometry, rng):
    return DisplacementField(
        geometry, (rng.normal(size=geometry.shape), rng.normal(size=geometry.shape))
    )


def test_energy_zero_on_affine_fields(geom_small):
    u = affine_field(geom_small)
    assert curvature_energy(u) < 1e-24
    b = bilaplacian(u)
    np.testing.assert_allclose(b.u_x, 0.0, atol=1e-12)
    np.testing.assert_allclose(b.u_y, 0.0, atol=1e-12)


def test_energy_positive_on_curved_field(geom_small):
    xs, ys = np.meshgrid(
        np.arange(float(geom_small.width)), np.arange(float(geom_small.height))
    )
    u = DisplacementField(geom_small, (xs * xs, np.zeros(geom_small.shape)))
    assert curvature_energy(u) > 0.0


def test_bilaplacian_is_energy_gradient(geom16, rng):
    u = random_field(geom16, rng)
    g = field_vector(bilaplacian(u))
    d = rng.normal(size=g.shape)
    h = 1e-6
    up = field_from_vector(geom16, field_vector(u) + h * d)
    dn = field_from_vector(geom16, field_vector(u) - h * d)
    fd = (curvature_energy(up) - curvature_energy(dn)) / (2.0 * h)
    assert float(np.dot(g, d)) == pytest.approx(fd, rel=1e-5)


def test_bilaplacian_self_adjoint(geom16, rng):
    u = random_field(geom16, rng)
    v = random_field(geom16, rng)
    lhs = float(np.dot(field_vector(bilaplacian(u)), field_vector(v)))
    rhs = float(np.dot(field_vector(u), field_vector(bilaplacian(v))))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bilaplacian_positive_semidefinite(geom16, rng):
    for _ in range(5):
        u = random_field(geom16, rng)
        quad = float(np.dot(field_vector(bilaplacian(u)), field_vector(u)))
        assert quad >= -1e-12
        assert quad == pytest.approx(2.0 * curvature_energy(u), rel=1e-10)


def test_laplacian_matrix_matches_stencil(geom_small, rng):
    vals = rng.normal(size=geom_small.shape)
    lap = laplacian_matrix(geom_small)
    got = (lap @ vals.ravel()).reshape(geom_small.shape)
    want = laplacian_values(vals)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_operator_eigenvalue_floor():
    # I + dt a B has spectrum >= 1, so solving never amplifies
    g = GridGeometry(12, 12)
    op = SemiImplicitOperator(g, alpha=50.0, dt=0.25)
    dense = op.matrix.toarray()
    w = np.linalg.eigvalsh(dense)
    assert w.min() >= 1.0 - 1e-9


def test_operator_solve_then_apply_roundtrip(rng):
    g = GridGeometry(64, 64)
    op = SemiImplicitOperator(g, alpha=5000.0, dt=0.25)
    rhs = random_field(g, rng)
    u = op.solve(rhs)
    back = op.apply(u)
    res = np.linalg.norm(field_vector(back) - field_vector(rhs))
    assert res / np.linalg.norm(field_vector(rhs)) < 1e-8


@pytest.mark.parametrize("width,height", [(16, 16), (40, 24)])
def test_operator_solves_components_independently(width, height, rng):
    g = GridGeometry(width, height)
    op = SemiImplicitOperator(g, alpha=50.0, dt=1.0)
    rhs = random_field(g, rng)
    both = op.solve(rhs)
    zero = np.zeros(g.shape)
    alone_x = op.solve(DisplacementField(g, (rhs.u_x, zero)))
    alone_y = op.solve(DisplacementField(g, (zero, rhs.u_y)))
    np.testing.assert_allclose(both.u_x, alone_x.u_x, rtol=1e-12)
    np.testing.assert_allclose(both.u_y, alone_y.u_y, rtol=1e-12)


def test_operator_matches_explicit_formula(geom16, rng):
    op = SemiImplicitOperator(geom16, alpha=3.0, dt=0.5)
    u = random_field(geom16, rng)
    got = field_vector(op.apply(u))
    want = field_vector(u) + 0.5 * 3.0 * field_vector(bilaplacian(u))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_operator_passes_affine_through(geom_small):
    op = SemiImplicitOperator(geom_small, alpha=1000.0, dt=1.0)
    u = affine_field(geom_small)
    out = op.solve(u)
    np.testing.assert_allclose(out.u_x, u.u_x, atol=1e-10)
    np.testing.assert_allclose(out.u_y, u.u_y, atol=1e-10)


def test_operator_contracts_rough_fields(geom16, rng):
    op = SemiImplicitOperator(geom16, alpha=100.0, dt=1.0)
    u = random_field(geom16, rng)
    out = op.solve(u)
    assert curvature_energy(out) < curvature_energy(u)
    assert np.linalg.norm(field_vector(out)) <= np.linalg.norm(field_vector(u)) + 1e-12


def test_operator_parameter_validation(geom16):
    with pytest.raises(ParameterError):
        SemiImplicitOperator(geom16, alpha=0.0, dt=1.0)
    with pytest.raises(ParameterError):
        SemiImplicitOperator(geom16, alpha=1.0, dt=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            SemiImplicitOperator(geom16, alpha=bad, dt=1.0)
        with pytest.raises(ParameterError):
            SemiImplicitOperator(geom16, alpha=1.0, dt=bad)


# ---------------------------------------------------------------------------
# reflecting-boundary (DCT) preconditioner


def neumann_bilaplacian_matrix(height, width):
    """Dense B_N = L_N^T L_N, L_N built from the reflecting second
    difference with end rows [-1, 1] and [1, -1]."""

    def second_difference(n):
        d = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        d[0, 0] = d[-1, -1] = -1.0
        return d

    lap = np.kron(np.eye(height), second_difference(width)) + np.kron(
        second_difference(height), np.eye(width)
    )
    return lap.T @ lap


@pytest.mark.parametrize("height,width", [(7, 5), (12, 9)])
@pytest.mark.parametrize("c", [0.01, 1.0, 50.0])
def test_neumann_solve_inverts_dense_operator(height, width, c, rng):
    dense = np.eye(height * width) + c * neumann_bilaplacian_matrix(height, width)
    v = rng.normal(size=(2, height, width))
    got = neumann_solve(v, c)
    want = np.stack([np.linalg.solve(dense, plane.ravel()).reshape(height, width) for plane in v])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    # a single plane solves the same as inside a stack
    np.testing.assert_allclose(neumann_solve(v[1], c), got[1], rtol=1e-12, atol=1e-15)


def test_neumann_solve_is_symmetric_positive_definite():
    # the solve applied to every unit plane gives its dense matrix
    height, width, c = 12, 9, 50.0
    n = height * width
    inverse = neumann_solve(np.eye(n).reshape(n, height, width), c).reshape(n, n)
    np.testing.assert_allclose(inverse, inverse.T, atol=1e-15)
    eig = np.linalg.eigvalsh(0.5 * (inverse + inverse.T))
    assert eig.min() > 0.0
    assert eig.max() <= 1.0 + 1e-12


def test_neumann_solve_symmetric_on_random_fields(rng):
    u = rng.normal(size=(2, 20, 24))
    v = rng.normal(size=(2, 20, 24))
    lhs = float(np.sum(neumann_solve(u, 5000.0) * v))
    rhs = float(np.sum(u * neumann_solve(v, 5000.0)))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert float(np.sum(u * neumann_solve(u, 5000.0))) > 0.0


def test_neumann_bilaplacian_matches_interior_of_bilaplacian(rng):
    height, width = 12, 9
    g = GridGeometry(width, height)
    u = random_field(g, rng)
    b_n = neumann_bilaplacian_matrix(height, width)
    want = bilaplacian(u)
    for got, ref in ((b_n @ u.u_x.ravel(), want.u_x), (b_n @ u.u_y.ravel(), want.u_y)):
        got = got.reshape(height, width)
        np.testing.assert_allclose(got[2:-2, 2:-2], ref[2:-2, 2:-2], rtol=1e-12, atol=1e-12)
        # the two boundary models differ next to the border
        assert not np.allclose(got, ref)


def _neumann_reference(values, c):
    # the solve as first written, its factor built afresh on every call
    h, w = values.shape[-2:]
    ly = -4.0 * np.sin(np.pi * np.arange(h) / (2.0 * h)) ** 2
    lx = -4.0 * np.sin(np.pi * np.arange(w) / (2.0 * w)) ** 2
    lam = ly[:, None] + lx[None, :]
    coeffs = dctn(values, type=2, norm="ortho", axes=(-2, -1))
    coeffs *= 1.0 / (1.0 + c * lam * lam)
    return idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))


def test_neumann_solve_memo_gives_the_bytes_of_a_fresh_solve(rng):
    v = rng.normal(size=(2, 20, 24))
    kept = v.copy()
    c1, c2 = 50.0, 0.37
    for c in (c1, c2, c1, c1):
        assert neumann_solve(v, c).tobytes() == _neumann_reference(v, c).tobytes()
    # another grid in between, and a single plane
    w = rng.normal(size=(9, 7))
    assert neumann_solve(w, c1).tobytes() == _neumann_reference(w, c1).tobytes()
    assert neumann_solve(v, c1).tobytes() == _neumann_reference(v, c1).tobytes()
    assert v.tobytes() == kept.tobytes()
    hits = curvature._neumann_factor.cache_info().hits
    factor = curvature._neumann_factor(20, 24, c1)
    assert curvature._neumann_factor.cache_info().hits == hits + 1
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0, 0] = 0.0


@pytest.mark.parametrize("c", [float("inf"), 1e308])
def test_neumann_solve_with_a_weight_past_the_float_range_keeps_the_mean(c, rng):
    v = rng.normal(size=(6, 5))
    np.testing.assert_allclose(neumann_solve(v, c), np.full(v.shape, v.mean()), atol=1e-12)


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # only the exact sparse reference operator needs scipy.sparse, so the
    # program starts without importing it
    src = str(Path(fusereg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fusereg.cli, fusereg.affine; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    # the reference operator still builds, importing it on demand
    op = SemiImplicitOperator(GridGeometry(6, 5), alpha=2.0, dt=0.5)
    assert op.matrix.shape == (30, 30)
