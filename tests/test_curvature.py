"""Curvature regularizer and the semi-implicit operator."""

import numpy as np
import pytest

from fusereg.curvature import (
    SemiImplicitOperator,
    bilaplacian,
    curvature_energy,
    laplacian_matrix,
)
from fusereg.errors import ParameterError
from fusereg.grid import (
    DisplacementField,
    GridGeometry,
    laplacian_values,
)


def affine_field(geometry, a=0.3, b=-0.2, c=1.5, d=0.1, e=0.4, f=-2.0):
    xs, ys = np.meshgrid(
        np.arange(float(geometry.width)), np.arange(float(geometry.height))
    )
    return DisplacementField(geometry, a * xs + b * ys + c, d * xs + e * ys + f)


def random_field(geometry, rng):
    return DisplacementField(
        geometry, rng.normal(size=geometry.shape), rng.normal(size=geometry.shape)
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
    u = DisplacementField(geom_small, xs * xs, np.zeros(geom_small.shape))
    assert curvature_energy(u) > 0.0


def test_bilaplacian_is_energy_gradient(geom16, rng):
    u = random_field(geom16, rng)
    g = bilaplacian(u).as_vector()
    d = rng.normal(size=g.shape)
    h = 1e-6
    up = DisplacementField.from_vector(geom16, u.as_vector() + h * d)
    dn = DisplacementField.from_vector(geom16, u.as_vector() - h * d)
    fd = (curvature_energy(up) - curvature_energy(dn)) / (2.0 * h)
    assert float(np.dot(g, d)) == pytest.approx(fd, rel=1e-5)


def test_bilaplacian_self_adjoint(geom16, rng):
    u = random_field(geom16, rng)
    v = random_field(geom16, rng)
    lhs = float(np.dot(bilaplacian(u).as_vector(), v.as_vector()))
    rhs = float(np.dot(u.as_vector(), bilaplacian(v).as_vector()))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bilaplacian_positive_semidefinite(geom16, rng):
    for _ in range(5):
        u = random_field(geom16, rng)
        quad = float(np.dot(bilaplacian(u).as_vector(), u.as_vector()))
        assert quad >= -1e-12
        assert quad == pytest.approx(2.0 * curvature_energy(u), rel=1e-10)


def test_laplacian_matrix_matches_stencil(geom_small, rng):
    vals = rng.normal(size=geom_small.shape)
    lap = laplacian_matrix(geom_small)
    got = (lap @ vals.ravel()).reshape(geom_small.shape)
    want = laplacian_values(vals, 1.0, 1.0)
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
    res = np.linalg.norm(back.as_vector() - rhs.as_vector())
    assert res / np.linalg.norm(rhs.as_vector()) < 1e-8


@pytest.mark.parametrize("width,height", [(16, 16), (40, 24)])
def test_operator_solves_components_independently(width, height, rng):
    g = GridGeometry(width, height)
    op = SemiImplicitOperator(g, alpha=50.0, dt=1.0)
    rhs = random_field(g, rng)
    both = op.solve(rhs)
    zero = np.zeros(g.shape)
    alone_x = op.solve(DisplacementField(g, rhs.u_x, zero))
    alone_y = op.solve(DisplacementField(g, zero, rhs.u_y))
    np.testing.assert_allclose(both.u_x, alone_x.u_x, rtol=1e-12)
    np.testing.assert_allclose(both.u_y, alone_y.u_y, rtol=1e-12)


def test_operator_matches_explicit_formula(geom16, rng):
    op = SemiImplicitOperator(geom16, alpha=3.0, dt=0.5)
    u = random_field(geom16, rng)
    got = op.apply(u).as_vector()
    want = u.as_vector() + 0.5 * 3.0 * bilaplacian(u).as_vector()
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
    assert np.linalg.norm(out.as_vector()) <= np.linalg.norm(u.as_vector()) + 1e-12


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
