import math

import numpy as np
import pytest

from wplap.geometry import (BallSpec, Domain, UnsupportedDomainError, build_mesh,
                            distance_to_boundary, domain_measure, unit_ball_volume)


# -- domains ---------------------------------------------------------------

def test_interval_validation():
    d = Domain.interval(0.0, 1.0)
    assert d.dim == 1
    assert d.diameter == 1.0
    with pytest.raises(ValueError):
        Domain.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain.interval(2.0, 1.0)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == 2.0
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-15
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_domain_measure():
    assert domain_measure(Domain.interval(0, 1)) == 1.0
    assert domain_measure(Domain.box(0, 2, 0, 3)) == 6.0


def test_distance_to_boundary_interval():
    d = Domain.interval(0, 1)
    assert distance_to_boundary(d, 0.3) == pytest.approx(0.3)
    assert distance_to_boundary(d, 0.5) == pytest.approx(0.5)
    assert distance_to_boundary(d, 1.0) == pytest.approx(0.0)


def test_distance_to_boundary_box():
    d = Domain.box(0, 1, 0, 1)
    assert distance_to_boundary(d, [0.2, 0.9]) == pytest.approx(0.1)
    # vectorized form
    pts = np.array([[0.5, 0.5], [0.1, 0.5]])
    np.testing.assert_allclose(distance_to_boundary(d, pts), [0.5, 0.1])


def test_distance_zero_iff_boundary():
    d = Domain.interval(0, 2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 2.0, 200)
    dist = distance_to_boundary(d, xs[:, None])
    on_bdry = np.minimum(xs, 2.0 - xs) <= 1e-12 * d.diameter
    np.testing.assert_array_equal(dist <= 1e-12 * d.diameter, on_bdry)


# -- balls -----------------------------------------------------------------

def test_ballspec_validation():
    dom = Domain.interval(0, 1)
    b = BallSpec.create([0.5], 0.1, 0.2, dom)
    assert b.r1 == 0.1 and b.r2 == 0.2
    with pytest.raises(ValueError):
        BallSpec.create([0.5], 0.2, 0.1, dom)  # r1 >= r2
    with pytest.raises(ValueError):
        BallSpec.create([0.5], 0.1, 0.5, dom)  # touches the boundary
    with pytest.raises(ValueError):
        BallSpec.create([0.9], 0.1, 0.2, dom)  # sticks out


# -- meshes ----------------------------------------------------------------

def test_mesh_interval_quarters():
    mesh = build_mesh(Domain.interval(0, 1), 0.25)
    assert mesh.num_cells == 4
    np.testing.assert_allclose(np.sort(mesh.vertices[:, 0]),
                               [0.0, 0.25, 0.5, 0.75, 1.0])
    bd = mesh.boundary_vertices
    assert set(mesh.vertices[bd, 0]) == {0.0, 1.0}


def test_mesh_interval_256():
    mesh = build_mesh(Domain.interval(0, 1), 1.0 / 256)
    assert mesh.num_cells == 256
    assert mesh.max_cell_size == pytest.approx(1.0 / 256)


def test_mesh_size_bound():
    for h in (0.3, 0.11, 0.07):
        mesh = build_mesh(Domain.interval(0, 1), h)
        assert mesh.max_cell_size <= h + 1e-15


def test_mesh_breakpoints_are_vertices():
    mesh = build_mesh(Domain.interval(0, 1), 0.25, breakpoints=(0.3, 0.7))
    xs = mesh.vertices[:, 0]
    assert np.min(np.abs(xs - 0.3)) < 1e-14
    assert np.min(np.abs(xs - 0.7)) < 1e-14


def test_mesh_cell_measures_sum():
    for dom, h in ((Domain.interval(0, 1), 0.13), (Domain.box(0, 1, 0, 1), 0.5),
                   (Domain.box(0, 2, 0, 3), 0.4)):
        mesh = build_mesh(dom, h)
        assert np.sum(mesh.cell_measures) == pytest.approx(
            domain_measure(dom), rel=1e-10)


def test_mesh_square_triangulation():
    mesh = build_mesh(Domain.box(0, 1, 0, 1), 0.5)
    assert mesh.cells.shape[1] == 3
    assert np.sum(mesh.cell_measures) == pytest.approx(1.0, abs=1e-12)


def test_mesh_boundary_flags_on_boundary():
    mesh = build_mesh(Domain.box(0, 1, 0, 1), 0.3)
    d = distance_to_boundary(mesh.domain, mesh.vertices)
    np.testing.assert_array_equal(mesh.boundary_vertices,
                                  d <= 1e-12 * mesh.domain.diameter)


def test_graded_mesh_refines_near_boundary():
    flat = build_mesh(Domain.interval(0, 1), 0.1)
    graded = build_mesh(Domain.interval(0, 1), 0.1, grading_depth=3)
    # grading adds vertices, and the first cell shrinks geometrically
    assert graded.num_vertices > flat.num_vertices
    xs = np.sort(graded.vertices[:, 0])
    assert xs[1] - xs[0] < 0.1 / 4


def test_unsupported_dimensions():
    with pytest.raises(UnsupportedDomainError):
        Domain("ball", (0.0, 0.0, 1.0), 2)  # only intervals and boxes
    with pytest.raises(UnsupportedDomainError):
        Domain("box", (0, 1, 0, 1, 0, 1), 3)  # N=3 rejected at construction


def test_quadrature_weights_sum_to_measure():
    mesh = build_mesh(Domain.interval(0, 1), 0.2, breakpoints=(0.37,))
    _, wq, _ = mesh.quadrature()
    assert np.sum(wq) == pytest.approx(1.0, rel=1e-12)
