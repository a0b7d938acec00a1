import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit.errors import RankDeficient
from jigglekit.grassmann import (
    AffineFlat,
    Plane,
    affine_span,
    d_proj,
    is_transverse_planes,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)


def line(theta):
    return Plane(np.array([[math.cos(theta), math.sin(theta)]]))


def test_plane_requires_orthonormal_rows():
    with pytest.raises(RankDeficient):
        Plane(np.array([[1.0, 1.0]]))
    with pytest.raises(RankDeficient):
        Plane(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_plane_from_spanning_orthonormalizes():
    p = plane_from_spanning(np.array([[2.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
    assert p.rank == 2
    np.testing.assert_allclose(p.basis @ p.basis.T, np.eye(2), atol=1e-12)


def test_plane_from_spanning_rejects_dependent_rows():
    with pytest.raises(RankDeficient):
        plane_from_spanning(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_d_proj_is_sine_of_angle_between_lines():
    """For lines in the plane the projector distance is |sin| of the angle."""
    e1 = line(0.0)
    for theta in (0.3, 0.7, 1.0, math.pi / 2):
        np.testing.assert_allclose(d_proj(e1, line(theta)),
                                   abs(math.sin(theta)), atol=1e-12)


def test_d_proj_extremes():
    assert d_proj(line(0.2), line(0.2)) == pytest.approx(0.0, abs=1e-12)
    assert d_proj(line(0.0), line(math.pi / 2)) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_d_proj_symmetric_and_bounded(a, b):
    v, w = line(a), line(b)
    d1, d2 = d_proj(v, w), d_proj(w, v)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert -1e-12 <= d1 <= 1.0 + 1e-12


def test_transverse_planes_in_r2():
    assert is_transverse_planes(line(0.0), line(math.pi / 2))
    assert is_transverse_planes(line(0.0), line(0.4))
    assert not is_transverse_planes(line(0.0), line(0.0))
    assert not is_transverse_planes(line(0.0), line(math.pi))


def test_transverse_planes_in_r3():
    exy = Plane(np.eye(3)[:2])
    ez = Plane(np.eye(3)[2:])
    e1 = Plane(np.eye(3)[:1])
    assert is_transverse_planes(exy, ez)
    # a plane and a line inside it span only the plane
    assert not is_transverse_planes(exy, e1)


def test_project_along_kills_the_plane_directions():
    """Points differing only inside V collapse to one quotient image."""
    v = Plane(np.array([[1.0, 0.0, 0.0]]))
    pts = np.array([[3.0, 1.0, 2.0], [-7.5, 1.0, 2.0]])
    out = project_along(v, pts)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)
    assert np.linalg.norm(out[0]) == pytest.approx(math.sqrt(5.0))


def test_affine_span_of_three_points_is_their_plane():
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    flat = affine_span(pts)
    assert flat.direction.rank == 2
    assert point_flat_distance(np.array([0.3, 0.3, 1.0]), flat) == pytest.approx(0.0, abs=1e-12)
    assert point_flat_distance(np.array([0.3, 0.3, 4.0]), flat) == pytest.approx(3.0)


def test_point_flat_distance_to_a_point_flat():
    flat = AffineFlat(np.array([1.0, 2.0]), None)
    assert point_flat_distance(np.array([4.0, 6.0]), flat) == pytest.approx(5.0)


def test_point_flat_distance_to_a_line():
    flat = AffineFlat(np.zeros(2), line(0.0))
    assert point_flat_distance(np.array([10.0, 3.0]), flat) == pytest.approx(3.0)
