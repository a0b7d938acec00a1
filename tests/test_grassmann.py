import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit import grassmann
from jigglekit.errors import RankDeficient
from jigglekit.grassmann import (
    ORTHONORMAL_TOL,
    AffineFlat,
    Plane,
    _flat_distances,
    _transverse,
    affine_span,
    d_proj,
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


def test_plane_accepts_exactly_the_bases_allclose_accepts():
    """Plane's orthonormality check is np.allclose(gram, I, atol=1e-10)
    written out: the same verdict on Gram matrices 1e-10 and 1e-5 off the
    identity, and on bases holding NaN or +-inf."""
    rng = np.random.default_rng(21)
    scales = [0.0, 3e-11, 1e-10, 3e-10, 1e-6, 5e-6, 1e-5, 2e-5, 1.0]
    accepted = rejected = 0
    for _ in range(3000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        b = np.linalg.qr(rng.normal(size=(n, n)))[0][:k]
        b = b + rng.choice(scales) * rng.uniform(-1, 1, size=b.shape)
        if rng.random() < 0.2:
            b[rng.integers(k), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        want = np.allclose(b @ b.T, np.eye(k), atol=ORTHONORMAL_TOL)
        try:
            Plane(b)
        except RankDeficient as exc:
            assert str(exc) == "basis rows are not orthonormal; use plane_from_spanning"
            assert not want
            rejected += 1
        else:
            assert want
            accepted += 1
    assert accepted > 500 and rejected > 500


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


def is_transverse_planes(v, w):
    """dim(V + W) = min(v + w, n), from a stack of one V."""
    return bool(_transverse(v.basis[None], w)[0])


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
    # one plane per row: each row against its own
    assert _transverse(np.stack([exy.basis, exy.basis]), [ez, e1]).tolist() == [True, False]


def test_is_transverse_planes_is_a_stack_of_one():
    for v, w in [(line(0.0), line(0.4)), (line(0.0), line(math.pi)),
                 (Plane(np.eye(3)[:2]), Plane(np.eye(3)[2:])),
                 (Plane(np.eye(3)[:2]), Plane(np.eye(3)[:1]))]:
        assert grassmann.is_transverse_planes(v, w) is is_transverse_planes(v, w)


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


def test_stacked_flat_distances_match_the_scalar_call_bit_for_bit():
    """point_flat_distance is _flat_distances of a stack of one, so this
    checks that a pair gets the same bits alone as in a stack of up to 70
    points and 4 flats.  The vertex search scores its candidates in stacks
    whose size depends on the workload; if a numpy upgrade makes the
    stacked products round differently per stack size, this fails instead
    of bundles changing."""
    rng = np.random.default_rng(15)
    for _ in range(400):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n))
        s, t = int(rng.integers(1, 70)), int(rng.integers(1, 5))
        scale = 10.0 ** rng.uniform(-6, 2)
        points = rng.normal(size=(s, n)) * scale
        flats = [AffineFlat(rng.normal(size=n) * scale,
                            plane_from_spanning(rng.normal(size=(k, n))) if k else None)
                 for _ in range(t)]
        dirs = np.stack([f.direction.basis for f in flats]) if k else None
        got = _flat_distances(points, np.stack([f.base for f in flats]), dirs)
        want = [[point_flat_distance(p, f) for f in flats] for p in points]
        assert got.tolist() == want


def test_wide_margins_make_no_rank_svd(monkeypatch):
    """When every row's margin proves it transverse, the rank test has no
    row left and runs no SVD; with one row in a plane it runs one."""
    v = Plane(np.array([[1.0, 0.0, 0.0]]))
    bases = np.array([[[0.0, 1.0, 0.0]], [[0.0, 0.6, 0.8]]])
    sizes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: sizes.append(len(a))
                        or svd(a, *args, **kw))
    transverse, margin = _transverse(bases, v, margins=True)
    assert transverse.tolist() == [True, True] and sizes == [2]
    sizes.clear()
    transverse, _ = _transverse(np.concatenate([bases, v.basis[None]]), v, margins=True)
    assert transverse.tolist() == [True, True, False] and sizes == [3, 1]
