import math

import numpy as np
import pytest

from jigglekit.cli import unit_square_grid
from jigglekit.complexes import build_complex, crystalline_subdivide
from jigglekit.errors import DomainMismatch
from jigglekit.plmaps import (
    PLMap,
    SampledMap,
    complex_subdivides,
    distance,
    is_piecewise_embedding,
    linearize,
)


def square():
    return unit_square_grid(1)


def wavy(domain):
    """(x, y) -> (sin pi x, x y) with its analytic Jacobian."""
    return SampledMap(
        domain,
        lambda P: np.stack([np.sin(np.pi * P[:, 0]), P[:, 0] * P[:, 1]], axis=1),
        jacobian=lambda p: np.array([[np.pi * math.cos(np.pi * p[0]), 0.0],
                                     [p[1], p[0]]]),
    )


def test_identity_plmap_evaluates_to_inputs():
    sq = square()
    f = PLMap.identity(sq)
    for p in ([0.25, 0.25], [1.0, 0.0], [0.5, 0.5]):
        np.testing.assert_allclose(f.evaluate(np.array(p)), p, atol=1e-12)


def test_plmap_rejects_wrong_image_count():
    sq = square()
    with pytest.raises(DomainMismatch):
        PLMap(sq, np.zeros((3, 2)))


def test_affine_maps_linearize_exactly():
    sq = square()
    mat = np.array([[2.0, 0.3], [-0.4, 1.1]])
    aff = SampledMap(sq, lambda P: P @ mat + np.array([5.0, -1.0]))
    g, child, _ = linearize(aff, sq, 2)
    assert distance(aff, g, order=0) < 1e-12
    assert distance(aff, g, order=1) < 1e-6  # finite-difference Jacobian noise


def test_linearize_of_a_plmap_on_the_complex_is_exact():
    """Child images are the exact support combinations of the stored images,
    the same arithmetic that places the child vertices."""
    K = unit_square_grid(2)
    g, child, _ = linearize(PLMap.identity(K), K, 3)
    np.testing.assert_array_equal(g.images, child.vertices)


def test_linearization_error_frozen_value():
    sq = square()
    f = wavy(sq)
    g, child, _ = linearize(f, sq, 3)
    assert len(child.top_simplices) == 2 * 4 ** 3
    assert distance(f, g, order=0) == pytest.approx(0.017173038226717934, rel=1e-9)
    assert distance(f, g, order=1) == pytest.approx(0.6388335858930603, rel=1e-9)


def test_linearization_error_decays_like_levels():
    """C0 error drops by about 4 per level, C1 by about 2."""
    sq = square()
    f = wavy(sq)
    errs = {}
    for lv in (3, 4):
        g, _, _ = linearize(f, sq, lv)
        errs[lv] = (distance(f, g, 0), distance(f, g, 1))
    assert 3.2 < errs[3][0] / errs[4][0] < 4.8
    assert 1.6 < errs[3][1] / errs[4][1] < 2.4


def test_distance_between_identity_and_translate():
    sq = square()
    ident = PLMap.identity(sq)
    shifted = PLMap(sq, sq.vertices + np.array([0.3, -0.4]))
    assert distance(ident, shifted, order=0) == pytest.approx(0.5)
    # equal Jacobians: the derivative term adds nothing
    assert distance(ident, shifted, order=1) == pytest.approx(0.5)


def test_is_piecewise_embedding_identity_and_fold():
    sq = square()
    assert is_piecewise_embedding(PLMap.identity(sq))
    # sending (0,1) to (1,-1) folds the two triangles onto each other
    fold = PLMap(sq, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [1.0, 1.0]]))
    assert not is_piecewise_embedding(fold)


def test_is_piecewise_embedding_catches_boundary_fold():
    """A flap bent back over its neighbor shares no interior with it, but the
    map still fails to embed along the shared boundary."""
    K = build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0)],
                      [(0, 1, 2), (0, 1, 3)])
    flipped = PLMap(K, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.5]]))
    assert not is_piecewise_embedding(flipped)


def test_sampled_map_finite_difference_jacobian():
    sq = square()
    f = SampledMap(sq, lambda P: np.stack([P[:, 0] ** 2, P[:, 1]], axis=1))
    jac = f.derivative_at(np.array([0.5, 0.2]), scale=1.0)
    np.testing.assert_allclose(jac, [[1.0, 0.0], [0.0, 1.0]], atol=1e-5)


def test_sampled_map_batches_agree_with_point_evaluation():
    """A point evaluator handed a batch of as many points as it has output
    coordinates returns an array of the right shape and wrong values."""
    sq = square()
    point = SampledMap(sq, lambda p: np.array([p[0], p[1] + 0.5 * p[0] ** 2]))
    rows = SampledMap(
        sq, lambda P: np.stack([P[:, 0], P[:, 1] + 0.5 * P[:, 0] ** 2], axis=1))
    pts = np.array([[0.5, 0.0], [0.5, 1.0], [0.2, 0.7]])
    for m in (1, 2, 3):
        want = np.array([[x, y + 0.5 * x ** 2] for x, y in pts[:m]])
        np.testing.assert_allclose(point.evaluate_batch(pts[:m]), want, rtol=1e-12)
        np.testing.assert_allclose(rows.evaluate_batch(pts[:m]), want, rtol=1e-12)
    assert point.target_dim == rows.target_dim == 2


def test_complex_subdivides_accepts_refinements_only():
    sq = square()
    child, _ = crystalline_subdivide(sq, 2)
    assert complex_subdivides(sq, child)
    other = build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert not complex_subdivides(sq, other)
