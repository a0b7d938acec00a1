import itertools

import numpy as np
import pytest

from jigglekit.errors import PreconditionViolated, StarNotTransverse
from jigglekit.grassmann import AffineFlat, Plane, affine_span
from jigglekit.perturb import (
    PerturbationRequest,
    PerturbationResult,
    avoid_flats,
    join_margins,
    perturb_vertex,
)
from jigglekit.transversality import semitrans_margin

HORIZONTAL = Plane(np.array([[1.0, 0.0]]))
VERTICAL = Plane(np.array([[0.0, 1.0]]))


def test_request_rejects_nonpositive_budget():
    with pytest.raises(PreconditionViolated):
        PerturbationRequest(point=np.zeros(2), epsilon=0.0)


def test_avoid_flats_moves_off_a_line():
    """A point sitting on the flat ends up with positive clearance."""
    flat = affine_span(np.array([[0.0, 0.0], [1.0, 0.0]]))
    p, delta = avoid_flats(np.array([0.5, 0.0]), 0.1, [flat], seed=4)
    assert delta > 0.0
    assert abs(p[1]) >= delta - 1e-12
    assert np.linalg.norm(p - [0.5, 0.0]) <= 0.1 + 1e-12


def test_avoid_flats_is_deterministic():
    flat = affine_span(np.array([[0.0, 0.0], [1.0, 1.0]]))
    a = avoid_flats(np.array([0.2, 0.2]), 0.05, [flat], seed=9)
    b = avoid_flats(np.array([0.2, 0.2]), 0.05, [flat], seed=9)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_avoid_flats_respects_constraint_flat():
    """Search pinned to the y axis, clearing a horizontal line through the
    start point in the quotient by the horizontal foliation."""
    wall = AffineFlat(np.array([0.0, 0.0]), VERTICAL)
    target = affine_span(np.array([[0.0, 1.0], [3.0, 1.0]]))
    p, delta = avoid_flats(np.array([0.0, 1.0]), 0.2, [target],
                           quotients=[HORIZONTAL], constraint_flat=wall, seed=1)
    assert p[0] == pytest.approx(0.0, abs=1e-12)
    assert delta > 0.0
    assert abs(p[1] - 1.0) >= delta - 1e-12


def test_avoid_flats_rejects_flats_that_fill_the_search_space():
    """Without a quotient, a line cannot be avoided inside a line."""
    from jigglekit.errors import InfeasibleDimensions
    line = AffineFlat(np.array([0.0, 1.0]), HORIZONTAL)
    target = affine_span(np.array([[0.3, 0.0], [0.3, 2.0]]))
    with pytest.raises(InfeasibleDimensions):
        avoid_flats(np.array([0.3, 1.0]), 0.2, [target],
                    constraint_flat=line, seed=1)


def test_perturb_vertex_keeps_the_point_when_margins_hold():
    """A star already far from every bad flat leaves the point alone."""
    star = [np.array([[2.0, 0.0]])]  # a single far-away vertex
    req = PerturbationRequest(point=np.array([0.0, 1.0]), epsilon=0.05,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=3)
    res = perturb_vertex(req)
    assert isinstance(res, PerturbationResult)
    assert res.moved == 0.0
    np.testing.assert_array_equal(res.point, [0.0, 1.0])
    assert res.achieved_delta > 0.0


def test_perturb_vertex_clears_a_join_through_the_apex():
    """The apex starts level with a base vertex; the edge join is degenerate
    in the quotient and the search must move off that flat."""
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=12)
    res = perturb_vertex(req)
    assert res.moved > 0.0
    assert res.achieved_delta > 0.0
    assert min(m for *_, m in res.certificate) >= res.achieved_delta - 1e-9
    # the join edge is no longer horizontal
    assert abs(res.point[1] - 0.5) > 1e-9


def test_perturb_vertex_certificate_covers_all_faces():
    star = [np.array([[1.0, 0.3], [0.8, 1.1]])]
    req = PerturbationRequest(point=np.array([0.1, 0.6]), epsilon=0.08,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=7)
    res = perturb_vertex(req)
    # base faces of an edge: two vertices (d=1); the edge itself (d=2) is
    # skipped in R^2 against a rank-1 field since n - k = 1
    assert len(res.certificate) == 2
    assert all(m > 0 for *_, m in res.certificate)
    assert set(res.per_dimension_margins) == {1}


def test_perturb_vertex_determinism():
    star = [np.array([[1.0, 0.5]])]
    kw = dict(point=np.array([0.0, 0.5]), epsilon=0.1,
              star_simplices=star, foliations=[HORIZONTAL], seed=12)
    a = perturb_vertex(PerturbationRequest(**kw))
    b = perturb_vertex(PerturbationRequest(**kw))
    np.testing.assert_array_equal(a.point, b.point)
    assert a.achieved_delta == b.achieved_delta


def test_perturb_vertex_rejects_nontransverse_star():
    """A horizontal base edge cannot be fixed by moving the apex."""
    star = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    req = PerturbationRequest(point=np.array([0.5, 1.0]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              seed=5)
    with pytest.raises(StarNotTransverse):
        perturb_vertex(req)


def test_perturb_vertex_constraint_flat_pins_the_search():
    wall = AffineFlat(np.array([0.0, 0.0]), VERTICAL)  # the y axis
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star, foliations=[HORIZONTAL],
                              constraint_flat=wall, seed=2)
    res = perturb_vertex(req)
    assert res.point[0] == pytest.approx(0.0, abs=1e-12)
    assert res.achieved_delta > 0.0


def test_perturb_vertex_rejects_constraint_inside_foliation():
    flat = AffineFlat(np.array([0.0, 0.5]), HORIZONTAL)
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=[np.array([[1.0, 0.2]])],
                              foliations=[HORIZONTAL],
                              constraint_flat=flat, seed=2)
    with pytest.raises(PreconditionViolated):
        perturb_vertex(req)


def test_two_foliations_are_cleared_simultaneously():
    star = [np.array([[1.0, 0.5]])]
    req = PerturbationRequest(point=np.array([0.0, 0.5]), epsilon=0.1,
                              star_simplices=star,
                              foliations=[HORIZONTAL, VERTICAL],
                              star_foliations=[(0, 1)], seed=21)
    res = perturb_vertex(req)
    d = res.point - np.array([1.0, 0.5])
    assert abs(d[0]) > 1e-9 and abs(d[1]) > 1e-9
    assert all(m > 0 for *_, m in res.certificate)
    assert len(res.certificate) == 2  # one join edge against two foliations


def test_join_margins_lists_every_join_with_its_direct_margin():
    """Two triangles sharing an edge in R^3 against a rank-1 and a rank-2
    field; one base edge runs along the rank-1 field and scores zero."""
    line = Plane(np.array([[0.0, 0.0, 1.0]]))
    sheet = Plane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    folis = [line, sheet]
    a, b = np.array([1.0, 0.2, 0.3]), np.array([0.1, 1.0, 0.7])
    stars = [np.array([a, b, [0.4, 0.3, 1.2]]),
             np.array([a, b, [0.9, 0.8, -0.5]]),
             np.array([[2.0, 0.0, 0.1], [2.0, 0.0, 1.1]])]
    star_folis = [(0, 1), (0,), (0, 1)]
    point = np.array([-0.3, -0.2, 0.05])
    joins = join_margins(point, stars, star_folis, folis)
    expected = []
    for u, v in enumerate(folis):
        cap = v.ambient_dim - v.rank
        for si, s in enumerate(stars):
            if u in star_folis[si]:
                for d in range(1, min(cap, len(s)) + 1):
                    expected.extend((u, si, idx) for idx in
                                    itertools.combinations(range(len(s)), d))
    assert [j[:3] for j in joins] == expected
    zeros = 0
    for u, si, idx, m in joins:
        try:
            direct = float(semitrans_margin(point, stars[si][list(idx)], folis[u]))
        except PreconditionViolated:
            direct, zeros = 0.0, zeros + 1
        assert m == direct
    assert zeros == 1
