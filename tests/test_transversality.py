import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit import transversality
from jigglekit.cli import box_grid, planar_rotor, unit_square_grid
from jigglekit.errors import NotTransverse, PreconditionViolated, QueryNotInComplex
from jigglekit.grassmann import Plane, plane_from_spanning, project_along
from jigglekit.transversality import (
    Distribution,
    eps_margin,
    general_position,
    join_transverse_by_projection,
    probe_points,
    semitrans_margin,
    simplex_plane,
    simplex_transverse,
    stratified_transverse,
    transfer_margins,
    transversality_report,
)

HORIZONTAL = Plane(np.array([[1.0, 0.0]]))


def segment(theta, length=1.0):
    return np.array([[0.0, 0.0],
                     [length * math.cos(theta), length * math.sin(theta)]])


def random_plane(rng, n, k):
    while True:
        try:
            return plane_from_spanning(rng.standard_normal((k, n)))
        except Exception:
            continue


def test_simplex_transverse_segments():
    assert not simplex_transverse(segment(0.0), HORIZONTAL)
    assert simplex_transverse(segment(0.4), HORIZONTAL)
    assert simplex_transverse(segment(math.pi / 2), HORIZONTAL)


def test_vertices_are_always_transverse():
    assert simplex_transverse(np.array([[3.0, 7.0]]), HORIZONTAL)


def test_eps_margin_is_sine_of_tilt():
    for theta in (0.3, 0.7, 1.0, math.pi / 2):
        assert eps_margin(segment(theta), HORIZONTAL) == pytest.approx(
            abs(math.sin(theta)), abs=1e-12)


def test_eps_margin_scale_invariant():
    assert eps_margin(segment(0.5, length=100.0), HORIZONTAL) == pytest.approx(
        eps_margin(segment(0.5, length=0.01), HORIZONTAL), rel=1e-9)


def test_eps_margin_rejects_oversized_simplices():
    tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 1.0]])
    with pytest.raises(PreconditionViolated):
        eps_margin(tri, HORIZONTAL)  # dim 2 > n - k = 1


def test_eps_margin_requires_transversality():
    with pytest.raises(NotTransverse):
        eps_margin(segment(0.0), HORIZONTAL)


def test_semitrans_margin_is_quotient_distance():
    """Against a direct least-squares distance in the quotient space."""
    rng = np.random.default_rng(8112)
    for _ in range(20):
        v = random_plane(rng, 3, 1)
        base = rng.standard_normal((2, 3))
        while not simplex_transverse(base, v):
            base = rng.standard_normal((2, 3))
        p = rng.standard_normal(3)
        pp = project_along(v, p)
        pb = project_along(v, base)
        dirs = (pb[1:] - pb[0]).T
        t, *_ = np.linalg.lstsq(dirs, pp - pb[0], rcond=None)
        want = float(np.linalg.norm(pp - pb[0] - dirs @ t))
        assert semitrans_margin(p, base, v) == pytest.approx(want, abs=1e-9)


def test_semitrans_margin_requires_transverse_base():
    base = segment(0.0)  # horizontal edge, parallel to the field
    with pytest.raises(PreconditionViolated):
        semitrans_margin(np.array([0.5, 1.0]), base, HORIZONTAL)


def test_semitrans_margin_rejects_oversized_joins():
    v = Plane(np.array([[1.0, 0.0, 0.0]]))
    base = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(PreconditionViolated):
        semitrans_margin(np.array([1.0, 1.0, 1.0]), base, v)


def test_join_criteria_match_rank_oracle():
    """Both quotient criteria agree with a raw rank computation."""
    rng = np.random.default_rng(60902)
    checked = 0
    for n in (3, 4):
        for _ in range(200):
            k = int(rng.integers(1, n - 1))
            v = random_plane(rng, n, k)
            base_dim = int(rng.integers(0, n - k - 1))
            base = rng.standard_normal((base_dim + 1, n))
            if not simplex_transverse(base, v):
                continue
            p = rng.standard_normal(n)
            got = join_transverse_by_projection(p, base, v)
            join = np.vstack([p[None, :], base])
            edges = join[1:] - join[0]
            degenerate = np.linalg.matrix_rank(edges, tol=1e-9) < len(edges)
            stacked = np.vstack([edges, v.basis])
            want = (not degenerate and
                    np.linalg.matrix_rank(stacked, tol=1e-9) ==
                    min(len(edges) + v.rank, n))
            assert got == want
            checked += 1
    assert checked > 250


def test_stratified_transverse_catches_bad_faces():
    plane = HORIZONTAL
    good = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
    assert stratified_transverse(good, plane)
    # one horizontal edge poisons the whole simplex
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]])
    assert not stratified_transverse(bad, plane)


def test_general_position_constant_field():
    xi = Distribution.constant(HORIZONTAL)
    ok, margin = general_position(np.array([[0.0, 0.0], [1.0, 0.5]]), xi)
    assert ok
    assert margin == pytest.approx(0.5 / math.hypot(1.0, 0.5), abs=1e-12)
    ok_bad, margin_bad = general_position(np.array([[0.0, 0.0], [1.0, 0.0]]), xi)
    assert not ok_bad
    assert margin_bad == 0.0


def test_general_position_samples_varying_fields():
    """A field aligned with the edge only at interior points is caught by the
    off-vertex probes (both endpoints look transverse)."""
    seg = np.array([[0.0, 0.0], [1.0, 0.05]])
    along = seg[1] - seg[0]
    along = along / np.linalg.norm(along)

    def at(p):
        if 0.25 <= p[0] <= 0.75:
            return Plane(along[None, :])
        return Plane(np.array([[0.0, 1.0]]))

    xi = Distribution(2, 1, "builtin", at)
    ok_ends = all(simplex_transverse(seg, at(seg[i])) for i in (0, 1))
    assert ok_ends
    ok, _ = general_position(seg, xi, sample_depth=2)
    assert not ok


def test_transfer_margins_arithmetic():
    assert transfer_margins("fol_change", gamma=0.5, beta=0.1, r=2.0) == pytest.approx(0.3)
    assert transfer_margins("simplex_change", gamma=0.5, beta=0.1, r=2.0) == pytest.approx(0.1)
    assert transfer_margins("fol_change", gamma=0.1, beta=1.0, r=2.0) == 0.0  # clamps


def test_transfer_margins_shape_kinds():
    from jigglekit.complexes import shape_stats
    stats = shape_stats(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    zeta = transfer_margins("zeta", delta=0.4, shape=stats, c=1.0)
    assert zeta == pytest.approx(min(0.4, stats.rmin, 0.4 / (stats.lam * stats.rmax)))
    eps = transfer_margins("eps_from_zeta", delta=0.4, shape=stats, c=1.0)
    assert eps == pytest.approx(0.4 / stats.rmax)
    with pytest.raises(ValueError):
        transfer_margins("zeta", delta=0.4)
    with pytest.raises(ValueError):
        transfer_margins("nonsense")


def test_report_covers_every_face_and_flags_failures():
    K = unit_square_grid(1)
    xi = Distribution.constant(HORIZONTAL)
    report = transversality_report(K, K.vertices, xi)
    # 4 vertices + 5 edges + 2 triangles
    assert len(report.records) == 11
    assert not report.passed  # the horizontal edges fail
    bad = [r for r in report.records if not r.transverse]
    assert all(r.dim >= 1 for r in bad)
    payload = report.to_json()
    assert payload["pass"] is False
    assert {"records", "min_eps_margin", "min_semitrans_margin",
            "margin_tol", "sampled", "pass"} <= set(payload)


def test_report_certificates_mark_records():
    K = unit_square_grid(1)
    tilted = Distribution.constant(Plane(np.array(
        [[math.cos(0.3), math.sin(0.3)]])))
    certs = {(0, 1): 0.123}
    report = transversality_report(K, K.vertices, tilted, certificates=certs)
    rec = next(r for r in report.records if r.simplex == (0, 1))
    assert rec.certified and rec.semitrans_margin == pytest.approx(0.123)
    assert report.min_semitrans_margin == pytest.approx(0.123)
    assert report.passed


def test_report_judges_a_shared_face_against_each_field():
    K = unit_square_grid(1)  # the tops (0, 1, 3) and (0, 2, 3) share (0, 3)
    a, b = (Plane(np.array([[math.cos(t), math.sin(t)]])) for t in (0.3, 0.6))
    fields = {(0, 1, 3): Distribution.constant(a),
              (0, 2, 3): Distribution.constant(b)}
    report = transversality_report(K, K.vertices, fields)
    assert len(report.records) == 11 and report.passed
    shared = next(r for r in report.records if r.simplex == (0, 3))
    diagonal = K.vertices[[0, 3]]
    assert shared.eps_margin == min(eps_margin(diagonal, a), eps_margin(diagonal, b))
    # a field tangent to the diagonal fails it and its top, not the other top
    tangent = Distribution.constant(Plane(np.array([[1.0, 1.0]]) / math.sqrt(2.0)))
    report = transversality_report(K, K.vertices, {**fields, (0, 2, 3): tangent})
    assert [r.simplex for r in report.records if not r.transverse] == \
        [(0, 3), (0, 2, 3)]
    # only the faces of the examined tops get records
    assert len(transversality_report(K, K.vertices, {(0, 2, 3): tangent}).records) == 7
    with pytest.raises(QueryNotInComplex):
        transversality_report(K, K.vertices, {(0, 1, 2): tangent})


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, math.pi / 2), st.floats(-3.0, 3.0))
def test_eps_margin_rotation_invariance(theta, rot):
    """Rotating the segment and the field together keeps the margin."""
    c, s = math.cos(rot), math.sin(rot)
    R = np.array([[c, -s], [s, c]])
    seg = segment(theta)
    v = HORIZONTAL
    seg_r = seg @ R.T
    v_r = Plane((v.basis @ R.T))
    assert eps_margin(seg_r, v_r) == pytest.approx(eps_margin(seg, v), rel=1e-9)


# ---------------------------------------------------------------------------
# the n-k cutoff against the all-faces loop
# ---------------------------------------------------------------------------

def reference_stratified(pts, v, tol=1e-9):
    """Every face of every dimension tested, as before the n-k cutoff."""
    return all(simplex_transverse(pts[list(face)], v, tol)
               for d in range(1, pts.shape[0])
               for face in itertools.combinations(range(pts.shape[0]), d + 1))


def reference_general_position(pts, xi, sample_depth=3, tol=1e-9):
    """The all-faces loop of general position, margins over faces <= n-k."""
    free = xi.ambient_dim - xi.rank
    margin = np.inf
    for x in probe_points(pts, xi, sample_depth):
        plane = xi.plane_at(x)
        for d in range(1, pts.shape[0]):
            for face in itertools.combinations(range(pts.shape[0]), d + 1):
                fpts = pts[list(face)]
                if not simplex_transverse(fpts, plane, tol):
                    return False, 0.0
                if d <= free:
                    margin = min(margin, eps_margin(fpts, plane))
    return True, float(margin)


def _random_field(rng, n, k, varying):
    base = random_plane(rng, n, k)
    if not varying:
        return Distribution.constant(base)
    tilt = 0.4 * rng.standard_normal((k, n))
    return Distribution(
        n, k, "builtin",
        lambda p: plane_from_spanning(base.basis + np.sin(p.sum()) * tilt))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 3), st.data())
def test_cutoff_at_n_minus_k_matches_all_faces(n, data):
    k = data.draw(st.integers(1, n), label="rank")
    m = data.draw(st.integers(1, n), label="simplex dim")
    varying = data.draw(st.booleans(), label="varying")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    xi = _random_field(rng, n, k, varying)
    pts = rng.standard_normal((m + 1, n))
    if data.draw(st.booleans(), label="edge along the field"):
        # an edge inside the plane at the first vertex: no longer transverse
        v0 = xi.plane_at(pts[0])
        pts[1] = pts[0] + v0.basis[0]
    assert general_position(pts, xi) == reference_general_position(pts, xi)
    v = xi.plane_at(pts[0])
    assert stratified_transverse(pts, v) == reference_stratified(pts, v)


def test_rank_n_field_fails_every_positive_dimension():
    xi = Distribution.constant(Plane(np.eye(2)))
    assert general_position(np.array([[0.0, 0.0]]), xi) == (True, np.inf)
    for pts in (segment(0.5), np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])):
        assert general_position(pts, xi) == (False, 0.0)
        assert not stratified_transverse(pts, xi.plane_at(pts[0]))


# ---------------------------------------------------------------------------
# the report computes each shared value once
# ---------------------------------------------------------------------------

def reference_report_records(complex_, images, fields, sample_depth):
    """(simplex, transverse, eps_margin) per record, calling the public
    ``general_position`` once per record and field."""
    face_fields: dict = {}
    for top, dist in fields.items():
        for r in range(1, len(top) + 1):
            for face in itertools.combinations(top, r):
                face_fields.setdefault(face, {})[dist] = None
    out = []
    for s in sorted(face_fields, key=lambda t: (len(t), t)):
        verdicts = [general_position(images[list(s)], d, sample_depth)
                    for d in face_fields[s]]
        ok = all(v for v, _ in verdicts)
        out.append((s, ok, min(m for _, m in verdicts) if ok else 0.0))
    return out


def _report_field(rng, n, k, kind):
    if kind == "axis":
        # along the lattice axes: the axis edges of lattice images fail it
        return Distribution.constant(Plane(np.eye(n)[:k]))
    return _random_field(rng, n, k, varying=kind == "builtin")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["square", "box"]), st.data())
def test_report_records_equal_one_general_position_call_each(shape, data):
    complex_ = unit_square_grid(1) if shape == "square" else box_grid(1)
    n = complex_.ambient_dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    noise = data.draw(st.sampled_from([0.0, 0.0, 1e-3, 0.2]), label="noise")
    images = complex_.vertices + noise * rng.standard_normal(complex_.vertices.shape)
    ranks = st.integers(1, n - 1)
    kinds = st.sampled_from(["constant", "axis", "builtin"])
    if data.draw(st.booleans(), label="per-top fields"):
        # each of the two fields has its own rank: they share one memo
        two = [_report_field(rng, n, data.draw(ranks), data.draw(kinds))
               for _ in range(2)]
        xi = {top: two[i % 2] for i, top in enumerate(complex_.top_simplices)}
        fields = xi
    else:
        xi = _report_field(rng, n, data.draw(ranks), data.draw(kinds))
        fields = dict.fromkeys(complex_.top_simplices, xi)
    depth = data.draw(st.integers(0, 3), label="depth")
    report = transversality_report(complex_, images, xi, sample_depth=depth)
    got = [(r.simplex, r.transverse, r.eps_margin) for r in report.records]
    assert got == reference_report_records(complex_, images, fields, depth)


def test_report_evaluates_each_probe_and_face_plane_once(monkeypatch):
    complex_ = box_grid(1)
    rotor = planar_rotor(0.3)
    points, faces = [], []

    def evaluate(p):
        points.append(p.tobytes())
        return rotor.plane_at(p)

    def face_plane(coords):
        faces.append(coords.tobytes())
        return simplex_plane(coords)

    xi = Distribution(3, 1, "builtin", evaluate, name="counted rotor")
    monkeypatch.setattr(transversality, "simplex_plane", face_plane)
    transversality_report(complex_, complex_.vertices, xi)
    assert len(points) == len(set(points)) == 53
    assert len(faces) == len(set(faces)) == 37
