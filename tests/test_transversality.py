import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigglekit import transversality
from jigglekit.cli import (
    box_grid,
    canonical_json,
    contact_like,
    planar_rotor,
    report_to_dict,
    unit_square_grid,
)
from jigglekit.complexes import SimplicialComplex, _lam, cell_radii
from jigglekit.engine import JigglingConfig, jiggle_euclidean
from jigglekit.errors import (
    DegenerateSimplex,
    PreconditionViolated,
    QueryNotInComplex,
    RankDeficient,
)
from jigglekit.grassmann import (
    Plane,
    _rank,
    _row_spaces,
    _stack,
    _transverse,
    plane_from_spanning,
    project_along,
)
from jigglekit.plmaps import PLMap
from jigglekit.transversality import (
    Distribution,
    _transverse_stack,
    barycentric_lattice,
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


def test_simplex_plane_reports_only_degeneracy_as_degenerate(monkeypatch):
    for flat in (np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                 np.array([[0.0, 0.0], [np.nan, 1.0]]),
                 np.array([[0.0, 0.0], [np.inf, 1.0]])):
        with pytest.raises(DegenerateSimplex):
            simplex_plane(flat)

    def broken(*args, **kwargs):
        raise TypeError("bug")

    # an error inside the rank computation is a bug, not a degenerate simplex
    monkeypatch.setattr(transversality, "_row_spaces", broken)
    with pytest.raises(TypeError, match="bug"):
        simplex_plane(segment(0.4))


def test_vertices_are_always_transverse():
    assert simplex_transverse(np.array([[3.0, 7.0]]), HORIZONTAL)


def eps_margin(coords, v):
    """The eps margin of one simplex of dimension 1..n-k against V, as the
    report's kernel computes it, and whether the simplex is transverse."""
    transverse, margin = _transverse(simplex_plane(coords).basis[None], v, margins=True)
    return bool(transverse[0]), float(margin[0])


def test_eps_margin_is_sine_of_tilt():
    for theta in (0.3, 0.7, 1.0, math.pi / 2):
        assert eps_margin(segment(theta), HORIZONTAL) == pytest.approx(
            (True, abs(math.sin(theta))), abs=1e-12)
        # and a simplex's general position margin is its face's
        ok, margin = general_position(segment(theta), Distribution.constant(HORIZONTAL))
        assert (ok, margin) == eps_margin(segment(theta), HORIZONTAL)


def test_eps_margin_scale_invariant():
    assert eps_margin(segment(0.5, length=100.0), HORIZONTAL)[1] == pytest.approx(
        eps_margin(segment(0.5, length=0.01), HORIZONTAL)[1], rel=1e-9)


def test_eps_margin_rejects_oversized_simplices():
    """Above n-k a simplex has no margin of its own: general position takes
    the smallest margin of its (n-k)-faces."""
    tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 1.0]])
    ok, margin = general_position(tri, Distribution.constant(HORIZONTAL))
    edges = [eps_margin(tri[list(e)], HORIZONTAL) for e in ((0, 1), (0, 2), (1, 2))]
    assert ok and all(t for t, _ in edges)
    assert margin == min(m for _, m in edges)


def test_eps_margin_requires_transversality():
    assert not eps_margin(segment(0.0), HORIZONTAL)[0]
    assert general_position(segment(0.0), Distribution.constant(HORIZONTAL)) == (False, 0.0)


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
    tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    (rmin,), (rmax,) = cell_radii(tri)
    stats = types.SimpleNamespace(rmin=rmin, rmax=rmax, lam=_lam(tri)[0])
    zeta = transfer_margins("zeta", delta=0.4, shape=stats, c=1.0)
    assert zeta == pytest.approx(min(0.4, stats.rmin, 0.4 / (stats.lam * stats.rmax)))
    eps = transfer_margins("eps_from_zeta", delta=0.4, shape=stats, c=1.0)
    assert eps == pytest.approx(0.4 / stats.rmax)
    with pytest.raises(PreconditionViolated):
        transfer_margins("zeta", delta=0.4)
    with pytest.raises(PreconditionViolated):
        transfer_margins("nonsense")


def test_report_covers_every_face_and_flags_failures():
    K = unit_square_grid(1)
    xi = Distribution.constant(HORIZONTAL)
    report = transversality_report(K, K.vertices, xi)
    # 4 vertices + 5 edges + 2 triangles
    assert len(report.records) == 11
    assert not report.passed  # the horizontal edges fail
    bad = [s for s, ok in zip(report.records, report.transverse) if not ok]
    assert bad and all(len(s) >= 2 for s in bad)
    payload = json.loads(canonical_json(report_to_dict(report)))
    assert payload["pass"] is False
    assert {"records", "min_eps_margin", "min_semitrans_margin",
            "margin_tol", "sampled", "pass"} <= set(payload)


def test_report_certificates_mark_records():
    K = unit_square_grid(1)
    tilted = Distribution.constant(Plane(np.array(
        [[math.cos(0.3), math.sin(0.3)]])))
    certs = {(0, 1): 0.123}
    report = transversality_report(K, K.vertices, tilted, certificates=certs)
    records = json.loads(canonical_json(report_to_dict(report)))["records"]
    rec = next(r for r in records if r["simplex"] == [0, 1])
    assert rec["certified"] and rec["semitrans_margin"] == pytest.approx(0.123)
    assert report.semitrans_margin[report.records.index((0, 1))] == rec["semitrans_margin"]
    assert sum(r["certified"] for r in records) == 1
    assert report.min_semitrans_margin == pytest.approx(0.123)
    assert report.passed


def test_report_judges_a_shared_face_against_each_field():
    K = unit_square_grid(1)  # the tops (0, 1, 3) and (0, 2, 3) share (0, 3)
    a, b = (Plane(np.array([[math.cos(t), math.sin(t)]])) for t in (0.3, 0.6))
    fields = {(0, 1, 3): Distribution.constant(a),
              (0, 2, 3): Distribution.constant(b)}
    report = transversality_report(K, K.vertices, fields)
    assert len(report.records) == 11 and report.passed
    shared = report.eps_margin[report.records.index((0, 3))]
    diagonal = K.vertices[[0, 3]]
    assert shared == min(eps_margin(diagonal, a)[1], eps_margin(diagonal, b)[1])
    # a field tangent to the diagonal fails it and its top, not the other top
    tangent = Distribution.constant(Plane(np.array([[1.0, 1.0]]) / math.sqrt(2.0)))
    report = transversality_report(K, K.vertices, {**fields, (0, 2, 3): tangent})
    assert [s for s, ok in zip(report.records, report.transverse) if not ok] == \
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
    assert eps_margin(seg_r, v_r)[1] == pytest.approx(eps_margin(seg, v)[1], rel=1e-9)


# ---------------------------------------------------------------------------
# the n-k cutoff against the all-faces loop
# ---------------------------------------------------------------------------

def reference_stratified(pts, v, tol=1e-9):
    """Every face of every dimension tested, as before the n-k cutoff."""
    return all(simplex_transverse(pts[list(face)], v, tol)
               for d in range(1, pts.shape[0])
               for face in itertools.combinations(range(pts.shape[0]), d + 1))


def all_faces_general_position(pts, xi, sample_depth=3, tol=1e-9):
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
                    margin = min(margin, eps_margin(fpts, plane)[1])
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
    assert general_position(pts, xi) == all_faces_general_position(pts, xi)
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

_MISSING = object()


def _memoized(memo, key, compute, *args):
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


def reference_face_basis(f):
    """The scalar face basis before the stacked kernel: one SVD per face."""
    edges = f[1:] - f[0]
    if not np.isfinite(edges).all():
        raise DegenerateSimplex("simplex coordinates are not finite")
    bases, ranks = _row_spaces(edges[None])
    if ranks[0] < bases.shape[1]:
        raise DegenerateSimplex(
            f"simplex directions are dependent (rank {ranks[0]} of {bases.shape[1]})")
    return bases[0]


def reference_face_margin(gr, plane, tol):
    """One face against one plane as a stack of one, as before the stacked
    kernel: the rank test of the face basis over the plane's, and sigma_min
    of the face basis with its plane component removed (None when the
    face is not transverse)."""
    d, n = gr.shape
    both = np.vstack([gr, plane.basis])[None]
    sv = np.linalg.svd(both, compute_uv=False)
    if _rank(sv, tol)[0] != min(d + plane.rank, n):
        return None
    rejected = gr[None] - (gr[None] @ plane.basis.T) @ plane.basis
    return float(np.linalg.svd(rejected, compute_uv=False)[0, -1])


def reference_general_position(pts, xi, sample_depth=3, tol=1e-9, memo=None):
    """The per-record, per-probe, per-face loop that ``general_position``
    and the report ran before the stacked kernel; ``memo`` is shared by
    the records of one report."""
    memo = {} if memo is None else memo
    free = xi.ambient_dim - xi.rank
    if free == 0 and pts.shape[0] > 1:
        return False, 0.0
    margin = np.inf
    for x in probe_points(pts, xi, sample_depth):
        plane = _memoized(memo, ("field", xi, x.tobytes()), xi.plane_at, x)
        basis = (plane.basis.shape, plane.basis.tobytes())
        for d in range(1, min(pts.shape[0] - 1, free) + 1):
            for face in itertools.combinations(range(pts.shape[0]), d + 1):
                f = pts[list(face)]
                fkey = f.tobytes()
                m = memo.get(("margin", fkey, basis), _MISSING)
                if m is _MISSING:
                    gr = _memoized(memo, ("face", fkey), reference_face_basis, f)
                    m = memo[("margin", fkey, basis)] = \
                        reference_face_margin(gr, plane, tol)
                if m is None:
                    return False, 0.0
                margin = min(margin, m)
    return True, float(margin)


def report_faces(fields):
    face_fields: dict = {}
    for top, dist in fields.items():
        for r in range(1, len(top) + 1):
            for face in itertools.combinations(top, r):
                face_fields.setdefault(face, {})[dist] = None
    return sorted(face_fields, key=lambda t: (len(t), t)), face_fields


def reference_report_records(complex_, images, fields, sample_depth):
    """(simplex, transverse, eps_margin) per record from the loop before
    the stacked kernel: ``reference_general_position`` once per record and
    field, with one memo for the whole report."""
    records, face_fields = report_faces(fields)
    memo: dict = {}
    out = []
    for s in records:
        verdicts = [reference_general_position(np.asarray(images[list(s)], dtype=float),
                                               d, sample_depth, memo=memo)
                    for d in face_fields[s]]
        ok = all(v for v, _ in verdicts)
        out.append((s, ok, min(m for _, m in verdicts) if ok else 0.0))
    return out


def report_records(complex_, images, xi, sample_depth=3):
    report = transversality_report(complex_, images, xi, sample_depth=sample_depth)
    return list(zip(report.records, report.transverse.tolist(), report.eps_margin.tolist()))


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
    want = reference_report_records(complex_, images, fields, depth)
    assert report_records(complex_, images, xi, depth) == want
    # and general_position, a stack of one of the same kernel, per record
    records, face_fields = report_faces(fields)
    for s, (_, ok, eps) in zip(records, want):
        verdicts = [general_position(images[list(s)], d, depth) for d in face_fields[s]]
        assert (all(v for v, _ in verdicts),
                min(m for _, m in verdicts) if ok else 0.0) == (ok, eps)


def test_report_evaluates_each_probe_and_face_plane_once(monkeypatch):
    complex_ = box_grid(1)
    rotor = planar_rotor(0.3)
    points, faces = [], []

    def evaluate(p):
        points.append(p.tobytes())
        return rotor.plane_at(p)

    face_bases = transversality._face_bases

    def counted_face_bases(stack):
        faces.extend(f.tobytes() for f in stack)
        return face_bases(stack)

    xi = Distribution(3, 1, "builtin", evaluate, name="counted rotor")
    monkeypatch.setattr(transversality, "_face_bases", counted_face_bases)
    transversality_report(complex_, complex_.vertices, xi)
    assert len(points) == len(set(points)) == 53
    assert len(faces) == len(set(faces)) == 37


def test_stacked_rank_test_gives_the_scalar_verdicts():
    """simplex_plane is a stack of one of the _row_spaces kernel, and
    _transverse takes a stack of one, so this checks that a simplex gets
    the same verdict alone as in a stack of up to 8, on generic,
    non-transverse, flat and non-finite simplices."""
    rng = np.random.default_rng(15)
    for _ in range(150):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        v = random_plane(rng, n, k)
        d = int(rng.integers(1, n - k + 1))
        stack = rng.normal(size=(int(rng.integers(1, 9)), d + 1, n))
        for s in stack[1::3]:        # edges inside V: not transverse
            s[1:] = s[0] + rng.normal(size=(d, k)) @ v.basis
        for s in stack[2::4]:        # repeated vertex: flat
            s[-1] = s[0]
        if rng.uniform() < 0.2:
            stack[0, 0, 0] = np.nan
        tol = 10.0 ** rng.uniform(-12, -3)
        transverse, degenerate = _transverse_stack(stack, v, tol)
        for s, ok, flat in zip(stack, transverse, degenerate):
            try:
                want = _transverse(simplex_plane(s).basis[None], v, tol)[0]
            except DegenerateSimplex:
                assert flat and not ok
                continue
            assert not flat and ok == want


def faces_in_order(s, v):
    """A simplex above n-k judged by a loop over its (n-k)-faces in order,
    each a stack of one: ``(transverse, degenerate)``."""
    free = v.ambient_dim - v.rank
    if free == 0:
        return False, False
    for idx in itertools.combinations(range(len(s)), free + 1):
        try:
            basis = simplex_plane(s[list(idx)]).basis
        except DegenerateSimplex:
            return False, True
        if _transverse(basis[None], v)[0]:
            return True, False
    return False, False


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transverse_stack_judges_a_large_simplex_by_its_faces(n):
    """Simplices of n-k+2 to n+1 vertices against planes of every rank k,
    in C and Fortran order, one plane for the stack and one per simplex:
    generic ones, ones with an edge along the plane, with a flat face, inside
    a translate of the plane, and with a flat face after an edge along it.
    _transverse_stack gives the verdicts of a loop over each simplex's
    (n-k)-faces, and with n-k = 0 nothing is transverse."""
    rng = np.random.default_rng(40 + n)
    verdicts = set()
    for trial in range(24):
        k = 1 + trial % n
        c_order = trial % 4 < 2
        planes = [random_plane(rng, n, k) for _ in range(int(rng.integers(1, 9)))]
        if c_order:
            planes = [Plane(np.ascontiguousarray(v.basis)) for v in planes]
        v = planes[0].basis
        stack = rng.normal(size=(len(planes), int(rng.integers(n - k + 2, n + 2)), n))
        for s in stack[1::5]:
            s[1] = s[0] + v[0]
        for s in stack[2::5]:
            s[-1] = 2 * s[1] - s[0] if trial % 3 else s[0]
        for s in stack[3::5]:
            s[1:] = s[0] + rng.normal(size=(len(s) - 1, k)) @ v
        for s in stack[4::5]:
            s[1], s[-1] = s[0] + v[0], s[0]
        got = _transverse_stack(stack, planes[0])
        want = [faces_in_order(s, planes[0]) for s in stack]
        assert list(zip(*map(np.ndarray.tolist, got))) == want
        verdicts.update((k == n, *w) for w in want)
        got = _transverse_stack(stack, _stack([v.basis for v in planes], c_order))
        want = [faces_in_order(s, v) for s, v in zip(stack, planes)]
        assert list(zip(*map(np.ndarray.tolist, got))) == want
    # every outcome occurs, and a full-rank plane passes nothing
    assert verdicts == {(False, True, False), (False, False, False), (False, False, True),
                        (True, False, False)}


# ---------------------------------------------------------------------------
# the stacked report against the loop before it: fixed cases, error order
# ---------------------------------------------------------------------------

def f_ordered_case(rank, seed):
    """``box_grid(1)`` against a constant field of ``rank`` as the
    hypothesis test above draws it at ``seed`` without noise.  A rank-2
    basis from ``plane_from_spanning`` is F-ordered, and so is the basis of
    each triangle, which a rank-1 field tests: copying either into C order
    moves the last bits of some record margins at seeds 3 and 1."""
    complex_ = box_grid(1)
    rng = np.random.default_rng(seed)
    images = complex_.vertices + 0.0 * rng.standard_normal(complex_.vertices.shape)
    xi = _report_field(rng, 3, rank, "constant")
    assert xi.plane_at(images[0]).basis.flags.f_contiguous
    return complex_, images, xi


def twisted_planes(p):
    """A rank-2 field on R^3 that turns with the point."""
    a, b = math.sin(p[0] + 2.0 * p[2]), math.cos(p[1] - p[2])
    return plane_from_spanning(np.array([[1.0, a, 0.3], [b, 1.0, -0.5]]))


@pytest.mark.parametrize("case", ["f-ordered plane", "f-ordered faces", "two orders",
                                  "rank-2 builtin", "box-2"])
def test_report_and_general_position_equal_the_loop_on_fixed_cases(case, jiggled_meshes):
    if case.startswith("f-ordered"):
        complex_, images, xi = f_ordered_case(*((2, 3) if case.endswith("plane") else (1, 1)))
    elif case == "two orders":
        # an F-ordered and a C-ordered rank-2 field share the margin stacks
        complex_, images, tilted = f_ordered_case(2, 0)
        axis = _report_field(None, 3, 2, "axis")
        xi = {top: (tilted, axis)[i % 2] for i, top in enumerate(complex_.top_simplices)}
    elif case == "rank-2 builtin":
        complex_ = box_grid(1)
        images = complex_.vertices + 0.05 * np.random.default_rng(4).standard_normal(
            complex_.vertices.shape)
        xi = Distribution(3, 2, "builtin", twisted_planes, name="twisted")
    else:
        complex_, images = jiggled_meshes["box-2"]
        xi = Distribution.constant(Plane(np.eye(3)[:1]))
    fields = xi if isinstance(xi, dict) else dict.fromkeys(complex_.top_simplices, xi)
    want = reference_report_records(complex_, images, fields, 3)
    assert report_records(complex_, images, xi) == want
    assert sum(ok for _, ok, _ in want) > len(want) // 2
    face_fields = report_faces(fields)[1]
    for s, ok, eps in want[::7]:
        if len(face_fields[s]) == 1:
            assert general_position(images[list(s)], *face_fields[s]) == (ok, eps)


def outcome(run):
    """``("ok", value)`` or ``(error type, message)``."""
    try:
        return "ok", run()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def test_coincident_images_raise_the_loops_degenerate_simplex():
    complex_ = box_grid(1)
    rotor = planar_rotor(0.3)
    for a, b in ((0, 1), (5, 7), (7, 0)):
        images = complex_.vertices.copy()
        images[b] = images[a]
        fields = dict.fromkeys(complex_.top_simplices, rotor)
        want = outcome(lambda: reference_report_records(complex_, images, fields, 3))
        assert want[0] is DegenerateSimplex
        assert outcome(lambda: report_records(complex_, images, rotor)) == want
        shared = next(s for s in complex_.top_simplices if a in s and b in s)
        assert outcome(lambda: general_position(images[list(shared)], rotor)) == \
            outcome(lambda: reference_general_position(images[list(shared)], rotor))
    far = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, np.inf, 0.0]])
    vertical = Distribution.constant(Plane(np.array([[0.0, 0.0, 1.0]])))
    with np.errstate(invalid="ignore"):
        assert outcome(lambda: general_position(far, vertical)) == \
            outcome(lambda: reference_general_position(far, vertical)) == \
            (DegenerateSimplex, "simplex coordinates are not finite")


def test_a_failing_face_ahead_of_a_degenerate_one_raises_nothing():
    # three collinear points: the edges are fine, the triangle is flat
    line = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    along = Distribution.constant(plane_from_spanning([[1.0, 1.0, 0.0]]))
    across = Distribution.constant(Plane(np.array([[0.0, 0.0, 1.0]])))
    assert general_position(line, along) == reference_general_position(line, along) \
        == (False, 0.0)
    assert outcome(lambda: general_position(line, across)) == \
        outcome(lambda: reference_general_position(line, across)) == \
        (DegenerateSimplex, "simplex directions are dependent (rank 1 of 2)")
    complex_ = box_grid(1)
    top = complex_.top_simplices[0]
    images = complex_.vertices.copy()
    images[list(top)] = np.vstack([line, [[0.3, -0.7, 0.5]]])
    fields = {top: along}     # the other tops would meet the line's points
    want = reference_report_records(complex_, images, fields, 3)
    assert report_records(complex_, images, fields) == want
    assert not next(ok for s, ok, _ in want if s == top[:3])


def test_an_evaluator_is_not_called_past_the_first_failing_face():
    """The horizontal edges of ``unit_square_grid(1)`` fail at their first
    probe, a vertex; a field that raises on their open segments is never
    evaluated there, so the report records failures and raises nothing."""
    complex_ = unit_square_grid(1)
    calls = []

    def planes(p):
        calls.append(p.tobytes())
        if p[1] in (0.0, 1.0) and 0.0 < p[0] < 1.0:
            raise ValueError(f"evaluated on a horizontal edge at {p.tolist()}")
        return Plane(np.array([[1.0, 0.0]]))

    xi = Distribution(2, 1, "builtin", planes, name="trap")
    fields = dict.fromkeys(complex_.top_simplices, xi)
    want = reference_report_records(complex_, complex_.vertices, fields, 3)
    calls.clear()
    assert report_records(complex_, complex_.vertices, xi) == want
    assert len(calls) == len(set(calls)) and [ok for _, ok, _ in want].count(False) == 4
    assert general_position(complex_.vertices[[0, 1]], xi) == (False, 0.0)


def test_field_errors_come_from_the_earliest_record():
    """A field that raises at a few random probe points, with the point in
    the message: the report raises what the loop raises, or equals it."""
    rng = np.random.default_rng(19)
    complex_ = box_grid(1)
    raised = 0
    for _ in range(30):
        images = complex_.vertices + 0.1 * rng.standard_normal(complex_.vertices.shape)
        if rng.uniform() < 0.3:
            images[rng.integers(8)] = images[rng.integers(8)]
        rotor = planar_rotor(float(rng.uniform(0.1, 2.0)))
        top = complex_.top_simplices[int(rng.integers(len(complex_.top_simplices)))]
        probes = probe_points(images[list(top)], rotor, 3)
        traps = {p.tobytes() for p in probes[rng.choice(len(probes), 3)]}

        def planes(p, rotor=rotor, traps=traps):
            if p.tobytes() in traps:
                raise ValueError(f"trap at {p.tolist()}")
            return rotor.plane_at(p)

        xi = Distribution(3, 1, "builtin", planes, name="traps")
        fields = dict.fromkeys(complex_.top_simplices, xi)
        want = outcome(lambda: reference_report_records(complex_, images, fields, 3))
        assert outcome(lambda: report_records(complex_, images, xi)) == want
        raised += want[0] != "ok"
    assert raised >= 10


def test_a_record_meets_its_fields_in_the_order_of_their_first_tops():
    """A vertex lies in a top of field B and a later top of field A, while A
    first appears on an earlier top without it.  Both fields raise at the
    vertex: the loop judges it against B first, so B's error is raised."""
    complex_ = unit_square_grid(2)
    first = complex_.top_simplices[0]
    v = next(u for u in range(complex_.num_vertices)
             if u not in first and sum(u in t for t in complex_.top_simplices) >= 2)
    holding = [t for t in complex_.top_simplices if v in t]
    trap = complex_.vertices[v].tobytes()

    def field(name):
        def at(p):
            if p.tobytes() == trap:
                raise ValueError(f"field {name}")
            return Plane(np.array([[0.6, 0.8]]))
        return Distribution(2, 1, "builtin", at, name=name)

    a, b = field("A"), field("B")
    fields = {first: a, holding[0]: b, holding[1]: a}
    want = outcome(lambda: reference_report_records(complex_, complex_.vertices, fields, 3))
    assert want == (ValueError, "field B")
    assert outcome(lambda: report_records(complex_, complex_.vertices, fields)) == want


def test_a_degenerate_record_goes_before_a_later_field_error_in_one_wave():
    """The first probe of an edge is its last vertex, 0 * v2 + 1 * v3,
    which is NaN where v2 is infinite: a point that no vertex record has
    evaluated.  The edge (2, 3) reaches it in the first wave, after the
    flat edge (0, 1), so the loop raises DegenerateSimplex first."""
    complex_ = unit_square_grid(1)
    images = complex_.vertices.copy()
    images[1] = images[0]
    images[2] = [np.inf, 1.0]
    with np.errstate(invalid="ignore"):    # the probes 0 * inf
        trap = probe_points(images[[2, 3]], planar_rotor(0.3), 3)[0].tobytes()
    assert trap not in {p.tobytes() for p in images}

    def planes(p):
        if p.tobytes() == trap:
            raise ValueError("trap")
        return Plane(np.array([[0.6, 0.8]]))

    xi = Distribution(2, 1, "builtin", planes, name="trap")
    fields = dict.fromkeys(complex_.top_simplices, xi)
    with np.errstate(invalid="ignore"):
        want = outcome(lambda: reference_report_records(complex_, images, fields, 3))
        got = outcome(lambda: report_records(complex_, images, xi))
    assert want == (DegenerateSimplex, "simplex directions are dependent (rank 0 of 1)")
    assert got == want


# ---------------------------------------------------------------------------
# the loops of general_position calls, now one kernel call each
# ---------------------------------------------------------------------------

def loop_of_general_positions(coords, fields, depth, stop):
    """What the engine's and the cli's loops did: one ``general_position``
    call per simplex, stopping at the first failure with ``stop``."""
    ok, margin = [], []
    for i, pts in enumerate(coords):
        good, m = general_position(pts, fields if isinstance(fields, Distribution)
                                   else fields[i], depth)
        ok.append(good)
        margin.append(m)
        if stop and not good:
            break
    return ok, margin


@pytest.mark.parametrize("stop", [False, True])
def test_general_position_each_is_the_loop_of_calls(stop):
    """Random faces of a perturbed box, some flat, against a mix of fields,
    one of which raises at a few probes: the one kernel call raises what
    the loop raises, or judges each simplex the loop reaches as it does."""
    rng = np.random.default_rng(29)
    complex_ = box_grid(1)
    sims = [s for s in complex_.all_simplices() if len(s) >= 2]
    results = set()
    for _ in range(40):
        # on the lattice the axis edges fail the axis fields
        noise = rng.choice([0.0, 0.1])
        images = complex_.vertices + noise * rng.standard_normal(complex_.vertices.shape)
        if rng.uniform() < 0.3:
            images[rng.integers(8)] = images[rng.integers(8)]
        picked = [sims[i] for i in rng.permutation(len(sims))[:int(rng.integers(1, 30))]]
        coords = [images[list(s)] for s in picked]
        rotor = planar_rotor(float(rng.uniform(0.1, 2.0)))
        probes = probe_points(coords[-1], rotor, 3)
        traps = {p.tobytes() for p in probes[rng.choice(len(probes), 2)]}

        def planes(p, rotor=rotor, traps=traps):
            if p.tobytes() in traps:
                raise ValueError(f"trap at {p.tolist()}")
            return rotor.plane_at(p)

        kinds = [rotor, Distribution(3, 1, "builtin", planes, name="traps"),
                 Distribution.constant(Plane(np.eye(3)[:1])),
                 Distribution.constant(Plane(np.eye(3)[:2]))]
        fields = [kinds[i] for i in rng.integers(len(kinds), size=len(coords))]
        if rng.uniform() < 0.3:
            fields = kinds[0]
        want = outcome(lambda: loop_of_general_positions(coords, fields, 3, stop))
        got = outcome(lambda: transversality._general_position_each(coords, fields, 3, stop))
        if want[0] != "ok":
            assert got == want
            results.add("raised")
            continue
        (ok, margin), (got_ok, got_margin) = want[1], got[1]
        assert got_ok[:len(ok)].tolist() == ok
        assert np.array(margin).tobytes() == got_margin[:len(margin)].tobytes()
        results.add("stopped" if len(ok) < len(coords) else "all")
    assert results == ({"raised", "stopped", "all"} if stop else {"raised", "all"})


# ---------------------------------------------------------------------------
# probe waves judged in passes
# ---------------------------------------------------------------------------

# A triangle in R^2 with a vertex at the origin, so that its probes on the
# edges through v0 have the bytes of those edges' probes.  Its report's
# waves meet new probes at 0 (the vertices), 1 and 2 (the edges' inner
# probes) and 5 (the triangle's centre), so it judges them in the passes
# {0}, {1}, {2, 3, 4} and {5, ..., 9}.  The triangle's probes 4 and 7 are
# (v0 + 2 v2) / 3 and (2 v0 + v2) / 3, the inner probes of its edge (0, 2),
# and its probe 8 is (2 v0 + v1) / 3, an inner probe of its edge (0, 1).
PASS_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.25], [0.25, 1.0]])
PASS_PROBES = barycentric_lattice(3, 3) @ PASS_TRIANGLE
ALONG_01 = Plane(np.array([[1.0, 0.25]]) / math.hypot(1.0, 0.25))


def pass_field(along=(), raising=()):
    """A line field that turns slowly with the point, but runs along the
    triangle's edge (0, 1) at the probes ``along`` and fails at the probes
    ``raising``; it logs the bytes of every point it is evaluated at."""
    along = {p.tobytes() for p in along}
    raising = {p.tobytes() for p in raising}
    calls = []

    def planes(p):
        calls.append(p.tobytes())
        if p.tobytes() in raising:
            raise ValueError(f"trap at {p.tolist()}")
        if p.tobytes() in along:
            return ALONG_01
        angle = 0.1 * (p[0] + 2.0 * p[1])
        return Plane(np.array([[math.cos(angle), math.sin(angle)]]))

    return Distribution(2, 1, "builtin", planes, name="pass trap"), calls


def counted_transverse(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return _transverse(*args, **kwargs)

    monkeypatch.setattr(transversality, "_transverse", counted)
    return calls


@pytest.mark.parametrize("trap, passes", [(None, 4), (4, 3), (7, 4)])
def test_a_record_decided_inside_a_pass_is_the_loops(monkeypatch, trap, passes):
    """The triangle's record fails at its probe 4 (inside the pass {2, 3,
    4}) or 7 (inside {5, ..., 9}), which its edge (0, 2) met first: the
    report equals the loop's records, the field is evaluated at exactly the
    probes the loop reaches (not at the centre when the triangle fails
    before it), and each pass takes one _transverse call."""
    for face, at in (((0, 2), [4, 7]), ((0, 1), [6, 8])):
        edge = barycentric_lattice(2, 3) @ PASS_TRIANGLE[list(face)]
        assert PASS_PROBES[at].tobytes() == edge[1:3].tobytes()
    complex_ = SimplicialComplex(2, PASS_TRIANGLE, [(0, 1, 2)])
    xi, calls = pass_field(along=PASS_PROBES[[] if trap is None else [trap]])
    want = reference_report_records(complex_, PASS_TRIANGLE, {(0, 1, 2): xi}, 3)
    reached = sorted(calls)
    calls.clear()
    kernel = counted_transverse(monkeypatch)
    assert report_records(complex_, PASS_TRIANGLE, xi) == want
    assert sorted(calls) == reached and len(calls) == len(set(calls))
    assert len(kernel) == passes
    assert want[-1][1] is (trap is None)
    assert (PASS_PROBES[5].tobytes() in calls) is (trap != 4)


@pytest.mark.parametrize("stop", [False, True])
def test_a_field_error_inside_a_pass_is_the_loops(stop):
    """Field errors met inside a pass, at probes an edge later in the loop
    met first, in its wave 1 or 2:

    * the triangle meets a failing probe at its wave 4, inside the pass
      {2, 3, 4}, before an edge that fails at its first probe: the loop
      raises at the triangle, even with ``stop``; without the triangle it
      raises only without ``stop``;
    * the triangle fails at its wave 7 and would meet a failing probe at
      wave 8, in the same pass {5, ..., 9}: the loop stops at the
      failure, and raises only at a later edge, and only without ``stop``.
    """
    fails_at_4, _ = pass_field(raising=PASS_PROBES[[4]])
    fails_at_8, _ = pass_field(along=PASS_PROBES[[7]], raising=PASS_PROBES[[8]])
    # along the field at its first probe, its second vertex
    end = np.array([2.0, 0.0])
    flat_edge = np.array([end - fails_at_4.plane_at(end).basis[0], end])
    edge_02, edge_01 = PASS_TRIANGLE[[0, 2]], PASS_TRIANGLE[[0, 1]]
    results = []
    for xi, coords in ((fails_at_4, [PASS_TRIANGLE, flat_edge, edge_02]),
                       (fails_at_4, [flat_edge, edge_02]),
                       (fails_at_8, [PASS_TRIANGLE, edge_02, edge_01])):
        want = outcome(lambda: loop_of_general_positions(coords, xi, 3, stop))
        got = outcome(lambda: transversality._general_position_each(coords, xi, 3, stop))
        if want[0] == "ok":
            ok, margin = want[1]
            assert got[1][0][:len(ok)].tolist() == ok
            assert np.array(margin).tobytes() == got[1][1][:len(margin)].tobytes()
        else:
            assert got == want
        results.append(want[0])
    assert results == [ValueError] + (["ok", "ok"] if stop else [ValueError, ValueError])


def test_rotor_report_judges_its_waves_in_few_passes(monkeypatch):
    """The level-1 rotor outcome's report meets new probes in 4 of its 20
    waves, so it takes at most 10 _transverse calls (39 with one pass per
    wave)."""
    rotor = planar_rotor(1e-4)
    out = jiggle_euclidean(PLMap.identity(box_grid(1)), box_grid(1), rotor,
                           JigglingConfig(gamma=0.2, level=1, seed=0))
    calls = counted_transverse(monkeypatch)
    assert transversality_report(out.out_complex, out.plmap.images, rotor).passed
    assert 0 < len(calls) <= 10


# ---------------------------------------------------------------------------
# stacked field evaluation
# ---------------------------------------------------------------------------

def per_point_rotor(omega):
    """The per-point evaluators the builtin fields had before they took
    stacks: references for their stacked evaluators."""
    def at(p):
        ang = omega * p[2]
        return Plane(np.array([[math.cos(ang), math.sin(ang), 0.0]]))
    return at


def per_point_twist(p):
    return Plane(np.array([[-math.sin(p[0]), math.cos(p[0])]]))


def per_point_contact(p):
    norm = math.hypot(1.0, p[1])
    return Plane(np.array([[1.0 / norm, 0.0, p[1] / norm], [0.0, 1.0, 0.0]]))


def per_point_samples(points, planes):
    def at(p):
        return planes[int(np.argmin(np.linalg.norm(points - p, axis=1)))]
    return at


def field_probe_points(dim):
    """The probes of a level-1 ``box_grid(1)`` report (its first ``dim``
    coordinates), then random points far and near."""
    from jigglekit.complexes import crystalline_subdivide
    cx, _ = crystalline_subdivide(box_grid(1), 1)
    rotor = planar_rotor(0.3)
    probes = [probe_points(cx.coords(s), rotor, 3) for s in cx.all_simplices()]
    rng = np.random.default_rng(23)
    extra = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    return np.concatenate(probes + [extra])[:, :dim]


def stacked_fields():
    from jigglekit.cli import contact_like, sampled_distribution, vertical_twist
    rng = np.random.default_rng(24)
    samples = rng.uniform(-1.0, 2.0, size=(12, 3))
    tilted = [plane_from_spanning(rng.standard_normal((2, 3))) for _ in samples]
    flat = [plane_from_spanning(rng.standard_normal((1, 3))) for _ in samples]
    f_plane = plane_from_spanning([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]])
    return {
        "planar_rotor": (planar_rotor(1e-4), per_point_rotor(1e-4)),
        "planar_rotor-fast": (planar_rotor(2.5), per_point_rotor(2.5)),
        "vertical_twist": (vertical_twist(), per_point_twist),
        "contact_like": (contact_like(), per_point_contact),
        "constant-f-ordered": (Distribution.constant(f_plane), lambda p: f_plane),
        "constant-line": (Distribution.constant(HORIZONTAL), lambda p: HORIZONTAL),
        "sampled-rank-2": (sampled_distribution(samples, tilted),
                           per_point_samples(samples, tilted)),
        "sampled-rank-1": (sampled_distribution(samples, flat),
                           per_point_samples(samples, flat)),
        "point-evaluator": (Distribution(3, 2, "builtin", twisted_planes), twisted_planes),
    }


@pytest.mark.parametrize("name", list(stacked_fields()))
def test_bases_at_gives_each_point_the_bytes_of_its_own_plane(name):
    """Every stacked evaluator against the per-point one it replaced: equal
    bytes and the same memory order, item by item, and ``plane_at`` is the
    same plane."""
    xi, reference = stacked_fields()[name]
    points = field_probe_points(xi.ambient_dim)
    bases = xi.bases_at(points)
    assert bases.shape == (len(points), xi.rank, xi.ambient_dim)
    for p, got in zip(points, bases):
        want = reference(p).basis
        assert got.tobytes() == want.tobytes(), (name, p)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert xi.plane_at(p).basis.tobytes() == want.tobytes()
    assert xi.bases_at(points[:0]).shape == (0, xi.rank, xi.ambient_dim)


@pytest.mark.parametrize("value", [
    np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[np.nan, 1.0]]), None,
], ids=["bare-basis", "vector", "wrong-rank", "non-finite", "none"])
def test_an_evaluator_that_returns_no_plane_raises_a_typed_error(value):
    complex_ = unit_square_grid(1)
    xi = Distribution(2, 1, "builtin", lambda p: value)
    with pytest.raises(PreconditionViolated, match="evaluator returned"):
        transversality_report(complex_, complex_.vertices, xi)
    with pytest.raises(PreconditionViolated, match="evaluator returned"):
        xi.plane_at(np.zeros(2))


def test_a_stacked_evaluator_is_checked_as_a_plane_is():
    """A stacked evaluator's stack of the wrong shape is a typed error; a
    basis that is not orthonormal (here a NaN probe of a builtin) raises
    what ``Plane`` raises, at its own point."""
    wrong = Distribution(2, 1, "builtin", lambda pts: np.ones((len(pts), 2)), stacked=True)
    with pytest.raises(PreconditionViolated, match="stacked distribution evaluator"):
        wrong.bases_at(np.zeros((3, 2)))
    rotor = planar_rotor(0.3)
    points = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, np.nan], [0.0, 0.0, 0.2]])
    with pytest.raises(RankDeficient, match="not orthonormal"):
        rotor.bases_at(points)
    bases, errors = rotor._bases(points)
    assert list(errors) == [1]
    assert bases[[0, 2]].tobytes() == rotor.bases_at(points[[0, 2]]).tobytes()


def test_a_stacked_evaluator_that_raises_is_retried_point_by_point():
    """When a stacked evaluator raises, each point is evaluated on its own:
    the errors are keyed at exactly the failing points, and every other
    basis has the bytes of a call at its point alone."""
    contact = contact_like()

    def trapped(pts):
        low = pts[:, 2] < 0.0
        if low.any():
            raise ValueError(f"below at {pts[low][0].tolist()}")
        return contact._eval(pts)

    xi = Distribution(3, 2, "builtin", trapped, stacked=True)
    points = np.random.default_rng(41).uniform(0.1, 1.0, size=(12, 3))
    points[[0, 5, 6], 2] *= -1.0
    bases, errors = xi._bases(points)
    assert list(errors) == [0, 5, 6]
    for i, exc in errors.items():
        assert str(exc) == f"below at {points[i].tolist()}"
    for i in np.flatnonzero(points[:, 2] >= 0.0).tolist():
        assert bases[i].tobytes() == xi.bases_at(points[i:i + 1])[0].tobytes()
        assert bases[i].tobytes() == contact.bases_at(points[i:i + 1])[0].tobytes()
    with pytest.raises(ValueError) as caught:
        xi.bases_at(points)
    assert str(caught.value) == f"below at {points[0].tolist()}"
