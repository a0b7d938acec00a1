"""The geometry kernels: one home each, checked against an exact oracle.

Each span distance, flat distance, plane basis, rank test and face margin
is computed by one private routine that works on stacks; the public scalar
functions call it with a stack of one.  A stdlib ``ast`` pass keeps it that
way: ``np.linalg.qr``, ``np.linalg.svd`` and ``np.linalg.det`` may be
called only where ``ALLOWED`` says, a ``Fraction`` may be built only
where ``FRACTION_HOMES`` says, and rows are deduplicated only in
``DEDUPE_HOMES``.  The kernels themselves are compared with the same
quantities computed in 50-digit ``mpmath`` arithmetic, on random and on
nearly degenerate inputs.
"""

import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest

from jigglekit.complexes import _span_distances
from jigglekit.grassmann import (
    Plane,
    _rejection_norms,
    _row_spaces,
    _stack,
    _transverse,
    plane_from_spanning,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/jigglekit/*.py"))

# (module, function) -> the factorizations it may call: "qr", "svd" (with
# the singular vectors), "svdvals" (compute_uv=False) and "det"
ALLOWED = {
    ("complexes", "_volumes"): {"det"},
    ("complexes", "_orientations"): {"det"},
    ("complexes", "_span_distances"): {"qr"},
    ("grassmann", "Plane.complement"): {"qr"},
    ("grassmann", "_row_spaces"): {"svd"},
    ("grassmann", "_transverse"): {"svdvals"},
    ("engine", "_jacobian_amplification"): {"svdvals"},
    ("plmaps", "_distances"): {"svdvals"},
    ("perturb", "_search_dims"): {"svdvals"},
}


def calls(source: str, kind_of):
    """``(function, kind, line)`` of every call that ``kind_of`` names (it
    returns a kind or None); ``function`` is the enclosing top-level
    function or ``Class.method``, or None at module level."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name
            elif isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                name = f"{node.name}.{child.name}"
            if isinstance(child, ast.Call):
                kind = kind_of(child)
                if kind is not None:
                    out.append((name, kind, child.lineno))
            visit(child, name)

    visit(ast.parse(source), None)
    return out


def _factorization(call: ast.Call):
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in ("qr", "svd", "det")
            and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
        return None
    if func.attr == "svd" and any(
            k.arg == "compute_uv" and isinstance(k.value, ast.Constant)
            and k.value.value is False for k in call.keywords):
        return "svdvals"
    return func.attr


def factorizations(source: str):
    """``(function, kind, line)`` of every ``*.linalg.qr``, ``*.linalg.svd``
    and ``*.linalg.det`` call (see :func:`calls`)."""
    return calls(source, _factorization)


def stray_factorizations(module: str, source: str, allowed=ALLOWED) -> list[str]:
    return [f"line {line}: {kind} in {fn}" for fn, kind, line in factorizations(source)
            if kind not in allowed.get((module, fn), ())]


def test_checker_flags_a_factorization_outside_its_home():
    source = ("import numpy as np\n"
              "class Plane:\n"
              "    def complement(self):\n"
              "        return np.linalg.qr(self.basis)\n"
              "def _row_spaces(v):\n"
              "    def inner():\n"
              "        return np.linalg.svd(v)\n"
              "    return inner()\n"
              "def twin(v):\n"
              "    u, s, _ = np.linalg.svd(v, full_matrices=False)\n"
              "    return np.linalg.svd(v, compute_uv=False), np.linalg.qr(v)\n"
              "R = np.linalg.qr(np.eye(2))\n")
    assert factorizations(source) == [
        ("Plane.complement", "qr", 4), ("_row_spaces", "svd", 7),
        ("twin", "svd", 10), ("twin", "svdvals", 11), ("twin", "qr", 11),
        (None, "qr", 12)]
    assert stray_factorizations("grassmann", source) == [
        "line 10: svd in twin", "line 11: svdvals in twin", "line 11: qr in twin",
        "line 12: qr in None"]
    assert stray_factorizations("complexes", source)[:2] == [
        "line 4: qr in Plane.complement", "line 7: svd in _row_spaces"]


def test_checker_flags_a_determinant_outside_its_home():
    source = ("import numpy as np\n"
              "def _volumes(e):\n"
              "    return np.linalg.det(e)\n"
              "def _orientations(e):\n"
              "    return np.sign(np.linalg.det(e))\n"
              "def volume(e):\n"
              "    return abs(np.linalg.det(e @ e.T)) ** 0.5\n")
    assert factorizations(source) == [
        ("_volumes", "det", 3), ("_orientations", "det", 5),
        ("volume", "det", 7)]
    assert stray_factorizations("complexes", source) == ["line 7: det in volume"]
    assert stray_factorizations("plmaps", source) == [
        "line 3: det in _volumes", "line 5: det in _orientations",
        "line 7: det in volume"]


# rationals stay at the edge: the subdivisions work on integer tables, and
# (module, function) below are the only places a Fraction may be built
FRACTION_HOMES = {("complexes", "SubdivisionMap.vertex_support"),
                  ("complexes", "_exact_orientation"),
                  ("complexes", "relative_interiors_intersect")}


def _fraction(call: ast.Call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    return "Fraction" if name == "Fraction" else None


def stray_fractions(module: str, source: str, homes=FRACTION_HOMES) -> list[str]:
    return [f"line {line}: Fraction in {fn}" for fn, _, line in calls(source, _fraction)
            if (module, fn) not in homes]


def test_checker_flags_a_fraction_outside_its_home():
    source = ("import fractions\n"
              "from fractions import Fraction\n"
              "class SubdivisionMap:\n"
              "    def vertex_support(self):\n"
              "        return {v: Fraction(w, 4) for v, w in self.rows}\n"
              "def _exact_orientation(p):\n"
              "    return [fractions.Fraction(x) for x in p]\n"
              "def compose(a, b):\n"
              "    return Fraction(a) * b\n"
              "ONE = Fraction(1)\n")
    assert calls(source, _fraction) == [
        ("SubdivisionMap.vertex_support", "Fraction", 5),
        ("_exact_orientation", "Fraction", 7), ("compose", "Fraction", 9),
        (None, "Fraction", 10)]
    assert stray_fractions("complexes", source) == [
        "line 9: Fraction in compose", "line 10: Fraction in None"]
    assert stray_fractions("cli", source)[:2] == [
        "line 5: Fraction in SubdivisionMap.vertex_support",
        "line 7: Fraction in _exact_orientation"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_fractions_stay_at_the_edge(path):
    assert stray_fractions(path.stem, path.read_text()) == []


def test_every_fraction_home_still_builds_one():
    found = {(path.stem, fn) for path in PACKAGE
             for fn, _, _ in calls(path.read_text(), _fraction)}
    assert found == FRACTION_HOMES


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_factorizations_stay_in_their_kernels(path):
    assert stray_factorizations(path.stem, path.read_text()) == []


def test_every_allowed_home_still_factorizes():
    found = {(path.stem, fn, kind) for path in PACKAGE
             for fn, kind, _ in factorizations(path.read_text())}
    assert {(m, fn, kind) for (m, fn), kinds in ALLOWED.items()
            for kind in kinds} <= found


# one row dedupe: ``np.unique(..., axis=...)`` and ``np.void`` views of rows
# appear only in the (module, function) below
DEDUPE_HOMES = {("complexes", "_unique_rows")}


def _voids(node) -> bool:
    """Whether ``np.void`` appears in an expression, not counting the
    calls nested in it (they are visited on their own)."""
    if isinstance(node, ast.Attribute) and node.attr == "void":
        return True
    return not isinstance(node, ast.Call) and any(
        _voids(child) for child in ast.iter_child_nodes(node))


def _row_dedupe(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "unique" and any(
            k.arg == "axis" for k in call.keywords):
        return "unique(axis)"
    if any(_voids(arg) for arg in [*call.args, *(k.value for k in call.keywords)]):
        return "void"
    return None


def stray_dedupes(module: str, source: str, homes=DEDUPE_HOMES) -> list[str]:
    return [f"line {line}: {kind} in {fn}" for fn, kind, line in calls(source, _row_dedupe)
            if (module, fn) not in homes]


def test_checker_flags_a_row_dedupe_outside_its_home():
    source = ("import numpy as np\n"
              "def _unique_rows(rows):\n"
              "    return np.unique(rows, axis=0, return_index=True)\n"
              "def faces(rows):\n"
              "    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))\n"
              "    return np.unique(keys[:, 0]), np.unique(rows)\n"
              "def pairs(a):\n"
              "    return np.unique(np.stack([a, a], axis=1), axis=0)\n"
              "KEY = np.ones(3).view(np.void)\n")
    assert calls(source, _row_dedupe) == [
        ("_unique_rows", "unique(axis)", 3), ("faces", "void", 5),
        ("pairs", "unique(axis)", 8), (None, "void", 9)]
    assert stray_dedupes("complexes", source) == [
        "line 5: void in faces", "line 8: unique(axis) in pairs", "line 9: void in None"]
    assert stray_dedupes("engine", source)[0] == "line 3: unique(axis) in _unique_rows"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_rows_are_deduplicated_in_one_kernel(path):
    assert stray_dedupes(path.stem, path.read_text()) == []


# ---------------------------------------------------------------------------
# the mpmath oracle
# ---------------------------------------------------------------------------

mp = mpmath.mp


def mp_matrix(a) -> mpmath.matrix:
    return mpmath.matrix(np.atleast_2d(a).tolist())


def exact_span_distance(p, base, dirs) -> float:
    """Distance from p to base + span(rows of dirs), by the normal equations
    in 50 digits; ``dirs`` need not be orthonormal."""
    with mp.workdps(50):
        rel = mp_matrix(np.asarray(p) - np.asarray(base)).T
        if len(dirs):
            d = mp_matrix(dirs)
            rel = rel - d.T * mpmath.lu_solve(d * d.T, d * rel)
        return float(mpmath.norm(rel))


def exact_principal_sines(basis, v_basis) -> list[float]:
    """The sines of the principal angles between the row spans of ``basis``
    and ``v_basis``, in 50 digits: the singular values of an orthonormal
    basis of the first span with its projection onto the second removed."""
    with mp.workdps(50):
        q, _ = mpmath.qr(mp_matrix(basis).T)
        q = q[:, :len(basis)]
        v = mp_matrix(v_basis)
        rejected = q.T - (q.T * v.T) * mpmath.inverse(v * v.T) * v
        return sorted(float(s) for s in mpmath.svd_r(rejected, compute_uv=False))


def nearly_flat(rng, m, n, gap):
    """m + 1 points in R^n whose last edge lies ``gap`` (relative) off the
    span of the others."""
    pts = rng.normal(size=(m + 1, n))
    if m >= 2:
        mix = rng.normal(size=m - 1)
        pts[-1] = pts[0] + mix @ (pts[1:-1] - pts[0]) + gap * rng.normal(size=n)
    return pts


@pytest.mark.parametrize("gap", [1.0, 1e-6])
def test_span_distances_match_the_exact_distance(gap):
    rng = np.random.default_rng(16)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n))
        coords = nearly_flat(rng, m, n, gap) * 10.0 ** rng.uniform(-3, 3)
        scale = float(np.abs(coords).max())
        # points off the span, and points 1e-9 (relative) from it
        points = coords[0] + rng.normal(size=(8, n)) * scale
        points[4:] = coords[0] + (rng.normal(size=(4, m)) @ (coords[1:] - coords[0])
                                  + 1e-9 * scale * rng.normal(size=(4, n)))
        got = _span_distances(points, coords)
        per_point = _span_distances(points, np.broadcast_to(coords, (8, *coords.shape)))
        assert per_point.tolist() == got.tolist()
        for p, d in zip(points, got):
            want = exact_span_distance(p, coords[0], coords[1:] - coords[0])
            size = max(scale, float(np.abs(p).max()))
            assert abs(d - want) <= 1e-14 * size / gap


def test_flat_distances_match_the_exact_distance():
    rng = np.random.default_rng(17)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n))
        scale = 10.0 ** rng.uniform(-3, 3)
        bases = rng.normal(size=(3, n)) * scale
        dirs = np.stack([plane_from_spanning(rng.normal(size=(k, n))).basis
                         for _ in range(3)]) if k else None
        points = rng.normal(size=(5, n)) * scale
        if k:   # a point 1e-9 (relative) from the first flat
            points[0] = bases[0] + scale * (rng.normal(size=k) @ dirs[0]
                                            + 1e-9 * rng.normal(size=n))
        got = _rejection_norms(points[:, None] - bases, dirs)
        for i, p in enumerate(points):
            for j in range(3):
                want = exact_span_distance(p, bases[j], dirs[j] if k else [])
                assert abs(got[i, j] - want) <= 1e-14 * 4 * scale


@pytest.mark.parametrize("tilt", [1.0, 1e-7])
def test_face_margin_is_the_smallest_principal_sine(tilt):
    """A face of dimension d >= 2 has d principal angles against V, and at
    tilt 1e-7 one of them is that small, so a margin that took the largest
    sine fails here."""
    rng = np.random.default_rng(18)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n - 1))
        d = int(rng.integers(2, n - k + 1))
        v = plane_from_spanning(rng.normal(size=(k, n)))
        edges = rng.normal(size=(d, n))
        # tilt the first edge out of V along a normal of V and the others
        normal = np.linalg.svd(np.vstack([v.basis, edges[1:]]))[2][-1]
        edges[0] = rng.normal(size=k) @ v.basis + tilt * normal
        bases, ranks = _row_spaces(edges[None])
        assert ranks[0] == d
        transverse, margin = _transverse(bases, v, margins=True)
        sines = exact_principal_sines(bases[0], v.basis)
        assert transverse[0]
        assert abs(margin[0] - sines[0]) <= 1e-13
        if tilt < 1.0:
            assert sines[0] < 1e-3 * sines[-1]


def random_basis(rng, k, n, order):
    """An orthonormal (k, n) basis as ``plane_from_spanning`` lays it out
    (F order for k >= 2), copied into C order, or either at random."""
    basis = plane_from_spanning(rng.normal(size=(k, n))).basis
    if order == "mixed":
        order = rng.choice(["C", "F"])
    return np.ascontiguousarray(basis) if order == "C" else basis


def transverse_per_order(bases, planes, margins=False):
    """``_transverse`` of each row of ``bases`` against its own plane, one
    call per memory order of the planes' bases on a ``_stack`` of that
    order: the groups ``transversality._ProbePlanes`` keeps."""
    c_order = np.array([plane.basis.flags.c_contiguous for plane in planes])
    transverse, margin = np.zeros(len(planes), dtype=bool), np.zeros(len(planes))
    for c in np.unique(c_order).tolist():
        sel = np.flatnonzero(c_order == c)
        stack = _stack([planes[i].basis for i in sel], c)
        if margins:
            transverse[sel], margin[sel] = _transverse(bases[sel], stack, margins=True)
        else:
            transverse[sel] = _transverse(bases[sel], stack)
    return (transverse, margin) if margins else transverse


@pytest.mark.parametrize("order", ["C", "F", "mixed"])
def test_one_plane_per_row_gives_each_row_its_own_bits(order):
    """Every n = 2..4, plane rank k and face dimension d <= n - k, with
    face bases laid out as ``_row_spaces`` returns them (F-like), planes in
    C order, F order or both, one stack per order, and some faces lying in
    their plane.  A stacked rejection product over a C-ordered copy of
    F-ordered bases fails the F and mixed cases."""
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for d in range(1, max(n - k, 1) + 1):
                for _ in range(6):
                    size = int(rng.integers(2, 9))
                    planes = [Plane(random_basis(rng, k, n, order)) for _ in range(size)]
                    edges = rng.normal(size=(size, d, n))
                    for i in range(0, size, 3):   # inside the plane: not transverse
                        edges[i] = rng.normal(size=(d, k)) @ planes[i].basis
                    bases, _ = _row_spaces(edges)
                    transverse, margin = transverse_per_order(bases, planes, margins=True)
                    for i, plane in enumerate(planes):
                        one, sigma = _transverse(bases[i:i + 1], plane, margins=True)
                        assert transverse[i] == one[0]
                        assert margin[i].tobytes() == sigma[0].tobytes(), (n, k, d, i)
                    alone = _transverse(bases, planes[0], margins=True)
                    assert alone[0].tolist() == [_transverse(bases[i:i + 1], planes[0])[0]
                                                 for i in range(size)]


def test_one_plane_per_row_margins_are_the_smallest_principal_sines():
    """The mpmath oracle of ``test_face_margin_is_the_smallest_principal_sine``
    on stacks of faces, each against its own plane."""
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n - 1))
        d = int(rng.integers(1, n - k + 1))
        size = int(rng.integers(2, 6))
        planes = [plane_from_spanning(rng.normal(size=(k, n))) for _ in range(size)]
        edges = rng.normal(size=(size, d, n))
        edges[0, 0] = rng.normal(size=k) @ planes[0].basis + 1e-7 * rng.normal(size=n)
        bases, ranks = _row_spaces(edges)
        assert (ranks == d).all()
        transverse, margin = transverse_per_order(bases, planes, margins=True)
        assert transverse.all()
        for b, plane, m in zip(bases, planes, margin):
            assert abs(m - exact_principal_sines(b, plane.basis)[0]) <= 1e-13


@pytest.mark.parametrize("tilt", [1.0, 1e-3, 1e-4, 3e-5, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 0.0])
def test_margins_keep_the_rank_test_verdicts(tilt):
    """With margins, ``_transverse`` skips the rank SVD of a row whose
    margin is wide; every verdict must still be the rank test's: margins
    near the skip bar and near the rank bar, and plane bases off
    orthonormal by up to the tolerance ``Plane`` accepts."""
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        for k in range(1, n):
            for d in range(1, n - k + 1):
                planes = []
                for _ in range(8):
                    basis = plane_from_spanning(rng.normal(size=(k, n))).basis.copy()
                    basis += rng.uniform(-3e-11, 3e-11, size=basis.shape)
                    planes.append(Plane(basis))
                edges = rng.normal(size=(8, d, n))
                for i, plane in enumerate(planes):
                    normal = np.linalg.svd(np.vstack([plane.basis, edges[i, 1:]]))[2][-1]
                    edges[i, 0] = rng.normal(size=k) @ plane.basis + tilt * normal
                bases, ranks = _row_spaces(edges)
                transverse, margin = transverse_per_order(bases, planes, margins=True)
                assert transverse.tolist() == transverse_per_order(bases, planes).tolist()
                assert transverse.tolist() == [
                    bool(_transverse(bases[i:i + 1], plane)[0]) for i, plane in enumerate(planes)]
