"""End-to-end acceptance battery.

Each test covers one numbered criterion, enforces its runtime budget, and
prints a single verdict line (visible with ``pytest -s`` and in failure
output).  Pipeline bundles produced here are cached so the determinism
criterion can rerun the same scenarios and compare bytes.
"""

import math
from time import perf_counter

import numpy as np

from jigglekit.cli import (
    box_grid,
    canonical_json,
    outcome_to_dict,
    planar_rotor,
    standard_simplex,
    strip,
    unit_square_grid,
)
from jigglekit.complexes import (
    build_complex,
    crystalline_subdivide,
    complex_shape_extremes,
    model_classes,
    point_to_affine_span,
    simplex_volume,
    vlink,
)
from jigglekit.engine import (
    JigglingConfig,
    jiggle_euclidean,
    jiggle_relative,
    jiggle_subdivision,
    jiggle_tower,
)
from jigglekit.grassmann import (
    AffineFlat,
    Plane,
    affine_span,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)
from jigglekit.plmaps import PLMap, SampledMap, distance, linearize
from jigglekit.transversality import (
    Distribution,
    general_position,
    join_transverse_by_projection,
    semitrans_margin,
    simplex_plane,
    simplex_transverse,
    stratified_transverse,
)

HORIZONTAL = Distribution.constant(Plane(np.array([[1.0, 0.0]])))
E1_3D = Distribution.constant(Plane(np.array([[1.0, 0.0, 0.0]])))
DIAGONAL = Distribution.constant(Plane(np.array([[1.0, 1.0]]) / math.sqrt(2.0)))

_BUNDLES: dict[str, str] = {}


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _within(budget, elapsed, problems):
    if elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")


# ---------------------------------------------------------------------------
# combinatorial criteria
# ---------------------------------------------------------------------------

def test_criterion_01_crystalline_counts():
    t0 = perf_counter()
    problems = []
    # an m-simplex keeps the 2**(l*m) Kuhn cells inside its region, which is
    # 1/m! of the cube; the Kuhn-triangulated cube keeps all 2**(l*m) * m!
    for m in (1, 2, 3):
        K = standard_simplex(m)
        for lv in (1, 2, 3):
            child, _ = crystalline_subdivide(K, lv)
            want = 2 ** (lv * m)
            got = len(child.top_simplices)
            if got != want:
                problems.append(f"m={m} l={lv}: {got} cells, expected {want}")
    for m, cube in ((1, standard_simplex(1)), (2, unit_square_grid(1)),
                    (3, box_grid(1))):
        for lv in (1, 2):
            child, _ = crystalline_subdivide(cube, lv)
            want = 2 ** (lv * m) * math.factorial(m)
            got = len(child.top_simplices)
            if got != want:
                problems.append(f"cube m={m} l={lv}: {got} cells, expected {want}")
    fig, smap = crystalline_subdivide(unit_square_grid(1), 2)
    if len(fig.top_simplices) != 32:
        problems.append(f"square at l=2: {len(fig.top_simplices)} cells, expected 32")
    # each child vertex is a point of its carrier's level-2 lattice, exactly
    for vid, support in smap.vertex_support.items():
        if sum(w for _, w in support) != 1 or any(4 % w.denominator for _, w in support):
            problems.append(f"vertex {vid}: support {support} is off the lattice")
    _within(1.0, perf_counter() - t0, problems)
    _verdict(1, "crystalline counts", not problems, "; ".join(problems))


def test_criterion_02_scaling_laws():
    t0 = perf_counter()
    problems = []
    for m in (2, 3):
        K = standard_simplex(m)
        prev_rmax = None
        first_product = None
        for lv in (1, 2, 3, 4):
            ext = complex_shape_extremes(crystalline_subdivide(K, lv)[0])
            if prev_rmax is not None and \
                    abs(prev_rmax / ext["max_rmax"] - 2.0) > 1e-9 * 2.0:
                problems.append(f"m={m} l={lv}: rmax ratio "
                                f"{prev_rmax / ext['max_rmax']:.12f}")
            if first_product is None:
                first_product = ext["max_rmax_lam"]
            elif abs(ext["max_rmax_lam"] - first_product) > 1e-6 * first_product:
                problems.append(f"m={m} l={lv}: rmax*lam {ext['max_rmax_lam']}"
                                f" != {first_product}")
            prev_rmax = ext["max_rmax"]
    _within(5.0, perf_counter() - t0, problems)
    _verdict(2, "scaling laws", not problems, "; ".join(problems))


def test_criterion_03_vertex_link_bound():
    t0 = perf_counter()
    problems = []
    for m in (1, 2, 3):
        bound = 2 ** m * (2 ** m - 1)
        for lv in (1, 2, 3):
            child, _ = crystalline_subdivide(standard_simplex(m), lv)
            worst = max(len(vlink(child, v)) for v in range(child.num_vertices))
            if worst > bound:
                problems.append(f"m={m} l={lv}: link size {worst} > {bound}")
    _within(5.0, perf_counter() - t0, problems)
    _verdict(3, "vertex-link bound", not problems, "; ".join(problems))


def test_criterion_04_model_simplices():
    t0 = perf_counter()
    problems = []
    # at most m! classes; a simplex's children cover them all only from l=2
    # (for m=3 the reversed chain first appears there), the Kuhn cube from l=1
    for m in (2, 3):
        counts = [len(model_classes(standard_simplex(m), lv)) for lv in (1, 2, 3)]
        if counts != sorted(counts) or max(counts) > math.factorial(m) \
                or counts[1] != counts[2]:
            problems.append(f"m={m}: {counts} classes at l=1..3, expected a "
                            f"non-decreasing count <= {math.factorial(m)} "
                            f"that is stable from l=2")
    for m, cube in ((2, unit_square_grid(1)), (3, box_grid(1))):
        counts = [len(model_classes(cube, lv)) for lv in (1, 2)]
        if counts != [math.factorial(m)] * 2:
            problems.append(f"cube m={m}: {counts} classes at l=1..2, "
                            f"expected {math.factorial(m)} at both")
    _within(5.0, perf_counter() - t0, problems)
    _verdict(4, "model simplices", not problems, "; ".join(problems))


def test_criterion_05_linearization_rates():
    t0 = perf_counter()
    problems = []
    sq = unit_square_grid(1)
    f = SampledMap(
        sq,
        lambda P: np.stack([np.sin(np.pi * P[:, 0]), P[:, 0] * P[:, 1]], axis=1),
        jacobian=lambda p: np.array([[np.pi * math.cos(np.pi * p[0]), 0.0],
                                     [p[1], p[0]]]),
    )
    errs = {}
    for lv in (3, 4, 5):
        g, _, _ = linearize(f, sq, lv)
        errs[lv] = (distance(f, g, 0), distance(f, g, 1))
    for lv in (4, 5):
        r0 = errs[lv - 1][0] / errs[lv][0]
        r1 = errs[lv - 1][1] / errs[lv][1]
        if not 3.2 <= r0 <= 4.8:
            problems.append(f"C0 ratio l{lv - 1}/l{lv} = {r0:.3f}")
        if not 1.6 <= r1 <= 2.4:
            problems.append(f"C1 ratio l{lv - 1}/l{lv} = {r1:.3f}")
    _within(10.0, perf_counter() - t0, problems)
    _verdict(5, "linearization rates", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# transversality criteria
# ---------------------------------------------------------------------------

def _criterion_v(p, base, v, tol=1e-9):
    scale = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(p))))
    pp = project_along(v, p)
    pb = project_along(v, base)
    flat = affine_span(pb) if base.shape[0] > 1 else AffineFlat(pb[0], None)
    return point_flat_distance(pp, flat) > tol * scale


def _criterion_d(p, base, v, tol=1e-9):
    scale = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(p))))
    if base.shape[0] == 1:
        return point_flat_distance(p, AffineFlat(base[0], v)) > tol * scale
    gr = simplex_plane(base)
    qp = project_along(gr, p)
    anchor = project_along(gr, base[0])
    vq = project_along(gr, v.basis)
    keep = vq[np.linalg.norm(vq, axis=1) > tol]
    flat = AffineFlat(anchor, plane_from_spanning(keep)) if len(keep) \
        else AffineFlat(anchor, None)
    return point_flat_distance(qp, flat) > tol * scale


def _rank_transverse(p, base, v, tol=1e-9):
    join = np.vstack([p[None, :], base])
    edges = join[1:] - join[0]
    if np.linalg.matrix_rank(edges, tol=tol) < len(edges):
        return False
    stacked = np.vstack([edges, v.basis])
    n = v.ambient_dim
    return np.linalg.matrix_rank(stacked, tol=tol) == min(len(edges) + v.rank, n)


def test_criterion_06_projection_criteria_agree():
    t0 = perf_counter()
    rng = np.random.default_rng(242424)
    problems = []
    checked = 0
    while checked < 1000:
        n = 3 if checked % 2 == 0 else 4
        k = int(rng.integers(1, n - 1))
        v = plane_from_spanning(rng.standard_normal((k, n)))
        base = rng.standard_normal((int(rng.integers(0, n - k)) + 1, n))
        if not simplex_transverse(base, v):
            continue
        p = rng.standard_normal(n)
        a = _criterion_v(p, base, v)
        b = _criterion_d(p, base, v)
        c = _rank_transverse(p, base, v)
        d = join_transverse_by_projection(p, base, v)
        if not (a == b == c == d):
            problems.append(f"config {checked}: {a}/{b}/{c}/{d}")
            if len(problems) > 3:
                break
        checked += 1
    _within(5.0, perf_counter() - t0, problems)
    _verdict(6, "projection criteria agree", not problems, "; ".join(problems))


def test_criterion_07_semitransversality_radius():
    t0 = perf_counter()
    rng = np.random.default_rng(777001)
    problems = []
    trials = 0
    while trials < 200:
        n = 3 if trials % 2 == 0 else 4
        k = int(rng.integers(1, n - 1))
        if n - k - 1 < 1:
            continue
        v = plane_from_spanning(rng.standard_normal((k, n)))
        bd = int(rng.integers(1, n - k))
        base = rng.standard_normal((bd + 1, n))
        if not simplex_transverse(base, v):
            continue
        p = rng.standard_normal(n)
        delta = semitrans_margin(p, base, v)
        if delta < 1e-6:
            continue

        # the exact flat distance, recomputed independently
        comp = v.complement()
        pp = comp @ p
        pb = base @ comp.T
        dirs = (pb[1:] - pb[0]).T
        t, *_ = np.linalg.lstsq(dirs, pp - pb[0], rcond=None)
        residual = pp - pb[0] - dirs @ t
        if abs(np.linalg.norm(residual) - delta) > 1e-9 * max(1.0, delta):
            problems.append(f"trial {trials}: margin != flat distance")
            break

        inside_ok = True
        for _ in range(50):
            step = rng.standard_normal(n)
            step *= 0.99 * delta / np.linalg.norm(step)
            if not join_transverse_by_projection(p + step, base, v):
                inside_ok = False
                break
        if not inside_ok:
            problems.append(f"trial {trials}: failure inside 0.99 delta")
            break

        # spend the 1.01 delta budget along the violating direction: delta
        # radially onto the nearest bad flat, the excess tangentially inside it
        u_q = -residual / np.linalg.norm(residual)
        flat_dirs = affine_span(pb).direction.basis
        spare = delta * math.sqrt(1.01 ** 2 - 1.0)
        found = False
        for _ in range(50):
            w = flat_dirs.T @ rng.standard_normal(flat_dirs.shape[0])
            nw = np.linalg.norm(w)
            tangent = (w / nw) * spare if nw > 1e-12 else 0.0 * pp
            move = comp.T @ (delta * u_q + tangent)
            if not join_transverse_by_projection(p + move, base, v):
                found = True
                break
        if not found:
            problems.append(f"trial {trials}: no failure at 1.01 delta")
            break
        trials += 1
    _within(10.0, perf_counter() - t0, problems)
    _verdict(7, "semitransversality radius", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# pipeline criteria
# ---------------------------------------------------------------------------

def _no_tangent_image_edge(out, xi):
    imgs = out.plmap.images
    for u, w in out.out_complex.simplices_of_dim(1):
        mid = 0.5 * (imgs[u] + imgs[w])
        if not simplex_transverse(imgs[[u, w]], xi.plane_at(mid)):
            return False
    return True


def _euclidean_bundle(complex_, xi, cfg):
    out = jiggle_euclidean(PLMap.identity(complex_), complex_, xi, cfg)
    return out, canonical_json(outcome_to_dict(out, "euclidean"))


def test_criterion_08_euclidean_jiggling():
    t0 = perf_counter()
    problems = []

    grid = unit_square_grid(2)
    out, blob = _euclidean_bundle(grid, HORIZONTAL,
                                  JigglingConfig(gamma=0.2, seed=7))
    _BUNDLES["c8_grid"] = blob
    if not out.report.passed:
        problems.append("grid run failed")
    if not (out.d_c1 < 0.2 and out.d_c0 < 0.2 * 2.0 ** -out.level):
        problems.append("grid budgets exceeded")
    if not _no_tangent_image_edge(out, HORIZONTAL):
        problems.append("grid kept a horizontal edge")
    for top in out.out_complex.top_simplices:
        ok, _ = general_position(out.plmap.images[list(top)], HORIZONTAL)
        if not ok:
            problems.append("grid cell out of general position")
            break

    box = box_grid(2)
    out_b, blob_b = _euclidean_bundle(box, E1_3D,
                                      JigglingConfig(gamma=0.2, seed=11))
    _BUNDLES["c8_box"] = blob_b
    if not out_b.report.passed:
        problems.append("box axis run failed")
    if not (out_b.d_c1 < 0.2 and out_b.d_c0 < 0.2 * 2.0 ** -out_b.level):
        problems.append("box budgets exceeded")
    if not _no_tangent_image_edge(out_b, E1_3D):
        problems.append("box kept an axis-parallel edge")

    rotor = planar_rotor(1e-4)
    out_r, blob_r = _euclidean_bundle(box, rotor,
                                      JigglingConfig(gamma=0.2, level=1, seed=11))
    _BUNDLES["c8_rotor"] = blob_r
    if not out_r.report.passed:
        problems.append("box rotor run failed")
    if not (out_r.d_c1 < 0.2 and out_r.d_c0 < 0.2 * 2.0 ** -out_r.level):
        problems.append("rotor budgets exceeded")
    if not _no_tangent_image_edge(out_r, rotor):
        problems.append("rotor kept a tangent edge")
    _within(60.0, perf_counter() - t0, problems)
    _verdict(8, "euclidean jiggling end-to-end", not problems, "; ".join(problems))


def test_criterion_09_tower_uniformity():
    t0 = perf_counter()
    problems = []
    grid = unit_square_grid(2)
    outs = jiggle_tower(PLMap.identity(grid), grid, HORIZONTAL,
                        JigglingConfig(gamma=0.2, seed=3), [2, 3, 4])
    _BUNDLES["c9"] = canonical_json(
        [outcome_to_dict(o, "euclidean") for o in outs])
    if not all(o.report.passed for o in outs):
        problems.append("a tower level failed")
    margins = [o.report.min_eps_margin for o in outs]
    if min(margins) < 0.5 * margins[0]:
        problems.append(f"margins decay: {margins}")
    _within(120.0, perf_counter() - t0, problems)
    _verdict(9, "tower uniformity", not problems, "; ".join(problems))


def _fan_pair():
    parent = build_complex(2, [(0, 0), (2, 3), (4, 1)], [(0, 1, 2)])
    fan = build_complex(
        2,
        [(0, 0), (2, 3), (4, 1), (1, 1.5), (2, 1.5)],
        [(0, 3, 4), (1, 3, 4), (1, 2, 4), (0, 2, 4)],
    )
    return parent, fan


def test_criterion_10_subdivision_jiggling():
    t0 = perf_counter()
    problems = []
    parent, fan = _fan_pair()
    plane = HORIZONTAL.plane_at(np.zeros(2))
    if stratified_transverse(fan.vertices[[1, 3, 4]], plane):
        problems.append("the input fan is not actually failing")
    out = jiggle_subdivision(parent, fan, HORIZONTAL,
                             JigglingConfig(gamma=0.2, seed=3))
    _BUNDLES["c10"] = canonical_json(outcome_to_dict(out, "subdivision"))
    img = out.plmap.images
    if not all(stratified_transverse(img[list(c)], plane)
               for c in out.out_complex.top_simplices):
        problems.append("an output cell is not stratified transverse")
    walls = [parent.vertices[list(e)] for e in ((0, 1), (1, 2), (0, 2))]
    for vid in range(out.out_complex.num_vertices):
        pos = out.out_complex.vertices[vid]
        for wall in walls:
            if point_to_affine_span(pos, wall) < 1e-12 and \
                    point_to_affine_span(img[vid], wall) > 1e-12:
                problems.append(f"vertex {vid} left its carrier")
    total = sum(simplex_volume(img[list(c)])
                for c in out.out_complex.top_simplices)
    target = simplex_volume(parent.vertices[[0, 1, 2]])
    if abs(total - target) / target > 1e-9:
        problems.append("image volume drifted")
    _within(30.0, perf_counter() - t0, problems)
    _verdict(10, "subdivision jiggling", not problems, "; ".join(problems))


def test_criterion_11_relative_jiggling():
    t0 = perf_counter()
    problems = []
    S = strip(3)
    anchor = (0, 4)
    plane = DIAGONAL.plane_at(np.zeros(2))
    if not stratified_transverse(S.vertices[list(anchor)], plane):
        problems.append("anchor edge is not stratified transverse")
    out = jiggle_relative(PLMap.identity(S), S, DIAGONAL, 0.2, a=[anchor],
                          config=JigglingConfig(gamma=0.2, seed=5))
    _BUNDLES["c11"] = canonical_json(outcome_to_dict(out, "relative"))
    child, img = out.out_complex, out.plmap.images
    carried = [v for v in range(child.num_vertices)
               if abs(child.vertices[v][0]) < 1e-12]
    if not carried or any(not np.array_equal(img[v], child.vertices[v])
                          for v in carried):
        problems.append("the anchor moved")
    if not out.report.passed:
        problems.append("certified region is not in general position")
    _within(60.0, perf_counter() - t0, problems)
    _verdict(11, "relative jiggling", not problems, "; ".join(problems))


def test_criterion_12_determinism():
    t0 = perf_counter()
    problems = []

    grid = unit_square_grid(2)
    box = box_grid(2)
    reruns = {
        "c8_grid": lambda: _euclidean_bundle(
            grid, HORIZONTAL, JigglingConfig(gamma=0.2, seed=7))[1],
        "c8_box": lambda: _euclidean_bundle(
            box, E1_3D, JigglingConfig(gamma=0.2, seed=11))[1],
        "c8_rotor": lambda: _euclidean_bundle(
            box, planar_rotor(1e-4),
            JigglingConfig(gamma=0.2, level=1, seed=11))[1],
        "c9": lambda: canonical_json([
            outcome_to_dict(o, "euclidean") for o in jiggle_tower(
                PLMap.identity(grid), grid, HORIZONTAL,
                JigglingConfig(gamma=0.2, seed=3), [2, 3, 4])]),
        "c10": lambda: canonical_json(outcome_to_dict(
            jiggle_subdivision(*_fan_pair(), HORIZONTAL,
                               JigglingConfig(gamma=0.2, seed=3)),
            "subdivision")),
        "c11": lambda: canonical_json(outcome_to_dict(
            jiggle_relative(PLMap.identity(strip(3)), strip(3), DIAGONAL,
                            0.2, a=[(0, 4)],
                            config=JigglingConfig(gamma=0.2, seed=5)),
            "relative")),
    }
    for key, recompute in reruns.items():
        first = _BUNDLES.get(key) or recompute()
        if recompute() != first:
            problems.append(f"{key} bundle changed between runs")
    _verdict(12, "determinism", not problems,
             "; ".join(problems) or f"{perf_counter() - t0:.0f}s")
