"""The wave-scheduled vertex induction against the loop it replaced.

``reference_vertex_induction`` is the per-vertex loop the engine ran before
the induction moved vertices in dependency waves, on the scalar
perturbation routines of that time: each join margin one
``semitrans_margin`` call, each star check one stack per size, each stage
one point-by-point search (``reference_avoid_flats``).  Every pipeline run
below calls both on the same inputs and compares their images, achieved
margins, certified margins (including the order of their keys) and move
counts with ``==`` and on bytes; a failing run must raise the same error
from both.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from test_perturb import join_margins, only, reference_avoid_flats

from jigglekit import engine
from jigglekit.cli import box_grid, planar_rotor, strip, unit_square_grid
from jigglekit.complexes import SimplicialComplex, build_complex, crystalline_subdivide
from jigglekit.engine import (
    INCUMBENT_FRACTION,
    SEED_STRIDE,
    JigglingConfig,
    _waves,
    jiggle_euclidean,
    jiggle_relative,
    jiggle_subdivision,
    jiggle_tower,
)
from jigglekit.errors import (
    BudgetViolation,
    DegenerateSimplex,
    PerturbationFailed,
    PreconditionViolated,
    StarNotTransverse,
)
from jigglekit.grassmann import (
    AffineFlat,
    Plane,
    _transverse,
    affine_span,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)
from jigglekit.perturb import PerturbationRequest, PerturbationResult
from jigglekit.plmaps import PLMap
from jigglekit.transversality import (
    Distribution,
    _transverse_stack,
    simplex_transverse,
)

HORIZONTAL = Distribution.constant(Plane(np.array([[1.0, 0.0]])))
DIAGONAL = Distribution.constant(Plane(np.array([[1.0, 1.0]]) / math.sqrt(2.0)))
# horizontal: the flat faces of the box lie in it, so its vertices move
SHEET = Distribution.constant(Plane(np.eye(3)[:2]))
ALONG_X = Distribution.constant(Plane(np.eye(3)[:1]))
INDUCTION = engine._run_vertex_induction


# ---------------------------------------------------------------------------
# the loop and the scalar routines it called
# ---------------------------------------------------------------------------

def reference_semitrans_margin(p, coords, v):
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    free = v.ambient_dim - v.rank
    if pts.shape[0] > free:
        raise PreconditionViolated(f"join dimension {pts.shape[0]} exceeds n-k = {free}")
    if not simplex_transverse(pts, v):
        raise PreconditionViolated("base simplex is not transverse to F(V)")
    point = np.asarray(p, dtype=float)
    proj_span = project_along(v, pts)
    flat = affine_span(proj_span) if pts.shape[0] > 1 else AffineFlat(proj_span[0], None)
    return point_flat_distance(project_along(v, point), flat)


def reference_join_margins(point, stars, star_folis, folis):
    cache = {}
    out = []
    for u, v in enumerate(folis):
        cap = v.ambient_dim - v.rank
        for si, (s, us) in enumerate(zip(stars, star_folis)):
            if u not in us:
                continue
            for d in range(1, min(cap, s.shape[0]) + 1):
                for idx in combinations(range(s.shape[0]), d):
                    face = s[list(idx)]
                    key = (u, face.tobytes())
                    if key not in cache:
                        try:
                            cache[key] = float(reference_semitrans_margin(point, face, v))
                        except PreconditionViolated:
                            cache[key] = 0.0
                    out.append((u, si, idx, cache[key]))
    return out


def reference_check_star(stars, v, u):
    free = v.ambient_dim - v.rank
    verdicts = {}
    for size in {len(s) for s in stars if 2 <= len(s) <= free + 1}:
        idx = [i for i, s in enumerate(stars) if len(s) == size]
        transverse, degenerate = _transverse_stack(np.stack([stars[i] for i in idx]), v)
        verdicts.update(zip(idx, zip(transverse, degenerate)))
    for i, s in enumerate(stars):
        if i in verdicts:
            ok, flat = verdicts[i]
            if flat:
                raise DegenerateSimplex("simplex directions are dependent")
        else:
            ok = simplex_transverse(s, v)
        if not ok:
            raise StarNotTransverse(
                f"a star simplex of dim {s.shape[0] - 1} is not transverse "
                f"to foliation {u}"
            )


def reference_perturb_vertex(req):
    point, folis, stars = req.point, list(req.foliations), req.star_simplices
    star_folis = req.star_foliations
    for u, v in enumerate(folis):
        reference_check_star([s for s, us in zip(stars, star_folis) if u in us], v, u)
        if req.constraint_flat is not None and req.constraint_flat.direction is not None:
            if not _transverse(req.constraint_flat.direction.basis[None], v)[0]:
                raise PreconditionViolated(
                    f"constraint flat is not transverse to foliation {u}")
    h_dim = req.constraint_flat.dim if req.constraint_flat is not None else point.shape[0]
    d_max = min(max((v.ambient_dim - v.rank for v in folis), default=0), h_dim)
    current, delta, per_dim = point, req.epsilon, {}
    for d in range(1, d_max + 1):
        flats, quotients, seen = [], [], set()
        for u, v in enumerate(folis):
            if d > v.ambient_dim - v.rank:
                continue
            for s, us in zip(stars, star_folis):
                if u not in us:
                    continue
                for idx in combinations(range(s.shape[0]), d):
                    face = s[list(idx)]
                    rounded = np.round(face, 12)
                    key = (u, rounded[np.lexsort(rounded.T[::-1])].tobytes())
                    if key not in seen:
                        seen.add(key)
                        flats.append(affine_span(face))
                        quotients.append(v)
        if not flats:
            per_dim[d] = delta
            continue
        current, delta = reference_avoid_flats(
            current, delta, flats, quotients, constraint_flat=req.constraint_flat,
            seed=req.seed * 1000003 + d, samples=req.samples)
        per_dim[d] = delta
    moved = float(np.linalg.norm(current - point))
    delta = max(min(delta, req.epsilon - moved), 0.0)
    return PerturbationResult(current, float(delta), moved, per_dim,
                              reference_join_margins(current, stars, star_folis, folis))


def reference_vertex_induction(child, images, *, frozen, order, budgets, foliations,
                               planes, constraints, excluded, margin_target, cfg):
    """The induction as one loop over ``order``, a vertex at a time."""
    def by_join(vid, entries, joins):
        margins = {}
        for _, si, combo, m in joins:
            join = tuple(sorted([vid] + [entries[si][1][j] for j in combo]))
            margins[join] = min(m, margins.get(join, np.inf))
        return margins

    achieved, certified, moved = {}, {}, 0
    processed = frozen.copy()
    threshold = max(INCUMBENT_FRACTION * margin_target, 1e-12)
    for vid in order:
        if frozen[vid]:
            continue
        entries = []
        for s in child._incident(vid):
            if len(s) < 2 or any(excluded[v] for v in s):
                continue
            others = [o for o in s if o != vid]
            if all(processed[o] for o in others):
                entries.append((s, others))
        columns = [t for t in range(foliations.shape[1]) if foliations[vid, t]]
        planes_here = [planes[vid, t] for t in columns]
        for plane in planes_here:
            if isinstance(plane, Exception):
                raise plane
        # the columns every vertex of the simplex shares, else all of them
        fol_indices = [tuple(i for i, t in enumerate(columns)
                             if all(foliations[v, t] for v in s))
                       or tuple(range(len(columns))) for s, _ in entries]
        stars = [images[others] for _, others in entries]
        margins = by_join(vid, entries,
                          reference_join_margins(images[vid], stars, fol_indices, planes_here))
        if margins and min(margins.values()) < threshold:
            eps = float(budgets[vid])
            if eps <= 0:
                raise BudgetViolation(
                    f"vertex {vid} needs a move but the per-vertex budget is "
                    f"exhausted (eta = {eps:.3g})")
            req = PerturbationRequest(
                point=images[vid], epsilon=eps, star_simplices=stars,
                foliations=planes_here, star_foliations=fol_indices,
                constraint_flat=constraints[vid],
                seed=cfg.seed * SEED_STRIDE + vid, samples=cfg.samples)
            try:
                res = reference_perturb_vertex(req)
            except StarNotTransverse as exc:
                raise PerturbationFailed(
                    f"vertex {vid}: a processed star simplex lost transversality "
                    "to the local plane; the field varies too fast for the "
                    "achieved margins (raise the level)") from exc
            if res.achieved_delta < margin_target:
                raise PerturbationFailed(
                    f"vertex {vid}: best margin {res.achieved_delta:.3g} below "
                    f"target {margin_target:.3g}")
            if res.moved > 0:
                moved += 1
                images[vid] = res.point
            achieved[vid] = res.achieved_delta
            margins = by_join(vid, entries, res.certificate)
        for join, m in margins.items():
            certified[join] = min(m, certified.get(join, np.inf))
        processed[vid] = True
    return achieved, certified, moved


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def _outcome(call):
    """What ``call()`` returns, or the exception it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return exc


def assert_same(want, got, want_images, got_images):
    assert want_images.tobytes() == got_images.tobytes()
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__)
        return
    assert not isinstance(got, Exception), got
    for w, g in zip(want[:2], got[:2]):
        assert g == w and list(g) == list(w)
        assert np.array(list(g.values())).tobytes() == np.array(list(w.values())).tobytes()
    assert got[2] == want[2]


def compare(child, images, **kwargs):
    """Both inductions on copies of ``images``; returns the reference's
    outcome and images."""
    want_images, got_images = images.copy(), images.copy()
    want = _outcome(lambda: reference_vertex_induction(child, want_images, **kwargs))
    got = _outcome(lambda: INDUCTION(child, got_images, **kwargs))
    assert_same(want, got, want_images, got_images)
    return want, want_images


@pytest.fixture
def checked(monkeypatch):
    """Every induction a pipeline runs is compared with the reference loop;
    yields the list of their outcomes."""
    runs = []

    def spy(child, images, **kwargs):
        want, want_images = compare(child, images, **kwargs)
        runs.append((child, kwargs, want))
        images[:] = want_images
        if isinstance(want, Exception):
            raise want
        return want

    monkeypatch.setattr(engine, "_run_vertex_induction", spy)
    return runs


def _fan():
    parent = build_complex(2, [(0, 0), (2, 3), (4, 1)], [(0, 1, 2)])
    fan = build_complex(2, [(0, 0), (2, 3), (4, 1), (1, 1.5), (2, 1.5)],
                        [(0, 3, 4), (1, 3, 4), (1, 2, 4), (0, 2, 4)])
    return parent, fan


def _two_tops():
    def line(x, y):
        return Distribution.constant(Plane(np.array([[x, y]]) / math.hypot(x, y)))
    return (unit_square_grid(1), unit_square_grid(2),
            {(0, 1, 3): line(2.0, 1.0), (0, 2, 3): line(1.0, 2.0)})


SCENES = {
    "tower": lambda seed: jiggle_tower(
        PLMap.identity(unit_square_grid(2)), unit_square_grid(2), HORIZONTAL,
        JigglingConfig(gamma=0.2, seed=seed), [2, 3, 4]),
    "rotor": lambda seed: jiggle_euclidean(
        PLMap.identity(box_grid(1)), box_grid(1), planar_rotor(1e-4),
        JigglingConfig(gamma=0.2, level=1, seed=seed)),
    "fan-1": lambda seed: jiggle_subdivision(
        *_fan(), HORIZONTAL, JigglingConfig(gamma=0.2, level=1, seed=seed)),
    "fan-3": lambda seed: jiggle_subdivision(
        *_fan(), HORIZONTAL, JigglingConfig(gamma=0.2, level=3, seed=seed)),
    "two-tops": lambda seed: jiggle_subdivision(
        *_two_tops(), JigglingConfig(gamma=0.2, level=1, seed=seed)),
    "strip": lambda seed: jiggle_relative(
        PLMap.identity(strip(3)), strip(3), DIAGONAL, 0.2, a=[(0, 4)],
        config=JigglingConfig(gamma=0.2, level=3, seed=seed)),
    "strip-b": lambda seed: jiggle_relative(
        PLMap.identity(strip(3)), strip(3), DIAGONAL, 0.2, a=[], b=[(3, 7)],
        v_radius=0.3, config=JigglingConfig(gamma=0.2, seed=seed)),
    "sheet": lambda seed: jiggle_euclidean(
        PLMap.identity(box_grid(1)), box_grid(1), SHEET,
        JigglingConfig(gamma=0.2, level=1, seed=seed)),
    # 3-D stage-2 flats, many directed flats per wave
    "box-2": lambda seed: jiggle_euclidean(
        PLMap.identity(box_grid(1)), box_grid(1), ALONG_X,
        JigglingConfig(gamma=0.2, level=2, seed=seed)),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_waves_reproduce_the_loop(scene, seed, checked):
    SCENES[scene](seed)
    assert checked and sum(want[2] for _, _, want in checked) > 0


@pytest.mark.parametrize("scene", ["tower", "box-2"])
def test_the_induction_builds_no_plane_flat_or_request(scene, monkeypatch):
    """The plan holds every star, join and flat as index arrays, so a run
    constructs no Plane, AffineFlat or PerturbationRequest between entering
    and leaving the induction, though vertices move."""
    inside, built, moved = [False], {}, []
    for cls in (Plane, AffineFlat, PerturbationRequest):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            if inside[0]:
                built[_name] = built.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def spy(child, images, **kwargs):
        inside[0] = True
        try:
            out = INDUCTION(child, images, **kwargs)
        finally:
            inside[0] = False
        moved.append(out[2])
        return out

    monkeypatch.setattr(engine, "_run_vertex_induction", spy)
    SCENES[scene](0)
    assert sum(moved) > 0 and built == {}


def test_scenes_cover_every_kind_of_star():
    """Joins with edges, vertices with one and with two search directions
    (a constraint line and none), two foliations at one vertex, frozen
    vertices and excluded simplices all occur."""
    seen = {}

    def spy(child, images, **kw):
        seen["frozen"] = seen.get("frozen", False) or bool(kw["frozen"].any())
        seen["excluded"] = seen.get("excluded", False) or bool(kw["excluded"].any())
        for vid in range(child.num_vertices):
            if kw["frozen"][vid]:
                continue
            flat = kw["constraints"][vid]
            seen.setdefault("constraints", set()).add(None if flat is None else flat.dim)
            planes = kw["planes"][vid, kw["foliations"][vid]]
            seen["folis"] = max(seen.get("folis", 0), len(planes))
            seen["free"] = max(seen.get("free", 0),
                               max(p.ambient_dim - p.rank for p in planes))
        return INDUCTION(child, images, **kw)

    engine._run_vertex_induction = spy
    try:
        for scene in ("rotor", "fan-1", "two-tops", "strip", "strip-b"):
            SCENES[scene](0)
    finally:
        engine._run_vertex_induction = INDUCTION
    assert seen["frozen"] and seen["excluded"]
    assert seen["constraints"] == {None, 1}
    assert seen["folis"] == 2 and seen["free"] == 2


# ---------------------------------------------------------------------------
# failures: the first vertex in order raises, whatever its wave
# ---------------------------------------------------------------------------

def _grid(edges_only=False):
    """A level-2 square grid, or its edges alone, with its vertices as
    images."""
    child = crystalline_subdivide(unit_square_grid(1), 2)[0]
    if edges_only:
        child = SimplicialComplex(2, child.vertices, child.simplices_of_dim(1))
    return child, np.array(child.vertices)


# 11 = (0.5, 0.5) and 18 = (0.5, 0.75) are neighbours; 9 = (0.75, 0.25) is
# adjacent to neither
FIRST, LATER_WAVE, EARLIER_WAVE = 11, 18, 9
TILTED = Plane(np.array([[math.cos(math.pi / 6), math.sin(math.pi / 6)]]))


def _failing_run(case, fail):
    """An induction in which only 11, 18 and 9 move, in that order, so 18
    runs a wave after 9.  The vertices in ``fail`` see the horizontal line
    field, which leaves each a horizontal neighbour at margin 0, and the
    others a field at 30 degrees, which clears all their joins; ``case``
    then makes every move fail."""
    # without triangles every star simplex is a point, and transverse
    child, images = _grid(edges_only=case != "star")
    n = child.num_vertices
    frozen = np.ones(n, dtype=bool)
    frozen[[FIRST, LATER_WAVE, EARLIER_WAVE]] = False
    order = [FIRST, LATER_WAVE, EARLIER_WAVE] + [v for v in range(n) if frozen[v]]
    assert [w.tolist() for w in _waves(child, frozen, order)] == \
        [[FIRST, EARLIER_WAVE], [LATER_WAVE]]
    horizontal = HORIZONTAL.plane_at(np.zeros(2))
    flat = AffineFlat(np.zeros(2), horizontal) if case == "constraint" else None
    planes = [horizontal if v in fail else TILTED for v in range(n)]
    return child, images, dict(
        frozen=frozen, order=order,
        budgets=np.full(n, {"budget": 0.0, "target": 1e-9}.get(case, 0.05)),
        foliations=np.ones((n, 1), dtype=bool),
        planes=np.fromiter(planes, dtype=object, count=n)[:, None],
        margin_target=1e-4, constraints=[flat] * n, excluded=np.zeros(n, dtype=bool),
        cfg=JigglingConfig(gamma=0.2, seed=3))


# InfeasibleDimensions cannot come out of a run: a constraint flat must be
# transverse to every foliation, and then each stage's flats are thinner
# than its search domain; test_perturb.py stacks searches that raise it
ERRORS = {"budget": BudgetViolation, "target": PerturbationFailed,
          "star": PerturbationFailed, "constraint": PreconditionViolated}


@pytest.mark.parametrize("fail", [(LATER_WAVE,), (EARLIER_WAVE,),
                                  (LATER_WAVE, EARLIER_WAVE)])
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_the_first_failing_vertex_in_order_raises(case, fail):
    child, images, kwargs = _failing_run(case, fail)
    want, _ = compare(child, images, **kwargs)
    assert type(want) is ERRORS[case], want
    if case in ("budget", "target", "star"):
        assert str(want).startswith(f"vertex {fail[0]}")
    if case == "star":
        assert isinstance(want.__cause__, StarNotTransverse)


def test_a_later_wave_error_wins_when_it_comes_first_in_order():
    """18 comes before 9 in order but runs a wave later; both lack a
    budget, and the error names 18, as the loop's does."""
    child, images, kwargs = _failing_run("target", (LATER_WAVE, EARLIER_WAVE))
    kwargs["budgets"] = np.where(np.arange(len(images)) == EARLIER_WAVE, 0.05, 0.0)
    got = _outcome(lambda: INDUCTION(child, images, **kwargs))
    assert isinstance(got, BudgetViolation) and str(got).startswith(f"vertex {LATER_WAVE} ")
    # 9 moved in the first wave, and was put back
    assert images.tobytes() == _grid()[1].tobytes()


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("frozen_every, reverse", [(0, False), (3, False), (5, True)])
def test_waves_respect_every_edge(level, frozen_every, reverse):
    child = crystalline_subdivide(box_grid(1) if level == 1 else unit_square_grid(2),
                                  level)[0]
    n = child.num_vertices
    frozen = np.zeros(n, dtype=bool)
    if frozen_every:
        frozen[::frozen_every] = True
    order = list(range(n))[::-1] if reverse else list(range(n))
    waves = _waves(child, frozen, order)
    wave_of = {v: w for w, members in enumerate(waves) for v in members.tolist()}
    assert sorted(wave_of) == sorted(v for v in range(n) if not frozen[v])
    assert sum(len(w) for w in waves) == len(wave_of)
    place = {v: i for i, v in enumerate(order)}
    for members in waves:
        assert [place[v] for v in members.tolist()] == sorted(place[v] for v in members.tolist())
    for u, v in child.simplices_of_dim(1):
        if frozen[u] or frozen[v]:
            continue
        assert wave_of[u] != wave_of[v]
        early, late = (u, v) if place[u] < place[v] else (v, u)
        assert wave_of[early] < wave_of[late]
    # each wave is as early as its earlier neighbours allow
    for v, w in wave_of.items():
        earlier = [wave_of[o] for s in child.simplices_of_dim(1) if v in s
                   for o in s if o != v and not frozen[o] and place[o] < place[v]]
        assert w == (max(earlier) + 1 if earlier else 0)


# ---------------------------------------------------------------------------
# the stacked join margins against the scalar ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_join_margins_equal_the_scalar_ones(n):
    """Random stars in R^n against one or two foliations of every rank, in
    C and Fortran order, with faces that lie along a foliation (margin 0)
    and flat faces (DegenerateSimplex from R^4 on): ``_join_margins`` of each star, and
    of all of them as one stack, equal the loop of scalar margins."""
    rng = np.random.default_rng(n)
    jobs, wants = [], []
    for trial in range(30):
        k = int(rng.integers(1, n))
        spanning = rng.normal(size=(k, n))
        folis = [plane_from_spanning(spanning) if trial % 2 else
                 Plane(np.ascontiguousarray(plane_from_spanning(spanning).basis))]
        if trial % 3 == 0:
            folis.append(plane_from_spanning(rng.normal(size=(int(rng.integers(1, n)), n))))
        point = rng.normal(size=n)
        stars = []
        for _ in range(int(rng.integers(1, 5))):
            star = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            if len(star) > 1 and rng.uniform() < 0.2:     # along the foliation
                star[1] = star[0] + folis[0].basis[0]
            if len(star) > 2 and rng.uniform() < 0.5:     # flat
                star[2] = 2 * star[1] - star[0]
            stars.append(star)
        star_folis = [tuple(u for u in range(len(folis)) if rng.uniform() < 0.8) or (0,)
                      for _ in stars]
        job = (point, stars, star_folis, folis)
        want = _outcome(lambda: reference_join_margins(*job))
        got = _outcome(lambda: only(join_margins([job])))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want
            assert np.array([m for *_, m in got]).tobytes() == \
                np.array([m for *_, m in want]).tobytes()
        jobs.append(job)
        wants.append(want)
    stacked = join_margins(jobs)
    for want, got in zip(wants, stacked):
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert got == want
    # a flat base needs three points, so joins of dimension 3 <= n - k
    assert any(isinstance(w, Exception) for w in wants) == (n >= 4)
    # in R^2 every base is a point, transverse to any line
    assert any(not isinstance(w, Exception) and any(m == 0.0 for *_, m in w)
               for w in wants) == (n > 2)
