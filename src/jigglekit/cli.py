"""Command-line surface: scenario builders, JSON files, and SVG rendering.

Every file format is JSON with one object per file and a ``schema_version``
field so fixtures stay diffable.  SVG output uses a fixed canvas and
6-decimal coordinates, which makes renders byte-stable and hashable.

Exit codes: 0 success (and report passed), 1 verification failed, 2 parse
failure, 3 validation failure, 4 perturbation failure, 5 budget violation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    _per_distinct,
    barycentric_subdivide,
    build_complex,
    compose_subdivisions,
    crystalline_subdivide,
)
from .engine import (
    JigglingConfig,
    JigglingOutcome,
    jiggle_euclidean,
    jiggle_relative,
    jiggle_subdivision,
    jiggle_tower,
)
from .errors import (
    AmbientMismatch,
    BudgetViolation,
    CollarTooSmall,
    EmbeddingLost,
    JiggleKitError,
    LevelExhausted,
    PerturbationFailed,
    PreconditionViolated,
    SkeletonViolation,
    UnsupportedDimension,
    VolumeMismatch,
)
from .grassmann import Plane, _stack
from .plmaps import PLMap
from .transversality import (
    DEFAULT_SAMPLE_DEPTH,
    Distribution,
    TransversalityReport,
    _general_position_each,
    probe_points,
    simplex_transverse,
    transversality_report,
)

SCHEMA_VERSION = 1

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PERTURBATION = 4
EXIT_BUDGET = 5


# ---------------------------------------------------------------------------
# builtin complexes
# ---------------------------------------------------------------------------

def unit_square_grid(n: int) -> SimplicialComplex:
    """The unit square cut into an n x n grid, two triangles per cell."""
    if n < 1:
        raise PreconditionViolated("unit_square_grid needs n >= 1")
    verts = [(i / n, j / n) for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = a + n + 1
            d = c + 1
            tris += [(a, b, d), (a, d, c)]
    return build_complex(2, verts, tris)


def standard_simplex(m: int) -> SimplicialComplex:
    """The simplex spanned by the origin and the unit vectors of R^m."""
    if not 1 <= m <= 8:
        raise PreconditionViolated("standard_simplex needs 1 <= m <= 8")
    verts = np.vstack([np.zeros(m), np.eye(m)])
    return build_complex(m, verts, [tuple(range(m + 1))])


def strip(n: int) -> SimplicialComplex:
    """A row of n unit squares with alternating diagonal directions.

    Even cells use the rising diagonal, odd cells the falling one, so a
    constant diagonal field is tangent to some interior edges but never to
    the leftmost cell; that makes the left boundary edge a usable
    stratified-transverse anchor.
    """
    if n < 1:
        raise PreconditionViolated("strip needs n >= 1")
    verts = [(float(i), 0.0) for i in range(n + 1)]
    verts += [(float(i), 1.0) for i in range(n + 1)]
    tris = []
    for i in range(n):
        a, b, c, d = i, i + 1, n + 1 + i, n + 2 + i
        if i % 2 == 0:
            tris += [(a, b, c), (b, d, c)]
        else:
            tris += [(a, b, d), (a, d, c)]
    return build_complex(2, verts, tris)


def box_grid(n: int) -> SimplicialComplex:
    """n^3 unit cubes, each cut into the six tetrahedra of the Kuhn chain."""
    if n < 1:
        raise PreconditionViolated("box_grid needs n >= 1")
    idx = {}
    verts = []
    for z in range(n + 1):
        for y in range(n + 1):
            for x in range(n + 1):
                idx[(x, y, z)] = len(verts)
                verts.append((float(x), float(y), float(z)))
    tets = []
    for cell in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            chain = [cell]
            for axis in perm:
                p = list(chain[-1])
                p[axis] += 1
                chain.append(tuple(p))
            tets.append(tuple(idx[p] for p in chain))
    return build_complex(3, verts, tets)


_COMPLEX_BUILDERS = {
    "unit_square_grid": unit_square_grid,
    "standard_simplex": standard_simplex,
    "strip": strip,
    "box_grid": box_grid,
}

_SAMPLE_CHUNK = 1 << 20    # probe-to-sample offsets a sampled field holds at once
_NAME_RE = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")


def builtin_complex(name: str) -> SimplicialComplex:
    m = _NAME_RE.match(name.strip())
    if not m or m.group(1) not in _COMPLEX_BUILDERS:
        raise PreconditionViolated(f"unknown builtin complex {name!r}")
    if m.group(2) is None:
        raise PreconditionViolated(f"builtin complex {name!r} needs a size")
    try:
        arg = int(m.group(2))
    except ValueError as exc:
        raise PreconditionViolated(f"bad builtin parameter in {name!r}") from exc
    return _COMPLEX_BUILDERS[m.group(1)](arg)


# ---------------------------------------------------------------------------
# builtin plane fields
# ---------------------------------------------------------------------------

def planar_rotor(omega: float) -> Distribution:
    """Horizontal line field in R^3 rotating about e3 at rate omega per unit z."""

    def at(points):
        rows = [(math.cos(ang), math.sin(ang), 0.0) for ang in (omega * points[:, 2]).tolist()]
        return np.array(rows).reshape(-1, 1, 3)

    return Distribution(3, 1, "builtin", at, name=f"planar_rotor({omega!r})", stacked=True)


def vertical_twist() -> Distribution:
    """Line field in R^2 that starts vertical and turns with x at unit rate."""

    def at(points):
        rows = [(-math.sin(x), math.cos(x)) for x in points[:, 0].tolist()]
        return np.array(rows).reshape(-1, 1, 2)

    return Distribution(2, 1, "builtin", at, name="vertical_twist", stacked=True)


def contact_like() -> Distribution:
    """Rank-2 field in R^3 spanned by (1, 0, y) and (0, 1, 0) at (x, y, z)."""

    def at(points):
        rows = []
        for y in points[:, 1].tolist():
            norm = math.hypot(1.0, y)
            rows.append(((1.0 / norm, 0.0, y / norm), (0.0, 1.0, 0.0)))
        return np.array(rows).reshape(-1, 2, 3)

    return Distribution(3, 2, "builtin", at, name="contact_like", stacked=True)


def builtin_distribution(name: str) -> Distribution:
    m = _NAME_RE.match(name.strip())
    if not m:
        raise PreconditionViolated(f"unknown builtin field {name!r}")
    kind, arg = m.group(1), m.group(2)
    if kind == "planar_rotor":
        if arg is None:
            raise PreconditionViolated("planar_rotor needs a rate, e.g. planar_rotor(0.25)")
        try:
            return planar_rotor(float(arg))
        except ValueError as exc:
            raise PreconditionViolated(f"bad rate in {name!r}") from exc
    if kind == "vertical_twist" and arg is None:
        return vertical_twist()
    if kind == "contact_like" and arg is None:
        return contact_like()
    raise PreconditionViolated(f"unknown builtin field {name!r}")


def sampled_distribution(points, planes, name: str = "samples") -> Distribution:
    """Nearest-neighbor interpolation of a finite plane table."""
    pts = np.asarray(points, dtype=float)
    table = [p if isinstance(p, Plane) else Plane(np.asarray(p, dtype=float))
             for p in planes]
    if len(table) != pts.shape[0] or not table:
        raise PreconditionViolated("sample points and planes must align")
    if len({p.basis.shape for p in table}) > 1:
        raise PreconditionViolated("sampled planes must share one rank and dimension")
    bases = _stack([p.basis for p in table], all(p.basis.flags.c_contiguous for p in table))
    step = max(1, _SAMPLE_CHUNK // len(pts))

    def at(probes):
        near = [np.argmin(np.linalg.norm(pts - probes[i:i + step, None], axis=2), axis=1)
                for i in range(0, len(probes), step)]
        return bases[np.concatenate(near or [np.zeros(0, dtype=np.intp)])]

    return Distribution(pts.shape[1], table[0].rank, "sampled", at, name=name, stacked=True)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Json:
    """JSON text that :func:`canonical_json` writes as it stands (and that
    ``json.dumps`` refuses, so it is never written as a string)."""

    text: str


def _chunks(obj):
    """``obj`` in canonical JSON, in pieces, with its :class:`_Json` members
    as they stand.  Dicts whose keys are all strings, and lists of dicts,
    are walked; any other value is one ``json.dumps`` call, which refuses a
    :class:`_Json` inside it."""
    if isinstance(obj, _Json):
        yield obj.text
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _chunks(value)
        yield "}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ","
            yield from _chunks(item)
        yield "]"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` and a
    newline, for objects that may hold prebuilt :class:`_Json` text."""
    return "".join([*_chunks(obj), "\n"])


def _json_texts(items: np.ndarray) -> np.ndarray:
    """One ``json.dumps`` call over the items, split into their texts."""
    texts = json.dumps(items.ravel().tolist(), separators=(",", ":"))
    return np.array(texts[1:-1].split(","), dtype=object)


def _texts(column: np.ndarray) -> np.ndarray:
    """Each item of a bool, int or float column as ``json.dumps`` writes it
    (``true``, float ``repr``, ``NaN``, ``Infinity``), as an object array.
    Each distinct item (by its bytes, so ``-0.0`` keeps its own text) is
    formatted once."""
    return _per_distinct(_json_texts, column)


def save_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


class _Schema(PreconditionViolated):
    """A JSON object is syntactically fine but structurally wrong."""


def _expect(obj, key, kinds):
    if not isinstance(obj, dict) or key not in obj:
        raise _Schema(f"missing field {key!r}")
    val = obj[key]
    if not isinstance(val, kinds):
        raise _Schema(f"field {key!r} has the wrong type")
    return val


@contextlib.contextmanager
def _parsing(what: str):
    """Report outside input that Python or numpy cannot convert as a
    schema error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise _Schema(f"bad {what}: {exc}") from exc


def _floats(raw, what: str) -> np.ndarray:
    """A list of rows of finite numbers, as a float matrix."""
    with _parsing(what):
        arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise _Schema(f"{what} must be a list of rows of finite numbers")
    return arr


def _id_tuples(raw, what: str) -> list[tuple[int, ...]]:
    """A list of vertex-id lists, as tuples of ints."""
    with _parsing(what):
        return [tuple(operator.index(v) for v in s) for s in raw]


def complex_to_dict(complex_: SimplicialComplex) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "complex",
        "ambient_dim": complex_.ambient_dim,
        "vertices": complex_.vertices.tolist(),
        "top_simplices": [list(s) for s in complex_.top_simplices],
    }


def complex_from_dict(obj: dict) -> SimplicialComplex:
    dim = _expect(obj, "ambient_dim", int)
    verts = _floats(_expect(obj, "vertices", list), "vertices")
    tops = _id_tuples(_expect(obj, "top_simplices", list), "top_simplices")
    return build_complex(dim, verts, tops)


def plmap_from_dict(obj: dict) -> PLMap:
    images = _floats(_expect(obj, "images", list), "images")
    # outcome bundles carry their map as out_complex + images; accept them
    # directly so `jiggle` output feeds straight into `verify --map`
    if obj.get("kind") == "outcome":
        domain = complex_from_dict(_expect(obj, "out_complex", dict))
    else:
        domain = complex_from_dict(_expect(obj, "domain", dict))
    return PLMap(domain, images)


def distribution_from_dict(obj: dict) -> Distribution:
    typ = _expect(obj, "type", str)
    if typ == "constant":
        return Distribution.constant(
            Plane(_floats(_expect(obj, "basis", list), "basis")))
    if typ == "builtin":
        return builtin_distribution(_expect(obj, "name", str))
    if typ == "samples":
        return sampled_distribution(
            _floats(_expect(obj, "points", list), "points"),
            [_floats(p, "planes") for p in _expect(obj, "planes", list)])
    raise _Schema(f"unknown distribution type {typ!r}")


def subdivision_to_dict(smap: SubdivisionMap) -> dict:
    """``vertex_support`` maps ``str(child id)``, in string order, to the
    child's ``[parent id, [num, den]]`` terms in support order, each weight
    in lowest terms.  It is written as text straight from the table; every
    child has at least one term."""
    common = np.gcd(smap.weights, smap.denominator)
    order = np.array(sorted(range(len(smap.ids)), key=str), dtype=np.intp)
    ids = smap.ids[order]
    kept = ids >= 0
    counts = kept.sum(axis=1)
    m = int(counts.sum())
    # term j is parts[7 j:7 j + 7]: its lead, then "gid,[num,den]]"; a row's
    # first term leads with the row's key
    leads = np.full(m, ",[", dtype=object)
    leads[np.cumsum(counts) - counts] = [f'],"{vid}":[[' for vid in order.tolist()]
    parts = ["]]"] * (7 * m)
    parts[0::7] = leads.tolist()
    parts[1::7] = _texts(ids[kept]).tolist()
    parts[2::7] = [",["] * m
    parts[3::7] = _texts((smap.weights // common)[order][kept]).tolist()
    parts[4::7] = [","] * m
    parts[5::7] = _texts((smap.denominator // common)[order][kept]).tolist()
    if m:
        parts[0] = "{" + parts[0][2:]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subdivision",
        "vertex_support": _Json("".join([*parts, "]}"]) if m else "{}"),
    }


def config_from_dict(obj: dict) -> JigglingConfig:
    unknown = set(obj) - {f.name for f in fields(JigglingConfig)}
    if unknown:
        raise _Schema(f"unknown config fields {sorted(unknown)}")
    if "gamma" not in obj:
        raise _Schema("config needs a gamma")
    with _parsing("config"):
        return JigglingConfig(**obj)


# the keys of a report record in sorted order, each with the text before
# its value
_RECORD_KEYS = ('{"certified":', ',"dim":', ',"eps_margin":', ',"general_position":',
                ',"semitrans_margin":', ',"simplex":[', '],"transverse":')


def report_to_dict(report: TransversalityReport) -> dict:
    """The report's JSON form.  Its records are written as text straight
    from the columns: ``eps_margin`` is null where infinite,
    ``semitrans_margin`` null where NaN (no certificate, so ``certified`` is
    false), and ``general_position`` is ``transverse``, null for a vertex."""
    records = report.records
    n = len(records)
    dims = np.array(list(map(len, records)), dtype=np.intp) - 1
    eps, semi = report.eps_margin, report.semitrans_margin
    certified = ~np.isnan(semi)
    transverse = _texts(report.transverse)
    eps_texts, semi_texts = _texts(eps), _texts(semi)
    eps_texts[np.isinf(eps)] = "null"
    semi_texts[~certified] = "null"
    values = (_texts(certified).tolist(),
              _texts(dims).tolist(),
              eps_texts.tolist(),
              np.where(dims > 0, transverse, "null").tolist(),
              semi_texts.tolist(),
              json.dumps(records, separators=(",", ":"))[2:-2].split("],[") if n else [],
              transverse.tolist())
    # record i is parts[15 i:15 i + 15]: each key's text and value, then "},"
    parts = ["},"] * (15 * n)
    for k, (key, value) in enumerate(zip(_RECORD_KEYS, values)):
        parts[2 * k::15] = [key] * n
        parts[2 * k + 1::15] = value
    if n:
        parts[0], parts[-1] = "[" + parts[0], "}]"
    return {
        "records": _Json("".join(parts) if n else "[]"),
        "min_eps_margin": None if np.isinf(report.min_eps_margin) else report.min_eps_margin,
        "min_semitrans_margin": report.min_semitrans_margin,
        "margin_tol": report.margin_tol,
        "sampled": report.sampled,
        "pass": report.passed,
    }


def outcome_to_dict(out: JigglingOutcome, mode: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "outcome",
        "mode": mode,
        "level": out.level,
        "d_c0": out.d_c0,
        "d_c1": out.d_c1,
        "eta": out.eta,
        "margin_target": out.margin_target,
        "moved_count": out.moved_count,
        "config": out.config.to_json(),
        "out_complex": complex_to_dict(out.out_complex),
        "images": out.plmap.images.tolist(),
        "subdivision": subdivision_to_dict(out.subdivision),
        "report": report_to_dict(out.report),
    }


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def resolve_complex_ref(ref) -> SimplicialComplex:
    if isinstance(ref, str):
        return builtin_complex(ref)
    if isinstance(ref, dict):
        return complex_from_dict(ref)
    raise _Schema("complex reference must be a builtin name or an object")


def load_scenario(obj: dict) -> dict:
    """Resolve a scenario file into live objects.

    Returns a dict with keys complex, distribution, config, map (PLMap or
    None), and the relative/subdivision extras (a, b, v_radius, refinement,
    levels) when present.
    """
    complex_ = resolve_complex_ref(_expect(obj, "complex", (str, dict)))
    dist = distribution_from_dict(_expect(obj, "distribution", dict))
    config = config_from_dict(_expect(obj, "config", dict))
    out = {"complex": complex_, "distribution": dist, "config": config}
    out["map"] = (plmap_from_dict(_expect(obj, "map", dict)) if "map" in obj
                  else PLMap.identity(complex_))
    if "refinement" in obj:
        out["refinement"] = resolve_complex_ref(obj["refinement"])
    for key in ("a", "b"):
        if key in obj:
            out[key] = _id_tuples(obj[key], key)
    if "v_radius" in obj:
        with _parsing("v_radius"):
            out["v_radius"] = float(obj["v_radius"])
    if "levels" in obj:
        with _parsing("levels"):
            out["levels"] = [operator.index(lv) for lv in obj["levels"]]
    return out


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_CANVAS = 640.0
_MARGIN = 40.0
_GLYPH_GRID = 12


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_svg(complex_: SimplicialComplex, images: np.ndarray | None = None,
               distribution: Distribution | None = None,
               failing=()) -> str:
    """Draw a 2D complex (optionally through a map) as a deterministic SVG.

    Triangles become polygons, edges thin strokes; ``distribution`` adds a
    regular grid of short direction glyphs; simplices listed in ``failing``
    (as sorted vertex-id tuples) are filled in the alarm color.
    """
    if complex_.ambient_dim != 2:
        raise UnsupportedDimension(
            f"rendering needs ambient dimension 2, got {complex_.ambient_dim}"
        )
    pts = np.asarray(images if images is not None else complex_.vertices,
                     dtype=float)
    if pts.size:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (_CANVAS - 2 * _MARGIN) / span

    def to_px(p):
        x = _MARGIN + (p[0] - lo[0]) * scale
        y = _CANVAS - _MARGIN - (p[1] - lo[1]) * scale
        return x, y

    bad = {tuple(sorted(s)) for s in failing}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        f'<rect width="{int(_CANVAS)}" height="{int(_CANVAS)}" fill="#ffffff"/>',
    ]
    tris = sorted(s for s in complex_.top_simplices if len(s) == 3)
    for s in tris:
        fill = "#f2b8b5" if tuple(sorted(s)) in bad else "#dbe9f6"
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(pts[v]) for v in s)
        )
        parts.append(f'<polygon points="{coords}" fill="{fill}" '
                     f'stroke="#46627f" stroke-width="1.0"/>')
    edges = sorted({tuple(sorted((s[i], s[j])))
                    for s in complex_.top_simplices
                    for i in range(len(s)) for j in range(i + 1, len(s))})
    for u, v in edges:
        color = "#b3261e" if (u, v) in bad else "#46627f"
        (x1, y1), (x2, y2) = to_px(pts[u]), to_px(pts[v])
        parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                     f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="1.0"/>')
    if distribution is not None:
        if distribution.ambient_dim != 2:
            raise UnsupportedDimension("glyphs need a plane field on R^2")
        half = 0.5 * span / _GLYPH_GRID * 0.7
        for gj in range(_GLYPH_GRID):
            for gi in range(_GLYPH_GRID):
                cx = lo[0] + (gi + 0.5) / _GLYPH_GRID * span
                cy = lo[1] + (gj + 0.5) / _GLYPH_GRID * span
                plane = distribution.plane_at(np.array([cx, cy]))
                for row in plane.basis:
                    (x1, y1) = to_px((cx - half * row[0], cy - half * row[1]))
                    (x2, y2) = to_px((cx + half * row[0], cy + half * row[1]))
                    parts.append(
                        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                        f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#2e7d32" '
                        f'stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_complex_arg(ref: str) -> SimplicialComplex:
    if _NAME_RE.match(ref) and ref.split("(")[0] in _COMPLEX_BUILDERS:
        return builtin_complex(ref)
    return complex_from_dict(load_json(ref))


def _read_distribution_arg(ref: str, ambient_dim: int) -> Distribution:
    """The field named by ``ref``; it must live in R^ambient_dim, where the
    images it is checked against do."""
    if os.path.exists(ref):
        xi = distribution_from_dict(load_json(ref))
    else:
        xi = builtin_distribution(ref)
    if xi.ambient_dim != ambient_dim:
        raise AmbientMismatch(
            f"images live in R^{ambient_dim}, the field {ref!r} in "
            f"R^{xi.ambient_dim}"
        )
    return xi


def cmd_subdivide(args) -> int:
    complex_ = _read_complex_arg(args.input)
    if args.levels < 0:
        raise PreconditionViolated("--levels must be >= 0")
    if args.scheme == "crystalline":
        child, smap = crystalline_subdivide(complex_, args.levels)
    else:
        child, smap = crystalline_subdivide(complex_, 0)
        for _ in range(args.levels):
            child, step = barycentric_subdivide(child)
            smap = compose_subdivisions(smap, step)
    save_json(args.output, {
        "schema_version": SCHEMA_VERSION,
        "kind": "subdivision_result",
        "scheme": args.scheme,
        "levels": args.levels,
        "complex": complex_to_dict(child),
        "subdivision": subdivision_to_dict(smap),
    })
    return 0


def cmd_jiggle(args) -> int:
    scenario = load_scenario(load_json(args.scenario))
    overrides = {}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    env_seed = os.environ.get("JIGGLEKIT_SEED")
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif env_seed:
        with _parsing("JIGGLEKIT_SEED"):
            overrides["seed"] = int(env_seed)
    cfg = JigglingConfig(**{**scenario["config"].to_json(), **overrides})
    complex_ = scenario["complex"]
    dist = scenario["distribution"]
    if args.mode == "euclidean":
        out = jiggle_euclidean(scenario["map"], complex_, dist, cfg)
        bundle = outcome_to_dict(out, args.mode)
    elif args.mode == "tower":
        levels = scenario.get("levels", [2, 3, 4])
        outs = jiggle_tower(scenario["map"], complex_, dist, cfg, levels)
        bundle = {
            "schema_version": SCHEMA_VERSION,
            "kind": "outcome_tower",
            "outcomes": [outcome_to_dict(o, "euclidean") for o in outs],
        }
    elif args.mode == "subdivision":
        refinement = scenario.get("refinement", complex_)
        out = jiggle_subdivision(complex_, refinement, dist, cfg)
        bundle = outcome_to_dict(out, args.mode)
    else:
        out = jiggle_relative(
            scenario["map"], complex_, dist, cfg.gamma,
            a=scenario.get("a", []), b=scenario.get("b", []),
            v_radius=scenario.get("v_radius", 0.0), config=cfg,
        )
        bundle = outcome_to_dict(out, args.mode)
    save_json(args.output, bundle)
    return 0


def cmd_verify(args) -> int:
    complex_ = _read_complex_arg(args.complex)
    f = (plmap_from_dict(load_json(args.map)) if args.map
         else PLMap.identity(complex_))
    xi = _read_distribution_arg(args.distribution, f.target_dim)
    images = f.images
    if args.notion == "report":
        report = transversality_report(f.domain, images, xi)
        payload = {**report_to_dict(report), "schema_version": SCHEMA_VERSION,
                   "kind": "report"}
        ok = report.passed
    else:
        tops = f.domain.top_simplices
        if args.notion == "transverse":
            verdicts = []
            for top in tops:
                pts = images[list(top)]
                probes = probe_points(pts, xi, DEFAULT_SAMPLE_DEPTH)
                verdicts.append(all(simplex_transverse(pts, xi.plane_at(x))
                                    for x in probes))
        else:
            # stratified transverse at every probe is general position
            verdicts = _general_position_each([images[list(top)] for top in tops], xi,
                                              DEFAULT_SAMPLE_DEPTH)[0].tolist()
        checks = [{"simplex": list(top), "ok": bool(ok_top)}
                  for top, ok_top in zip(tops, verdicts)]
        ok = all(c["ok"] for c in checks)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "verify",
            "notion": args.notion,
            "checks": checks,
            "pass": bool(ok),
        }
    if args.output:
        save_json(args.output, payload)
    else:
        sys.stdout.write(canonical_json(payload))
    return 0 if ok else EXIT_FAIL


def cmd_render(args) -> int:
    complex_ = _read_complex_arg(args.complex)
    images = None
    if args.map:
        f = plmap_from_dict(load_json(args.map))
        complex_ = f.domain
        images = f.images
    pts = images if images is not None else complex_.vertices
    xi = (_read_distribution_arg(args.distribution, pts.shape[1])
          if args.distribution else None)
    failing = []
    if args.report:
        for rec in _expect(load_json(args.report), "records", list):
            simplex = tuple(_expect(rec, "simplex", list))
            if rec.get("transverse") is False or \
                    rec.get("general_position") is False:
                failing.append(simplex)
    elif xi is not None:
        tops = complex_.top_simplices
        ok, _ = _general_position_each([np.asarray(pts)[list(top)] for top in tops], xi,
                                       DEFAULT_SAMPLE_DEPTH)
        failing = [top for top, good in zip(tops, ok.tolist()) if not good]
    svg = render_svg(complex_, images=images, distribution=xi, failing=failing)
    with open(args.svg, "w") as fh:
        fh.write(svg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jigglekit",
        description="subdivide, jiggle, verify, and render simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="subdivide a complex")
    p.add_argument("input", help="complex JSON file or builtin like unit_square_grid(2)")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--scheme", choices=("crystalline", "barycentric"),
                   default="crystalline")
    p.add_argument("output")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("jiggle", help="run a jiggling scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--mode", choices=("euclidean", "tower", "relative",
                                      "subdivision"), default="euclidean")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("output")
    p.set_defaults(func=cmd_jiggle)

    p = sub.add_parser("verify", help="check a map against a plane field")
    p.add_argument("complex", help="complex JSON file or builtin name")
    p.add_argument("distribution", help="distribution JSON file or builtin name")
    p.add_argument("--map", default=None, help="PLMap JSON file (default identity)")
    p.add_argument("--notion", choices=("transverse", "stratified",
                                        "general-position", "report"),
                   default="report")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a 2D complex to SVG")
    p.add_argument("complex", help="complex JSON file or builtin name")
    p.add_argument("--map", default=None)
    p.add_argument("--distribution", default=None)
    p.add_argument("--report", default=None,
                   help="report JSON whose failing simplices get highlighted")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}",
              file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetViolation as exc:
        print(f"budget violation: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PerturbationFailed, EmbeddingLost, CollarTooSmall, LevelExhausted,
            SkeletonViolation, VolumeMismatch) as exc:
        print(f"jiggling failed: {exc}", file=sys.stderr)
        return EXIT_PERTURBATION
    except JiggleKitError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
