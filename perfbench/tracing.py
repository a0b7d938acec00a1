"""Spans and counters around jigglekit's layers, installed only while tracing.

A :class:`Tracer` replaces chosen functions of the ``jigglekit`` modules by
wrappers while it is active and puts the original objects back when it
exits.  A function imported by name into another module is replaced there
too, so calls through either name are seen.  Hot primitives get count-only
wrappers; coarser boundaries get timed spans, each recorded as
``(name, start, end, parent, scene)`` in memory.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, kind): "span" records a timed span, "count" only
# counts calls.  A dotted attribute is a method, replaced on its class.
TARGETS = [
    ("cli", "load_scenario", "span"),
    ("cli", "outcome_to_dict", "span"),
    ("cli", "save_json", "span"),
    ("engine", "jiggle_euclidean", "span"),
    ("engine", "jiggle_tower", "span"),
    ("engine", "jiggle_subdivision", "span"),
    ("engine", "jiggle_relative", "span"),
    # the only private target: it alone knows which vertices are frozen
    ("engine", "_run_vertex_induction", "span"),
    ("perturb", "perturb_vertex", "span"),
    ("perturb", "avoid_flats", "count"),
    ("transversality", "transversality_report", "span"),
    ("transversality", "general_position", "count"),
    ("transversality", "Distribution.plane_at", "count"),
    ("transversality", "simplex_transverse", "count"),
    ("transversality", "semitrans_margin", "count"),
    ("grassmann", "Plane.__init__", "count"),
    ("grassmann", "plane_from_spanning", "count"),
    ("grassmann", "affine_span", "count"),
    ("grassmann", "is_transverse_planes", "count"),
    ("grassmann", "d_proj", "count"),
    ("plmaps", "is_piecewise_embedding", "span"),
    ("plmaps", "distance", "span"),
    ("plmaps", "complex_subdivides", "span"),
    ("complexes", "find_interior_overlap", "span"),
    ("complexes", "relative_interiors_intersect", "count"),
    ("complexes", "shape_stats", "span"),
    ("complexes", "crystalline_subdivide", "span"),
    ("complexes", "barycentric_subdivide", "span"),
    ("complexes", "compose_subdivisions", "span"),
]

PACKAGE = "jigglekit"

# one pipeline run each; jiggle_tower only calls jiggle_euclidean per level
ENGINE_CALLS = ("engine.jiggle_euclidean", "engine.jiggle_subdivision",
                "engine.jiggle_relative")
ENGINE_SPANS = ENGINE_CALLS + ("engine.jiggle_tower",)


class Tracer:
    """Records the spans and call counts of one scene while it is active."""

    def __init__(self, scene: int):
        self.scene = scene
        self.spans: list[list] = []   # [name, start, end, parent, scene]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.scene])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    # -- wrappers -----------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _wrap(self, name: str, kind: str, original):
        tracer = self
        observe = OBSERVERS.get(name)
        if kind == "count":
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                if observe is not None:
                    observe(tracer, args, kwargs, None)
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        for mod_name, attr, kind in TARGETS:
            name = f"{mod_name}.{attr}"
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, kind, cls.__dict__[meth]))
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output -------------------------------------------------------------

    def write_spans(self, fh) -> None:
        """Append this scene's spans to an open file, one JSON object a line."""
        for name, start, end, parent, scene in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "scene": scene}) + "\n")


# Per-call observations beyond the call count, keyed by target name.  Each
# gets (tracer, args, kwargs, result) and adds to tracer.counts.

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe_overlap(t, args, kwargs, result):
    t.counts["complexes.overlap_simplices"] += len(_arg(args, kwargs, 0, "simplices"))


def _observe_avoid(t, args, kwargs, result):
    t.counts["perturb.flats"] += len(_arg(args, kwargs, 2, "flats"))


def _observe_perturb(t, args, kwargs, result):
    t.counts["perturb.moved_calls"] += int(result.moved > 0)


def _observe_report(t, args, kwargs, result):
    t.counts["transversality.report_records"] += len(result.records)


def _observe_induction(t, args, kwargs, result):
    t.counts["engine.nonfrozen"] += int((~_arg(args, kwargs, 3, "frozen")).sum())


def _observe_outcome(t, args, kwargs, result):
    t.counts["engine.cells"] += len(result.out_complex.top_simplices)
    t.counts["engine.vertices"] += result.out_complex.num_vertices
    t.counts["engine.moved_vertices"] += result.moved_count


OBSERVERS = {
    "complexes.find_interior_overlap": _observe_overlap,
    "perturb.avoid_flats": _observe_avoid,
    "perturb.perturb_vertex": _observe_perturb,
    "transversality.transversality_report": _observe_report,
    "engine._run_vertex_induction": _observe_induction,
    **{name: _observe_outcome for name in ENGINE_CALLS},
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced scene
# ---------------------------------------------------------------------------

def _outermost_time(spans, names, members) -> float:
    """Summed duration of spans in ``names`` not nested in another of them."""
    total = 0.0
    for i in members:
        name, start, end, parent, _ = spans[i]
        if name not in names:
            continue
        p = parent
        while p is not None and spans[p][0] not in names:
            p = spans[p][3]
        if p is None:
            total += end - start
    return total


def _self_time(spans, names, members) -> float:
    """Summed self time of spans in ``names``: duration minus direct children."""
    child_time: Counter = Counter()
    for i in members:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
    return sum(spans[i][2] - spans[i][1] - child_time[i]
               for i in members if spans[i][0] in names)


def _under(spans, root: int, members) -> list[int]:
    out = []
    for i in members:
        p = spans[i][3]
        while p is not None and p != root:
            p = spans[p][3]
        if p == root:
            out.append(i)
    return out


def scene_layers(tracer: Tracer) -> dict:
    """Per-layer metrics of one scene from its spans and call counts."""
    spans, counts = tracer.spans, tracer.counts
    members = range(len(spans))

    def time(*names):
        return _outermost_time(spans, set(names), members)

    def share(x, base):
        return x / base if base else 0.0

    scene_s = time("scene")
    report_s = time("transversality.transversality_report")
    records = counts["transversality.report_records"]
    shape_calls = counts["complexes.shape_stats"]
    cells = counts["engine.cells"]
    avoid_calls = counts["perturb.avoid_flats"]
    perturb_calls = counts["perturb.perturb_vertex"]
    calls = [i for i in members if spans[i][0] in ENGINE_CALLS]
    first = _under(spans, calls[0], members) if calls else []
    last = _under(spans, calls[-1], members) if calls else []
    last_s = spans[calls[-1]][2] - spans[calls[-1]][1] if calls else 0.0
    return {
        "trace.scene_s": scene_s,
        "cli.load_scenario_s": time("cli.load_scenario"),
        "cli.bundle_s": time("cli.outcome_to_dict", "cli.save_json"),
        "engine.jiggle_s": time(*ENGINE_SPANS),
        "engine.self_s": _self_time(spans, set(ENGINE_SPANS), members),
        "engine.induction_s": time("engine._run_vertex_induction"),
        "engine.cells": cells,
        "engine.vertices": counts["engine.vertices"],
        "engine.moved_vertices": counts["engine.moved_vertices"],
        "engine.search_ratio": share(perturb_calls, counts["engine.nonfrozen"]),
        "engine.first_call_overlap_calls": sum(
            spans[i][0] == "complexes.find_interior_overlap" for i in first),
        "engine.last_call_overlap_share": share(
            _outermost_time(spans, {"complexes.find_interior_overlap"}, last),
            last_s),
        "perturb.vertex_s": time("perturb.perturb_vertex"),
        "perturb.vertex_calls": perturb_calls,
        "perturb.moved_ratio": share(counts["perturb.moved_calls"], perturb_calls),
        "perturb.avoid_flats_calls": avoid_calls,
        "perturb.flats_per_call": share(counts["perturb.flats"], avoid_calls),
        "transversality.report_s": report_s,
        "transversality.report_share": share(report_s, scene_s),
        "transversality.report_records": records,
        "transversality.report_us_per_record": share(1e6 * report_s, records),
        "transversality.general_position_calls":
            counts["transversality.general_position"],
        "transversality.field_evals": counts["transversality.Distribution.plane_at"],
        "transversality.simplex_transverse_calls":
            counts["transversality.simplex_transverse"],
        "transversality.semitrans_margin_calls":
            counts["transversality.semitrans_margin"],
        "grassmann.plane_inits": counts["grassmann.Plane.__init__"],
        "grassmann.plane_from_spanning_calls": counts["grassmann.plane_from_spanning"],
        "grassmann.affine_span_calls": counts["grassmann.affine_span"],
        "grassmann.is_transverse_planes_calls": counts["grassmann.is_transverse_planes"],
        "grassmann.d_proj_calls": counts["grassmann.d_proj"],
        "complexes.overlap_s": time("complexes.find_interior_overlap"),
        "complexes.overlap_calls": counts["complexes.find_interior_overlap"],
        "complexes.overlap_simplices": counts["complexes.overlap_simplices"],
        "complexes.lp_calls": counts["complexes.relative_interiors_intersect"],
        "complexes.shape_stats_calls": shape_calls,
        "complexes.shape_stats_s": time("complexes.shape_stats"),
        "complexes.shape_stats_per_cell": share(shape_calls, cells),
        "complexes.subdivide_s": time("complexes.crystalline_subdivide",
                                      "complexes.barycentric_subdivide",
                                      "complexes.compose_subdivisions"),
        "plmaps.embedding_s": _self_time(
            spans, {"plmaps.is_piecewise_embedding"}, members),
        "plmaps.embedding_calls": counts["plmaps.is_piecewise_embedding"],
        "plmaps.distance_s": time("plmaps.distance"),
        "plmaps.distance_calls": counts["plmaps.distance"],
        "plmaps.subdivides_s": time("plmaps.complex_subdivides"),
    }


def median_layers(per_scene: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in per_scene)
            for key in per_scene[0]}
