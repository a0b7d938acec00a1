"""Byte oracle of the outcome-bundle writer.

``cli.report_to_dict`` writes its records, and ``cli.subdivision_to_dict``
its vertex supports, as text straight from arrays.  The dict
forms below are what that text replaced (the report's was its
``to_json``); written by ``json.dumps(sort_keys=True, separators=(",",
":"))`` they must give the same bytes, on every benchmark scene and on
hand-built edge cases.
"""

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from jigglekit import cli
from jigglekit.cli import (
    SCHEMA_VERSION,
    canonical_json,
    main,
    outcome_to_dict,
    report_to_dict,
    strip,
    subdivision_to_dict,
    unit_square_grid,
    vertical_twist,
)
from jigglekit.complexes import barycentric_subdivide, crystalline_subdivide
from jigglekit.transversality import TransversalityReport, transversality_report

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# the dict forms
# ---------------------------------------------------------------------------

def reference_report(report: TransversalityReport) -> dict:
    """One dict per record, from the columns' ``tolist()``."""
    rows = zip(report.records, report.transverse.tolist(), report.eps_margin.tolist(),
               report.semitrans_margin.tolist())
    return {
        "records": [{
            "simplex": list(s),
            "dim": len(s) - 1,
            "transverse": ok,
            "eps_margin": None if math.isinf(eps) else eps,
            "semitrans_margin": None if math.isnan(semi) else semi,
            "general_position": ok if len(s) > 1 else None,
            "certified": not math.isnan(semi),
        } for s, ok, eps, semi in rows],
        "min_eps_margin": None if np.isinf(report.min_eps_margin) else report.min_eps_margin,
        "min_semitrans_margin": report.min_semitrans_margin,
        "margin_tol": report.margin_tol,
        "sampled": report.sampled,
        "pass": report.passed,
    }


def reference_subdivision(smap) -> dict:
    common = np.gcd(smap.weights, smap.denominator)
    rows = zip(smap.ids.tolist(), (smap.weights // common).tolist(),
               (smap.denominator // common).tolist())
    support = {str(vid): [[gid, [num, den]] for gid, num, den in zip(*row) if gid >= 0]
               for vid, row in enumerate(rows)}
    return {"schema_version": SCHEMA_VERSION, "kind": "subdivision",
            "vertex_support": support}


def reference_complex(complex_) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "complex",
            "ambient_dim": complex_.ambient_dim,
            "vertices": complex_.vertices.tolist(),
            "top_simplices": [list(s) for s in complex_.top_simplices]}


def reference_outcome(out, mode: str) -> dict:
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
        "out_complex": reference_complex(out.out_complex),
        "images": out.plmap.images.tolist(),
        "subdivision": reference_subdivision(out.subdivision),
        "report": reference_report(out.report),
    }


# ---------------------------------------------------------------------------
# whole bundles
# ---------------------------------------------------------------------------

def jiggle_against_oracle(tmp_path, monkeypatch, mode: str, scenario: dict):
    """Run ``jigglekit jiggle`` and compare its bundle's bytes with the dict
    forms of the outcomes it wrote; return those outcomes."""
    seen = []

    def capture(out, out_mode):
        seen.append((out, out_mode))
        return outcome_to_dict(out, out_mode)

    monkeypatch.setattr(cli, "outcome_to_dict", capture)
    path, bundle = tmp_path / "scenario.json", tmp_path / "bundle.json"
    path.write_text(json.dumps(scenario))
    assert main(["jiggle", str(path), "--mode", mode, str(bundle)]) == 0
    outcomes = [reference_outcome(out, out_mode) for out, out_mode in seen]
    want = ({"schema_version": SCHEMA_VERSION, "kind": "outcome_tower", "outcomes": outcomes}
            if mode == "tower" else outcomes[0])
    assert bundle.read_bytes() == dumps(want)
    return [out for out, _ in seen]


SMOKE_PARTS = [part for parts in WORKLOADS.SMOKE.values() for part in parts]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("part", SMOKE_PARTS, ids=[p.label for p in SMOKE_PARTS])
def test_smoke_bundles_match_the_dict_form(tmp_path, monkeypatch, part, seed):
    outs = jiggle_against_oracle(tmp_path, monkeypatch, part.mode,
                                 WORKLOADS.scenario(part, seed))
    assert len(outs) == len(part.expect)


def test_three_level_tower_bundle_matches_the_dict_form(tmp_path, monkeypatch):
    (part,) = WORKLOADS.WORKLOADS["tower"]
    outs = jiggle_against_oracle(tmp_path, monkeypatch, "tower",
                                 WORKLOADS.scenario(part, WORKLOADS.DEFAULT_SEED))
    assert [out.level for out in outs] == [2, 3, 4]
    # some records carry certificates, others not
    certified = np.concatenate([~np.isnan(out.report.semitrans_margin) for out in outs])
    assert certified.any() and not certified.all()


# ---------------------------------------------------------------------------
# hand-built reports
# ---------------------------------------------------------------------------

def hand_report(records, transverse, eps, semi, **fields) -> TransversalityReport:
    return TransversalityReport(
        records=records, transverse=np.array(transverse, dtype=bool),
        eps_margin=np.array(eps, dtype=float), semitrans_margin=np.array(semi, dtype=float),
        **fields)


def assert_report_bytes(report):
    assert canonical_json(report_to_dict(report)).encode() == dumps(reference_report(report))


def test_report_margins_keep_their_special_values():
    nan, inf = math.nan, math.inf
    specials = [nan, inf, -inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -2.5e-7, 1.0]
    # every margin in each column, against a certificate and without one
    records = [(i, i + 1) for i in range(len(specials) ** 2)]
    eps = [e for e in specials for _ in specials]
    semi = [s for _ in specials for s in specials]
    transverse = [i % 3 != 0 for i in range(len(records))]
    report = hand_report(records, transverse, eps, semi, min_eps_margin=-0.0,
                         min_semitrans_margin=-inf, margin_tol=1e-9, sampled=False,
                         passed=True)
    assert_report_bytes(report)
    text = canonical_json(report_to_dict(report))
    for token in ('"eps_margin":NaN', '"eps_margin":null', '"eps_margin":-0.0',
                  '"semitrans_margin":Infinity', '"semitrans_margin":-Infinity',
                  '"semitrans_margin":-0.0', '"semitrans_margin":null', '"min_eps_margin":-0.0'):
        assert token in text


def test_an_empty_report_and_an_infinite_minimum():
    report = hand_report([], [], [], [])
    assert report.min_eps_margin == math.inf
    assert_report_bytes(report)
    assert json.loads(canonical_json(report_to_dict(report)))["records"] == []


def test_vertex_records_have_no_general_position():
    report = hand_report([(0,), (7,), (12,)], [True, False, True], [math.inf, 0.5, -0.0],
                         [math.nan, 0.25, math.nan], min_semitrans_margin=0.25)
    assert_report_bytes(report)
    records = json.loads(canonical_json(report_to_dict(report)))["records"]
    assert [r["general_position"] for r in records] == [None, None, None]
    assert [r["dim"] for r in records] == [0, 0, 0]


def test_mixed_dimensions_in_any_order():
    report = hand_report([(0, 1, 2), (3,), (4, 5), (6, 7, 8, 9), (10,)],
                         [True, True, False, True, False], [0.5, math.inf, 0.0, 1e-3, 2.0],
                         [math.nan, math.nan, 0.125, math.nan, -1.0])
    assert_report_bytes(report)


def test_a_real_report_with_certificates():
    K = unit_square_grid(2)
    certs = {(0, 1): 0.125, (4,): math.inf, K.top_simplices[0]: -0.0}
    report = transversality_report(K, K.vertices, vertical_twist(), certificates=certs)
    assert report.sampled and (~np.isnan(report.semitrans_margin)).sum() == 3
    assert_report_bytes(report)


def test_verify_report_writes_the_dict_form_bytes(tmp_path, monkeypatch):
    """``jigglekit verify --notion report`` goes through the same records
    writer; here on a varying field, with certificates put in."""
    K = strip(2)
    certs = {(0, 1): 0.25, (1, 4): math.nan, K.top_simplices[-1]: 1e-300, (2,): -0.0}
    with_certs = functools.partial(transversality_report, certificates=certs)
    monkeypatch.setattr(cli, "transversality_report", with_certs)
    out = tmp_path / "report.json"
    main(["verify", "strip(2)", "vertical_twist", "--notion", "report",
          "--output", str(out)])
    report = with_certs(K, K.vertices, vertical_twist())
    assert report.sampled and (~np.isnan(report.semitrans_margin)).sum() == 3
    want = {**reference_report(report), "schema_version": SCHEMA_VERSION, "kind": "report"}
    assert out.read_bytes() == dumps(want)


# ---------------------------------------------------------------------------
# subdivision supports and canonical_json
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subdivide", [
    lambda K: crystalline_subdivide(K, 2),
    lambda K: barycentric_subdivide(K),
], ids=["crystalline", "barycentric"])
def test_vertex_supports_are_keyed_in_string_order(subdivide):
    child, smap = subdivide(unit_square_grid(2))
    assert child.num_vertices >= 11
    text = canonical_json(subdivision_to_dict(smap))
    assert text.encode() == dumps(reference_subdivision(smap))
    keys = list(json.loads(text)["vertex_support"])
    assert keys == sorted(map(str, range(child.num_vertices)))
    assert keys.index("10") < keys.index("2")


def test_prebuilt_text_is_never_written_as_a_string():
    with pytest.raises(TypeError):
        json.dumps(report_to_dict(hand_report([(0,)], [True], [1.0], [math.nan])))


def test_keys_that_are_not_strings_are_written_as_json_writes_them():
    obj = {10: 0.5, 2.5: [True], 2: {"b": 1, "a": -0.0}}
    assert canonical_json({"a": obj}).encode() == dumps({"a": obj})
    with pytest.raises(TypeError):
        canonical_json({1: report_to_dict(hand_report([], [], [], []))})
