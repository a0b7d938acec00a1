import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from jigglekit.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_PARSE,
    EXIT_PERTURBATION,
    EXIT_VALIDATION,
    box_grid,
    builtin_complex,
    builtin_distribution,
    canonical_json,
    complex_from_dict,
    complex_to_dict,
    distribution_from_dict,
    main,
    planar_rotor,
    render_svg,
    sampled_distribution,
    standard_simplex,
    strip,
    subdivision_to_dict,
    unit_square_grid,
)
from jigglekit.complexes import crystalline_subdivide
from jigglekit.errors import PreconditionViolated, UnsupportedDimension
from jigglekit.grassmann import Plane, plane_from_spanning
from jigglekit.transversality import Distribution


def diag_distribution_dict():
    d = 1.0 / math.sqrt(2.0)
    return {"type": "constant", "basis": [[d, d]]}


def scenario_dict(**overrides):
    base = {
        "schema_version": 1,
        "kind": "scenario",
        "complex": "unit_square_grid(2)",
        "distribution": diag_distribution_dict(),
        "config": {"gamma": 0.2, "level": 0, "seed": 7},
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_builtin_complex_shapes():
    assert len(unit_square_grid(2).top_simplices) == 8
    assert unit_square_grid(2).num_vertices == 9
    assert len(standard_simplex(3).top_simplices) == 1
    assert len(strip(3).top_simplices) == 6
    assert len(box_grid(1).top_simplices) == 6
    assert len(box_grid(2).top_simplices) == 48


def test_strip_alternates_diagonals():
    S = strip(2)
    edges = {tuple(sorted(e)) for s in S.top_simplices
             for e in zip(s, s[1:] + s[:1])}
    assert (1, 3) in edges  # falling diagonal of the even cell
    assert (1, 5) in edges  # rising diagonal of the odd cell


def test_builtin_complex_parses_names():
    K = builtin_complex("unit_square_grid(3)")
    assert len(K.top_simplices) == 18
    for bad in ("unit_square_grid", "unit_square_grid(x)", "mystery(2)",
                "unit_square_grid(0)"):
        with pytest.raises(PreconditionViolated):
            builtin_complex(bad)


def test_builtin_distribution_names():
    rot = builtin_distribution("planar_rotor(0.25)")
    assert rot.ambient_dim == 3 and rot.rank == 1
    plane = rot.plane_at(np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(plane.basis[0],
                               [math.cos(0.5), math.sin(0.5), 0.0], atol=1e-12)
    twist = builtin_distribution("vertical_twist")
    np.testing.assert_allclose(twist.plane_at(np.zeros(2)).basis[0],
                               [0.0, 1.0], atol=1e-12)
    contact = builtin_distribution("contact_like")
    assert contact.rank == 2
    for bad in ("planar_rotor", "vertical_twist(2)", "unknown_field"):
        with pytest.raises(PreconditionViolated):
            builtin_distribution(bad)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    b = canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_complex_roundtrip():
    K = strip(2)
    K2 = complex_from_dict(json.loads(canonical_json(complex_to_dict(K))))
    np.testing.assert_array_equal(K2.vertices, K.vertices)
    assert K2.top_simplices == K.top_simplices


def test_distribution_roundtrips():
    const = Distribution.constant(Plane(np.array([[0.6, 0.8]])))
    back = distribution_from_dict({"type": "constant", "basis": [[0.6, 0.8]]})
    np.testing.assert_allclose(back.plane_at(np.zeros(2)).basis,
                               const.plane_at(np.zeros(2)).basis, atol=1e-12)

    rot = planar_rotor(0.125)
    rot2 = distribution_from_dict({"type": "builtin", "name": rot.name})
    p = np.array([0.0, 0.0, 3.0])
    np.testing.assert_allclose(rot2.plane_at(p).basis, rot.plane_at(p).basis,
                               atol=1e-12)

    samp = sampled_distribution([[0.0, 0.0], [1.0, 0.0]],
                                [[[1.0, 0.0]], [[0.0, 1.0]]])
    samp2 = distribution_from_dict({"type": "samples",
                                    "points": [[0.0, 0.0], [1.0, 0.0]],
                                    "planes": [[[1.0, 0.0]], [[0.0, 1.0]]]})
    for q in ([0.1, 0.0], [0.9, 0.0]):
        np.testing.assert_allclose(samp2.plane_at(np.array(q)).basis,
                                   samp.plane_at(np.array(q)).basis, atol=1e-12)
    np.testing.assert_allclose(samp2.plane_at(np.array([0.9, 0.0])).basis,
                               [[0.0, 1.0]], atol=1e-12)


def test_subdivision_roundtrip_keeps_exact_fractions():
    K = standard_simplex(2)
    child, smap = crystalline_subdivide(K, 2)
    payload = json.loads(canonical_json(subdivision_to_dict(smap)))
    back = {int(vid): tuple((gid, Fraction(num, den)) for gid, (num, den) in entries)
            for vid, entries in payload["vertex_support"].items()}
    assert back == smap.vertex_support
    assert set(back) == set(range(child.num_vertices))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_svg_deterministic_and_highlights():
    K = unit_square_grid(2)
    failing = [K.top_simplices[0]]
    one = render_svg(K, failing=failing)
    two = render_svg(K, failing=failing)
    assert one == two
    assert one.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640"')
    assert one.count("#f2b8b5") == 1  # exactly the flagged triangle
    assert "%.6f" % 0 not in ("",)  # coordinates carry six decimals
    assert "40.000000" in one


def test_render_svg_draws_field_glyphs():
    K = unit_square_grid(1)
    xi = Distribution.constant(Plane(np.array([[1.0, 0.0]])))
    svg = render_svg(K, distribution=xi)
    assert svg.count("#2e7d32") == 144  # 12 x 12 grid, one segment per site


def test_render_svg_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimension):
        render_svg(box_grid(1))


def test_render_svg_empty_complex_is_valid():
    from jigglekit.complexes import build_complex
    empty = build_complex(2, np.zeros((0, 2)), [])
    svg = render_svg(empty)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


# ---------------------------------------------------------------------------
# command surface
# ---------------------------------------------------------------------------

def test_cmd_subdivide_writes_expected_counts(tmp_path):
    out = tmp_path / "sub.json"
    assert main(["subdivide", "standard_simplex(2)", "--levels", "2",
                 str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["complex"]["top_simplices"]) == 16


def test_cmd_subdivide_level_zero_is_identity(tmp_path):
    out = tmp_path / "sub0.json"
    assert main(["subdivide", "unit_square_grid(2)", "--levels", "0",
                 str(out)]) == 0
    payload = json.loads(out.read_text())
    K = unit_square_grid(2)
    assert payload["complex"]["top_simplices"] == [list(s) for s in K.top_simplices]


def test_cmd_subdivide_barycentric_scheme(tmp_path):
    out = tmp_path / "bary.json"
    assert main(["subdivide", "standard_simplex(2)", "--levels", "1",
                 "--scheme", "barycentric", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["complex"]["top_simplices"]) == 6


@pytest.mark.parametrize("scheme", ["crystalline", "barycentric"])
def test_cmd_subdivide_rejects_negative_levels(tmp_path, scheme):
    out = tmp_path / "neg.json"
    assert main(["subdivide", "unit_square_grid(1)", "--scheme", scheme,
                 "--levels", "-1", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_cmd_jiggle_is_byte_deterministic(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict()))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["jiggle", str(scen), str(out1)]) == 0
    assert main(["jiggle", str(scen), str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    bundle = json.loads(out1.read_text())
    assert bundle["report"]["pass"] is True
    assert bundle["mode"] == "euclidean"


def test_cmd_jiggle_seed_env_override(tmp_path, monkeypatch):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict()))
    out = tmp_path / "out.json"
    monkeypatch.setenv("JIGGLEKIT_SEED", "99")
    assert main(["jiggle", str(scen), str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 99


def test_cmd_jiggle_gamma_zero_exhausts_budget(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict()))
    out = tmp_path / "out.json"
    assert main(["jiggle", str(scen), "--gamma", "0", str(out)]) == EXIT_BUDGET


def test_cmd_jiggle_modes(tmp_path):
    rel = scenario_dict(complex="strip(3)",
                        config={"gamma": 0.2, "level": 0, "seed": 5},
                        a=[[0, 4]])
    scen = tmp_path / "rel.json"
    scen.write_text(json.dumps(rel))
    out = tmp_path / "rel_out.json"
    assert main(["jiggle", str(scen), "--mode", "relative", str(out)]) == 0
    assert json.loads(out.read_text())["moved_count"] == 1

    tow = scenario_dict(config={"gamma": 0.2, "seed": 3}, levels=[1, 2])
    scen2 = tmp_path / "tow.json"
    scen2.write_text(json.dumps(tow))
    out2 = tmp_path / "tow_out.json"
    assert main(["jiggle", str(scen2), "--mode", "tower", str(out2)]) == 0
    bundle = json.loads(out2.read_text())
    assert [o["level"] for o in bundle["outcomes"]] == [1, 2]


def test_cmd_jiggle_parse_and_schema_failures(tmp_path):
    missing = tmp_path / "nothing.json"
    assert main(["jiggle", str(missing), str(tmp_path / "x.json")]) == EXIT_PARSE

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["jiggle", str(bad), str(tmp_path / "x.json")]) == EXIT_PARSE
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["jiggle", str(bad), str(tmp_path / "x.json")]) == EXIT_PARSE

    unschema = tmp_path / "unschema.json"
    unschema.write_text(json.dumps({"complex": "unit_square_grid(2)"}))
    assert main(["jiggle", str(unschema), str(tmp_path / "x.json")]) == EXIT_VALIDATION

    extra = scenario_dict(config={"gamma": 0.2, "surprise": 1})
    scen = tmp_path / "extra.json"
    scen.write_text(json.dumps(extra))
    assert main(["jiggle", str(scen), str(tmp_path / "x.json")]) == EXIT_VALIDATION


def test_cmd_verify_notions(tmp_path):
    dist = tmp_path / "diag.json"
    dist.write_text(json.dumps(dict(diag_distribution_dict(),
                                    schema_version=1, kind="distribution")))
    # identity grid against the diagonal field: every cell has a tangent edge
    assert main(["verify", "unit_square_grid(2)", str(dist),
                 "--notion", "general-position",
                 "--output", str(tmp_path / "v.json")]) == EXIT_FAIL
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["pass"] is False
    assert all(not c["ok"] for c in payload["checks"])
    # top-level transversality alone is satisfied: triangles span the plane
    assert main(["verify", "unit_square_grid(2)", str(dist),
                 "--notion", "transverse",
                 "--output", str(tmp_path / "t.json")]) == 0


def test_cmd_verify_report_roundtrip(tmp_path):
    dist = tmp_path / "diag.json"
    dist.write_text(json.dumps(diag_distribution_dict()))
    code = main(["verify", "strip(2)", str(dist), "--notion", "report",
                 "--output", str(tmp_path / "rep.json")])
    assert code == EXIT_FAIL  # odd cells carry diagonal-tangent edges
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["kind"] == "report"
    assert any(r["transverse"] is False for r in payload["records"])


def test_cmd_render_writes_deterministic_svg(tmp_path):
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    dist = tmp_path / "diag.json"
    dist.write_text(json.dumps(diag_distribution_dict()))
    args = ["render", "unit_square_grid(2)", "--distribution", str(dist)]
    assert main(args + ["--svg", str(svg1)]) == 0
    assert main(args + ["--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert b"#f2b8b5" in svg1.read_bytes()  # failing cells get highlighted


def test_cmd_render_rejects_3d(tmp_path):
    assert main(["render", "box_grid(1)", "--svg",
                 str(tmp_path / "x.svg")]) == EXIT_VALIDATION


@pytest.mark.parametrize("notion", ["transverse", "stratified",
                                    "general-position", "report"])
def test_cmd_verify_rejects_a_field_of_another_dimension(notion, capsys):
    assert main(["verify", "unit_square_grid(1)", "planar_rotor(0.1)",
                 "--notion", notion]) == EXIT_VALIDATION
    assert "R^3" in capsys.readouterr().err


def test_contact_like_is_a_field_off_the_plane_y_zero(tmp_path):
    plane = builtin_distribution("contact_like").plane_at((0.0, 0.5, 0.0))
    spanned = plane_from_spanning([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])
    assert np.allclose(plane.projector, spanned.projector, atol=1e-12)
    assert main(["verify", "box_grid(1)", "contact_like",
                 "--output", str(tmp_path / "v.json")]) in (0, EXIT_FAIL)


def test_cmd_render_rejects_a_field_of_another_dimension(tmp_path, capsys):
    svg = tmp_path / "x.svg"
    assert main(["render", "unit_square_grid(1)", "--distribution",
                 "planar_rotor(0.1)", "--svg", str(svg)]) == EXIT_VALIDATION
    assert "R^3" in capsys.readouterr().err
    assert not svg.exists()


def test_cmd_render_marks_the_failing_simplices_of_a_report(tmp_path):
    """The complex and the map come from JSON files, the map by its domain;
    a report record that fails either notion marks its triangle."""
    grid = unit_square_grid(2)
    images = grid.vertices + 0.01 * np.sin(7.0 * grid.vertices[:, ::-1])
    complex_file, map_file = tmp_path / "grid.json", tmp_path / "map.json"
    complex_file.write_text(json.dumps(complex_to_dict(grid)))
    map_file.write_text(json.dumps({"domain": complex_to_dict(grid), "images": images.tolist()}))
    tops = grid.top_simplices
    records = [{"simplex": list(tops[1]), "transverse": False, "general_position": False},
               {"simplex": list(tops[4]), "transverse": True, "general_position": False},
               {"simplex": list(tops[5]), "transverse": True, "general_position": True}]
    report = tmp_path / "rep.json"
    report.write_text(json.dumps({"records": records}))
    svg = tmp_path / "pic.svg"
    assert main(["render", str(complex_file), "--map", str(map_file),
                 "--report", str(report), "--svg", str(svg)]) == 0
    want = render_svg(grid, images=images, failing=[tops[1], tops[4]])
    assert svg.read_text() == want
    assert want.count("#f2b8b5") == 2


@pytest.mark.parametrize("mode, extra, message", [
    ("euclidean", {"complex": "box_grid(1)",
                   "distribution": {"type": "builtin", "name": "planar_rotor(100.0)"},
                   "config": {"gamma": 0.2, "level_max": 0}}, "no level <= 0 works"),
    ("relative", {"complex": "strip(3)", "b": [[0, 4]], "v_radius": 1e-6,
                  "config": {"gamma": 0.2, "level": 1, "seed": 7}},
     "leaves the radius-1e-06 neighborhood"),
], ids=["level-exhausted", "collar-too-small"])
def test_cmd_jiggle_exits_4_when_jiggling_fails(tmp_path, capsys, mode, extra, message):
    """No level up to ``level_max`` fits a fast rotor (LevelExhausted), and
    a collar of radius 1e-6 is too small for ``strip(3)``'s level-1 cells
    (CollarTooSmall)."""
    scen, out = tmp_path / "scen.json", tmp_path / "out.json"
    scen.write_text(json.dumps(scenario_dict(**extra)))
    assert main(["jiggle", str(scen), "--mode", mode, str(out)]) == EXIT_PERTURBATION
    err = capsys.readouterr().err
    assert err.startswith("jiggling failed: ") and message in err
    assert not out.exists()


def test_outcome_bundle_feeds_verify_and_render(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(scenario_dict()))
    out = tmp_path / "out.json"
    assert main(["jiggle", str(scen), str(out)]) == 0
    dist = tmp_path / "diag.json"
    dist.write_text(json.dumps(diag_distribution_dict()))
    # the jiggled bundle should verify clean against the same field
    assert main(["verify", "unit_square_grid(2)", str(dist),
                 "--map", str(out), "--notion", "general-position"]) == 0
    svg = tmp_path / "pic.svg"
    assert main(["render", "unit_square_grid(2)", "--map", str(out),
                 "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_cmd_jiggle_ambient_mismatch_at_auto_level(tmp_path):
    # a 3D field on a planar complex: auto level selection must not probe
    # the field before the dimension check
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict(
        complex="unit_square_grid(1)",
        distribution={"type": "builtin", "name": "planar_rotor(0.0001)"},
        config={"gamma": 0.2})))
    for mode in ("euclidean", "relative"):
        out = tmp_path / f"{mode}.json"
        assert main(["jiggle", str(scen), "--mode", mode,
                     str(out)]) == EXIT_VALIDATION
        assert not out.exists()


def test_cmd_jiggle_rejects_non_finite_config(tmp_path):
    # a NaN margin floor used to disable the floor silently, and --gamma nan
    # was blamed on the field
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict(
        config={"gamma": 0.2, "margin_floor": math.nan})))
    out = tmp_path / "out.json"
    assert main(["jiggle", str(scen), str(out)]) == EXIT_VALIDATION
    scen.write_text(json.dumps(scenario_dict()))
    assert main(["jiggle", str(scen), "--gamma", "nan",
                 str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_cmd_jiggle_rejects_non_integer_counts(tmp_path):
    scen = tmp_path / "scen.json"
    out = tmp_path / "out.json"
    for field in ("samples", "sample_depth", "level_max", "seed", "level"):
        scen.write_text(json.dumps(scenario_dict(
            config={"gamma": 0.2, "level": 0, "seed": 7, field: 2.5})))
        assert main(["jiggle", str(scen), str(out)]) == EXIT_VALIDATION
        assert not out.exists()


def test_cmd_jiggle_rejects_a_negative_seed(tmp_path, capsys):
    # seed -1 used to exit 1 with numpy's "expected non-negative integer"
    scen = tmp_path / "scen.json"
    out = tmp_path / "out.json"
    scen.write_text(json.dumps(scenario_dict(config={"gamma": 0.2, "level": 2, "seed": -1})))
    assert main(["jiggle", str(scen), str(out)]) == EXIT_VALIDATION
    assert "seed must be nonnegative" in capsys.readouterr().err
    scen.write_text(json.dumps(scenario_dict()))
    assert main(["jiggle", str(scen), "--seed", "-1", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_malformed_input_still_exits_with_validation(tmp_path, monkeypatch):
    scen = tmp_path / "scen.json"
    out = tmp_path / "out.json"
    ragged = {"ambient_dim": 2, "vertices": [[0.0, 0.0], [1.0], [0.0, 1.0]],
              "top_simplices": [[0, 1, 2]]}
    bad = [
        scenario_dict(complex=ragged),
        scenario_dict(complex=dict(ragged, vertices=[[0, 0], [1, 0], [0, 1]],
                                   top_simplices=[[0, 1.5, 2]])),
        scenario_dict(config={"gamma": "lots"}),
        scenario_dict(levels=[1, 2.5]),
        scenario_dict(levels=3),
        scenario_dict(a=[[0, "x"]]),
        scenario_dict(v_radius="wide"),
        scenario_dict(distribution={"type": "constant", "basis": [[1.0], [0.0, 1.0]]}),
        scenario_dict(map={"domain": {"ambient_dim": 2, "vertices": [[0, 0]],
                                      "top_simplices": [[0]]},
                           "images": [1.0]}),
    ]
    for obj in bad:
        scen.write_text(json.dumps(obj))
        assert main(["jiggle", str(scen), "--mode", "tower", str(out)]) == \
            EXIT_VALIDATION, obj
    scen.write_text(json.dumps(scenario_dict()))
    monkeypatch.setenv("JIGGLEKIT_SEED", "abc")
    assert main(["jiggle", str(scen), str(out)]) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("mode, extra", [
    ("tower", {"levels": [True]}),
    ("tower", {"levels": [1, False]}),
    ("relative", {"complex": "strip(3)", "b": [[3, 7]], "v_radius": math.nan}),
    ("relative", {"complex": "strip(3)", "b": [[3, 7]], "v_radius": "nan"}),
    ("relative", {"complex": "strip(3)", "b": [[3, 7]], "v_radius": -1}),
], ids=["level-true", "level-false", "radius-nan", "radius-nan-text", "radius-negative"])
def test_levels_and_collar_radius_exit_with_validation(tmp_path, mode, extra):
    """A boolean level and a collar radius that is not a finite nonnegative
    number are bad input, as a boolean config level is."""
    scen, out = tmp_path / "scen.json", tmp_path / "out.json"
    scen.write_text(json.dumps(scenario_dict(**extra)))
    assert main(["jiggle", str(scen), "--mode", mode, str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_program_errors_are_not_reported_as_bad_input(tmp_path, monkeypatch):
    # only outside input is turned into exit 3; a TypeError raised inside
    # the pipeline is a bug and must surface as one
    import jigglekit.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cli, "jiggle_euclidean", broken)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict()))
    with pytest.raises(TypeError, match="bug"):
        main(["jiggle", str(scen), str(tmp_path / "out.json")])


def test_cmd_jiggle_seed_flag_beats_env(tmp_path, monkeypatch):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_dict()))
    out = tmp_path / "out.json"
    monkeypatch.setenv("JIGGLEKIT_SEED", "99")
    assert main(["jiggle", str(scen), "--seed", "5", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 5


def test_readme_library_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
