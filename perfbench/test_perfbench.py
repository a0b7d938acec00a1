"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke sizes in workloads.SMOKE run through the same code as a real run
(``run.measure``), at a size a test can afford.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    result = run.measure(name, workloads.SMOKE[name], 1, 0.0, trace,
                         str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        produced = set(tracing.scene_layers(tracing.Tracer(0)))
        produced |= {"cli.bundle_bytes", "trace.overhead_frac"}
        assert produced == {m["name"] for m in declared}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _smoke_bundle(directory, part, seed):
    scenes = run.Scenes([part], seed, str(directory))
    scenes.run()
    assert scenes.failed == 0
    with open(os.path.join(str(directory), f"bundle-0-{part.label}.json")) as fh:
        return json.load(fh)


def _pins_of(bundle):
    return tuple({"images_sha256": workloads.images_sha256(o["images"]),
                  "min_eps_margin": o["report"]["min_eps_margin"],
                  "d_c0": o["d_c0"], "d_c1": o["d_c1"]}
                 for o in workloads.outcomes(bundle))


@pytest.mark.parametrize("key, tamper", [
    ("images_sha256", lambda v: "0" * 64),
    ("d_c1", lambda v: v * (1 + 1e-9)),
    ("min_eps_margin", lambda v: v * (1 - 1e-9)),
])
def test_tampered_pin_registers_as_failure(tmp_path, key, tamper):
    part = workloads.SMOKE["rotor"][0]
    seed = workloads.DEFAULT_SEED  # pins are checked at this seed only
    pins = _pins_of(_smoke_bundle(tmp_path, part, seed))
    tampered = (dict(pins[0], **{key: tamper(pins[0][key])}),)
    for candidate, failures in ((pins, 0), (tampered, 1)):
        scenes = run.Scenes([dataclasses.replace(part, pins=candidate)], seed,
                            str(tmp_path))
        scenes.run()
        assert scenes.failed == failures


def test_unexpected_move_count_registers_as_failure(tmp_path):
    part = workloads.SMOKE["rotor"][0]
    level, cells, moved = part.expect[0]
    bad = dataclasses.replace(part, expect=((level, cells, moved + 1),))
    scenes = run.Scenes([bad], 3, str(tmp_path))
    scenes.run()
    assert scenes.failed == 1


def _jigglekit_objects():
    from jigglekit import grassmann, transversality

    objects = {(name, key): value
               for name, mod in sys.modules.items()
               if name == "jigglekit" or name.startswith("jigglekit.")
               for key, value in vars(mod).items()}
    objects["Plane.__init__"] = grassmann.Plane.__dict__["__init__"]
    objects["Distribution.plane_at"] = transversality.Distribution.__dict__["plane_at"]
    return objects


def test_traced_run_restores_every_attribute(tmp_path):
    scenes = run.Scenes(workloads.SMOKE["carriers"], 2, str(tmp_path))
    before = _jigglekit_objects()
    with tracing.Tracer(0) as tracer:
        during = _jigglekit_objects()
        assert any(during[k] is not v for k, v in before.items())
        scenes.run(tracer)
    after = _jigglekit_objects()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not tracer.missing
    assert tracer.counts["engine.jiggle_subdivision"] == 1
    assert tracer.counts["grassmann.Plane.__init__"] > 0
    assert scenes.failed == 0


def test_traced_scene_matches_untraced_bundle(tmp_path):
    scenes = run.Scenes(workloads.SMOKE["tower"], 4, str(tmp_path))
    scenes.run()
    with tracing.Tracer(1) as tracer:
        scenes.run(tracer)
    assert scenes.failed == 0
    layers = tracing.scene_layers(tracer)
    expect = workloads.SMOKE["tower"][0].expect
    assert layers["engine.cells"] == sum(cells for _, cells, _ in expect)
    assert 0 < layers["transversality.report_s"] < layers["trace.scene_s"]


def test_sampler_scales_wall_time_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(0.1)
    with sampler:
        stop = time.perf_counter() + 0.35
        while time.perf_counter() < stop:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 2
    assert 0 < sampler.scaled() < 10 * sampler.wall


def test_without_sources_exits_nonzero_and_prints_no_result():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "rotor",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                              timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_predictions_name_every_declared_metric():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    predicted = [m for p in baseline["predictions"] for m in p["metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    for prediction in baseline["predictions"]:
        assert set(prediction["moves"]) <= end_to_end
        assert set(prediction["workloads"] + prediction["unchanged_on"]) <= \
            set(workloads.WORKLOADS)
