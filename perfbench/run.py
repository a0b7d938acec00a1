"""Benchmark of jigglekit: one workload, one process, a closed loop.

    python3 perfbench/run.py --workload rotor --seed 0 --seconds 15 --trace 0

jigglekit is imported from the ``src/`` beside this directory.  A scene
runs every part of the workload (perfbench/workloads.py) through the
documented front end, in-process
``jigglekit.cli.main(["jiggle", scenario, "--mode", mode, out])``.  Scenes
follow one another with a single caller and no other threads until
``--seconds`` have passed, and at least two run.  Every bundle is checked,
and since the seed is fixed within a run, every scene must write the same
bytes as the first (a determinism probe).  A failed check or a mismatch is a
failed operation.

``--trace 0`` prints the end-to-end metrics, with times at a reference speed
that takes out the host's drift (speed.py).  ``--trace 1`` alternates
untraced and traced scenes, prints the per-layer metrics of the traced ones
(medians over scenes; times are wall times), and writes their spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.  Lines before the last give
medians, quartiles and sample counts, with wall times beside scaled ones.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_REPEATS = 5
SCENE_PERIOD_S = 0.05


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the ``kind`` metrics ("end_to_end" or "per_layer")
    that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup_times(name: str, seed: int, directory: str) -> tuple[list, list]:
    """Fresh interpreters that import, generate and load: wall times, and
    the same at reference speed."""
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, SETUP_PROBE, name, str(seed),
                               directory], check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        walls.append(perf_counter() - t0)
        probe = json.loads(done.stdout)
        scaled.append((walls[-1] - probe["samples_s"]) * probe["speed"])
    return walls, scaled


class Scenes:
    """Runs scenes of one workload and keeps their times and verdicts."""

    def __init__(self, parts, seed: int, directory: str):
        from jigglekit import cli

        self.main = cli.main
        self.parts = parts
        self.seed = seed
        self.directory = directory
        self.paths = workloads.write_scenarios(parts, seed, directory)
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.bundle_bytes = 0

    def run(self, tracer=None, sampler=None) -> float:
        """One scene; returns its wall time from the first main() call to the
        last bundle on disk.  ``sampler`` samples the host's speed during
        the main() calls."""
        self.attempted += 1
        problems = []
        elapsed = 0.0
        cells = size = 0
        scene = tracer.begin("scene") if tracer else None
        for i, (part, path) in enumerate(zip(self.parts, self.paths)):
            out = os.path.join(self.directory, f"bundle-{i}-{part.label}.json")
            argv = ["jiggle", path, "--mode", part.mode, out]
            span = tracer.begin("cli.main") if tracer else None
            t0 = perf_counter()
            try:
                with sampler or contextlib.nullcontext():
                    code = self.main(argv)
            except Exception:
                code = None
                problems.append(f"{part.label}: {traceback.format_exc()}")
            elapsed += perf_counter() - t0
            if tracer:
                tracer.end(span)
            if code != 0:
                problems.append(f"{part.label}: jigglekit exited with {code}")
                continue
            with open(out, "rb") as fh:
                blob = fh.read()
            bundle = json.loads(blob)
            problems += workloads.check_bundle(part, bundle, self.seed)
            if self.first.setdefault(i, blob) != blob:
                problems.append(f"{part.label}: bundle differs from the first "
                                "scene's at the same seed")
            size += len(blob)
            cells += sum(len(o["out_complex"]["top_simplices"])
                         for o in workloads.outcomes(bundle))
        if tracer:
            tracer.end(scene)
        if problems:
            self.failed += 1
            print("FAILED: " + "; ".join(problems), file=sys.stderr)
        self.cells, self.bundle_bytes = cells, size
        return elapsed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(label: str, values: list, walls: list) -> float:
    q1, median, q3 = quartiles(values)
    w1, wall, w3 = quartiles(walls)
    print(f"{label}: n {len(values)}, median {median:.4f} q1 {q1:.4f} "
          f"q3 {q3:.4f}; wall median {wall:.4f} q1 {w1:.4f} q3 {w3:.4f}")
    return median


def measure(name: str, parts, seed: int, seconds: float, trace: bool,
            workdir: str, spans_path: str | None = None) -> dict:
    """Run one workload for ``seconds``; return the result object.

    Untraced, scene and set-up times are given at reference speed
    (speed.py).  Traced, untraced and traced scenes alternate and every time
    is a wall time.
    """
    os.makedirs(workdir, exist_ok=True)
    setup = None if trace else setup_times(name, seed, workdir)
    scenes = Scenes(parts, seed, workdir)
    walls, scaled, traced, layers = [], [], [], []
    stop = perf_counter() + seconds
    while len(walls) + len(traced) < 2 or perf_counter() < stop:
        if trace and len(walls) > len(traced):
            with tracing.Tracer(len(layers)) as tracer:
                traced.append(scenes.run(tracer))
            layers.append(tracing.scene_layers(tracer))
            layers[-1]["cli.bundle_bytes"] = scenes.bundle_bytes
            if spans_path:
                with open(spans_path, "a") as fh:
                    tracer.write_spans(fh)
            for missing in tracer.missing:
                print(f"trace: {missing} not found", file=sys.stderr)
        elif trace:
            walls.append(scenes.run())
        else:
            sampler = speed.Sampler(SCENE_PERIOD_S)
            walls.append(scenes.run(sampler=sampler))
            scaled.append(sampler.scaled())

    print(f"{name}, seed {seed}, {scenes.cells} cells a scene")
    if trace:
        plain = _summary("untraced scene_s", walls, walls)
        values = tracing.median_layers(layers)
        values["trace.overhead_frac"] = (
            _summary("traced scene_s", traced, traced) / plain - 1.0)
    else:
        scene_s = _summary("scene_s", scaled, walls)
        values = {
            "scene_s": scene_s,
            "cells_per_s": scenes.cells / scene_s,
            "setup_s": _summary("setup_s", setup[1], setup[0]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared("per_layer" if trace else "end_to_end")
    return {
        "correct": scenes.failed == 0,
        "attempted": scenes.attempted,
        "failed": scenes.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it seeds numpy generators)")

    if not os.path.isfile(os.path.join(ROOT, "src", "jigglekit", "cli.py")):
        print(f"perfbench: no jigglekit sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = None
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        open(spans, "w").close()
    try:
        result = measure(args.workload, workloads.WORKLOADS[args.workload],
                         args.seed, args.seconds, bool(args.trace), workdir,
                         spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
