"""Scenes of the jigglekit benchmark and the checks every bundle must pass.

A workload is a list of parts; each part is one scenario file run through
``jigglekit jiggle --mode <mode>``.  One scene runs every part of its
workload once.  The workload seed becomes each scenario's
``JigglingConfig.seed`` and nothing else: geometry, fields and levels are
fixed, so the work per scene is the same across seeds (the perturbation
search draws differ, the set of moved vertices does not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

HORIZONTAL = {"type": "constant", "basis": [[1.0, 0.0]]}
DIAGONAL = {"type": "constant",
            "basis": [[1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]]}
ROTOR = {"type": "builtin", "name": "planar_rotor(0.0001)"}

# the fan of criterion 10: a triangle cut into four cells whose middle edge
# is horizontal, so the input refinement is not stratified transverse
FAN_PARENT = {"ambient_dim": 2, "vertices": [[0, 0], [2, 3], [4, 1]],
              "top_simplices": [[0, 1, 2]]}
FAN = {"ambient_dim": 2,
       "vertices": [[0, 0], [2, 3], [4, 1], [1, 1.5], [2, 1.5]],
       "top_simplices": [[0, 3, 4], [1, 3, 4], [1, 2, 4], [0, 2, 4]]}


@dataclass(frozen=True)
class Part:
    """One ``jiggle`` call: its scenario and what its bundle must show.

    ``expect`` holds one ``(level, cells, moved_count)`` per outcome in the
    bundle (a tower bundle has one per level).  ``budgeted`` parts carry the
    C0/C1 budget contract of ``gamma``.  Subdivision mode derives its move
    budgets from the carrier geometry instead and takes none: at level 3
    its d_c1 is about 0.23, above the scenario's gamma of 0.2.
    ``pins`` holds, per outcome, the values the bundle must reproduce at
    DEFAULT_SEED (see PINS), or is None.
    """

    label: str
    mode: str
    scenario: dict
    expect: tuple
    budgeted: bool = True
    pins: tuple | None = None


def _part(label, mode, complex_, field, level, expect, budgeted=True, **extra):
    config = {"gamma": 0.2}
    if level is not None:
        config["level"] = level
    scenario = {"complex": complex_, "distribution": field, "config": config,
                **extra}
    return Part(label, mode, scenario, tuple(expect), budgeted)


def _pinned(parts):
    return [dataclasses.replace(p, pins=tuple(PINS[p.label])) for p in parts]


def _rotor(level):
    return [_part("rotor", "euclidean", "box_grid(1)", ROTOR, level,
                  [(level, 6 * 8 ** level, {0: 4, 1: 9}[level])])]


def _tower(levels):
    moved = {1: 10, 2: 36, 3: 136, 4: 528}
    return [_part("tower", "tower", "unit_square_grid(2)", HORIZONTAL, None,
                  [(lv, 8 * 4 ** lv, moved[lv]) for lv in levels],
                  levels=list(levels))]


def _carriers(level):
    sub_moved = {1: 5, 3: 71}[level]
    rel_moved = {1: 3, 3: 36}[level]
    return [
        _part("subdivision", "subdivision", FAN_PARENT, HORIZONTAL, level,
              [(level, 24 * 4 ** level, sub_moved)], budgeted=False,
              refinement=FAN),
        _part("relative", "relative", "strip(3)", DIAGONAL, level,
              [(level, 6 * 4 ** level, rel_moved)], a=[[0, 4]]),
    ]


# Values the parent commit of the benchmark produced at DEFAULT_SEED, one
# entry per outcome.  Images must match bit for bit (bundles stay
# byte-identical); the scalars to rel 1e-12, the tolerance of the frozen
# values in tests/test_engine.py.
PINS = {
    "rotor": [
        {"images_sha256":
             "e13a86dd70ab6d5aa1966702edc6c3de698873097e28df0bb99cc759dc18387f",
         "min_eps_margin": 0.001011898069362344,
         "d_c0": 0.009479522461909333,
         "d_c1": 0.05536254207040249},
    ],
    "tower": [
        {"images_sha256":
             "5f5dea5a73abdc4def66daa06af714e8e2146e5d02b8a2db5dccb640fd2b35b2",
         "min_eps_margin": 0.018156055602535973,
         "d_c0": 0.00246839873060728,
         "d_c1": 0.045746986461204696},
        {"images_sha256":
             "e1d4219170e96df4501b778fe43a3274e9a4a08fd19ba8d68b1c459f0892edfe",
         "min_eps_margin": 0.01788270386382235,
         "d_c0": 0.001270258943426402,
         "d_c1": 0.04570869422182815},
        {"images_sha256":
             "fe900390758546fccdba39b44f6ec2b8586031dd1823f101cdfe55bd726371bb",
         "min_eps_margin": 0.016498726639532616,
         "d_c0": 0.0006863576629263518,
         "d_c1": 0.04644631066042442},
    ],
    "subdivision": [
        {"images_sha256":
             "13e938a04ee21e9f51070881f6c4cb34db05f1515fae5d8f9e19ea77dbbb6a0a",
         "min_eps_margin": 0.04646841862097521,
         "d_c0": 0.0068513795457945045,
         "d_c1": 0.2266746088015759},
    ],
    "relative": [
        {"images_sha256":
             "456ff4811a1ea3452f6a325858e6388a3479d85726a48161f57abe0903bd6006",
         "min_eps_margin": 0.012512952866603708,
         "d_c0": 0.0025818745435703806,
         "d_c1": 0.047050353097622434},
    ],
}
PIN_REL_TOL = 1e-12

WORKLOADS = {
    "rotor": _pinned(_rotor(1)),
    "tower": _pinned(_tower([2, 3, 4])),
    "carriers": _pinned(_carriers(3)),
}

# the same code paths at a size a test can afford
SMOKE = {
    "rotor": _rotor(0),
    "tower": _tower([1, 2]),
    "carriers": _carriers(1),
}


def scenario(part: Part, seed: int) -> dict:
    """The scenario file of ``part`` for a workload seed."""
    config = dict(part.scenario["config"], seed=seed)
    return {**part.scenario, "config": config}


def write_scenarios(parts, seed: int, directory: str) -> list[str]:
    """Write each part's scenario file into ``directory``; return the paths."""
    paths = []
    for i, part in enumerate(parts):
        path = os.path.join(directory, f"scenario-{i}-{part.label}.json")
        with open(path, "w") as fh:
            json.dump(scenario(part, seed), fh)
        paths.append(path)
    return paths


def images_sha256(images) -> str:
    return hashlib.sha256(np.asarray(images, dtype=np.float64).tobytes()).hexdigest()




def outcomes(bundle: dict) -> list:
    return bundle["outcomes"] if bundle.get("kind") == "outcome_tower" else [bundle]


def check_bundle(part: Part, bundle: dict, seed: int) -> list[str]:
    """Every way ``bundle`` falls short of ``part``'s contract, as messages."""
    outs = outcomes(bundle)
    if len(outs) != len(part.expect):
        return [f"{part.label}: {len(outs)} outcomes, expected {len(part.expect)}"]
    gamma = part.scenario["config"]["gamma"]
    problems = []
    for i, (out, (level, cells, moved)) in enumerate(zip(outs, part.expect)):
        tag = f"{part.label}[{i}]"
        got = (out["level"], len(out["out_complex"]["top_simplices"]),
               out["moved_count"])
        if got != (level, cells, moved):
            problems.append(f"{tag}: (level, cells, moved) {got}, "
                            f"expected {(level, cells, moved)}")
        if out["report"]["pass"] is not True:
            problems.append(f"{tag}: report did not pass")
        if part.budgeted and not (out["d_c1"] < gamma
                                  and out["d_c0"] < gamma * 2.0 ** -level):
            problems.append(f"{tag}: d_c0 {out['d_c0']!r} / d_c1 {out['d_c1']!r} "
                            f"outside the budget of gamma {gamma}")
        if seed == DEFAULT_SEED and part.pins is not None:
            problems += _check_pin(tag, out, part.pins[i])
    return problems


def _check_pin(tag: str, out: dict, pin: dict) -> list[str]:
    problems = []
    if images_sha256(out["images"]) != pin["images_sha256"]:
        problems.append(f"{tag}: jiggled images differ from the pinned ones")
    for key in ("min_eps_margin", "d_c0", "d_c1"):
        got = out["report"][key] if key == "min_eps_margin" else out[key]
        if not math.isclose(got, pin[key], rel_tol=PIN_REL_TOL, abs_tol=0.0):
            problems.append(f"{tag}: {key} {got!r}, pinned {pin[key]!r}")
    return problems
