"""Set up one workload the way a fresh interpreter does, then exit.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>

Imports jigglekit, writes the workload's scenario files into <directory>
and loads each one, which builds and validates its input complexes.
``run.py`` times this whole process as the benchmark's ``setup_s``.  The
process samples the host's speed while it works (speed.py) and prints one
JSON line: the samples' own time and the speed, so that run.py can give the
set-up at reference speed.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads  # noqa: E402

PERIOD_S = 0.02


def main(argv) -> int:
    name, seed, directory = argv
    with speed.Sampler(PERIOD_S) as sampler:
        from jigglekit import cli  # the import is part of the set-up

        for path in workloads.write_scenarios(workloads.WORKLOADS[name],
                                              int(seed), directory):
            cli.load_scenario(cli.load_json(path))
    print(json.dumps({"samples_s": sum(sampler.samples),
                      "speed": sampler.speed()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
