"""Objective calls that ``optimize.refine`` makes per T search.

usage: python3 tools/refine_calls.py [CONFIG.json ...]

Each config is an ``amplify`` or ``distill`` CLI config, run in this
process with one worker.  ``optimize.refine`` is wrapped, as the test spies
wrap it, so that every search counts the objective calls its refinement
makes; the grid samples and the re-score of ``t_star`` are not counted.
Prints, per config, the searches and the min, median, max and total of
those counts.  With no config it runs two built-in ones: the criterion-09
threshold scan (scenario 2, 5 dB, N 2, n_max 20, 0-30 dB in 1 dB steps, 60
grid points, ``refine_tolerance`` 1e-6; QS and PC apart) and the
amplify-grid benchmark config of seed 0, invocation 0.

Standard library and ``nlasim`` only.
"""

from __future__ import annotations

import statistics
import sys
from unittest.mock import patch

from nlasim import cli, optimize

BUILT_IN = {
    "criterion-09 scan": {
        "experiment": "distill", "scenario": 2, "r1_db": 5.0,
        "n_units": [2], "n_max": 20,
        "attenuations_db": [float(db) for db in range(31)],
        "optimizer": {"grid_points": 60, "refine_tolerance": 1e-6}},
    "amplify-grid seed 0": {
        "experiment": "amplify", "alphas": [0.4729, 0.8786],
        "target_gains": [1.2645, 1.6282], "n_units": list(range(1, 9)),
        "kinds": ["QS", "PC"], "n_max": 30,
        "optimizer": {"grid_points": 48, "t_min": 0.0001,
                      "t_max": 0.9999, "refine_tolerance": 0.0001}},
}


def refine_counts(raw: dict) -> dict:
    """Run the config; the refine call counts of its searches, by kind."""
    p = cli.build_experiment(raw["experiment"], raw, workers=1)
    runner = {"amplify": cli.run_amplify, "distill": cli.run_distill}
    by_kind, kind = {}, [None]

    def tagged(search):                 # every search takes its kind second
        def run(*args, **kwargs):
            kind[0] = args[1]
            return search(*args, **kwargs)
        return run

    def counted(objective, values, config):
        counts = by_kind.setdefault(kind[0], [])
        counts.append(0)

        def f(t):
            counts[-1] += 1
            return objective(t)
        return search(f, values, config)

    search = optimize.refine
    with patch.object(optimize, "refine", counted), \
            patch.object(cli, "max_fidelity_profiles",
                         tagged(cli.max_fidelity_profiles)), \
            patch.object(cli, "maximize_total_logneg",
                         tagged(cli.maximize_total_logneg)):
        runner[raw["experiment"]](p)
    return by_kind


def summary(label: str, counts: list) -> str:
    return (f"{label}: {len(counts)} searches, refine calls min "
            f"{min(counts)}, median {statistics.median(counts):g}, max "
            f"{max(counts)}, total {sum(counts)}")


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    configs = {path: cli.load_config(path) for path in paths} or BUILT_IN
    for label, raw in configs.items():
        by_kind = refine_counts(raw)
        for kind, counts in by_kind.items():
            print(summary(f"{label} [{kind}]", counts))
        if len(by_kind) > 1:
            print(summary(f"{label} [all]",
                          [c for cs in by_kind.values() for c in cs]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
