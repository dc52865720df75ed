"""The benchmark's workloads: seeded config generators and row expectations.

Each workload is one CLI subcommand with a fixed grid shape.  A seed draws
only the continuous inputs (attenuations, coherent amplitudes, gains); the
program sees nothing but the JSON config written from those draws.
Invocation ``index`` of a run gets its own draw, so every config of every
seed is reproducible from ``(workload, seed, index)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Layer -> end-to-end predictions, written down before any optimisation is
# measured.  run.py prints them with every result.
PREDICTIONS = {
    "fock": "kernel work: moves wall_s/rows_per_s and peak_rss_mb on "
            "distill-threshold and multimode-sweep; no fock calls on "
            "amplify-grid, so no change there",
    "nla": "Fraction PC sum: moves wall_s on amplify-grid; under 1% of a "
           "distill objective call, so no change on the distill workloads",
    "distill": "source builds and strategy scoring: moves wall_s on "
               "distill-threshold (vacuum share 0.8, two builds per row) "
               "more than on multimode-sweep (vacuum share 0.0, one build)",
    "optimize": "T search: moves wall_s on distill-threshold and "
                "amplify-grid; multimode-sweep never calls it",
    "cli": "config validation, fan-out and rendering: moves setup_s on "
           "every workload",
}

# the program's default search region, written into every config so the
# range check does not depend on defaults
T_MIN = 1e-4
T_MAX = 1.0 - 1e-4
SWEEP_POINTS = 8


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand, its output header and the columns it computes."""

    name: str
    subcommand: str
    header: tuple
    # columns produced by the optimiser or the kernels; every other column
    # echoes the config and is checked against it
    outputs: tuple
    generate: object
    # config -> input cells of every row, keyed by column, in the CLI's
    # row order
    expected_inputs: object

    def config(self, seed: int, index: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.generate(rng)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _optimizer(grid_points: int, refine_tolerance: float | None = None):
    out = {"grid_points": grid_points, "t_min": T_MIN, "t_max": T_MAX}
    if refine_tolerance is not None:
        out["refine_tolerance"] = refine_tolerance
    return out


# --- distill-threshold: the criterion-09 scan shape ------------------------

def _distill_config(rng):
    return {"experiment": "distill", "scenario": 1, "r1_db": 5.0,
            "k_modes": 5, "strategy": "unfiltered", "kinds": ["QS", "PC"],
            "n_units": [2], "n_max": 20,
            "attenuations_db": [_draw(rng, 0.0, 30.0)],
            "optimizer": _optimizer(60, 1e-6)}


def _distill_rows(cfg):
    return [{"attenuation_db": db, "eta": 10.0 ** (-db / 10.0),
             "scenario": cfg["scenario"], "strategy": cfg["strategy"],
             "kind": k, "n_units": n, "n_max": cfg["n_max"]}
            for db in sorted(set(cfg["attenuations_db"]))
            for k in cfg["kinds"] for n in cfg["n_units"]]


# --- amplify-grid: the criterion-06 shape, no bipartite density ------------

def _amplify_config(rng):
    return {"experiment": "amplify",
            "alphas": sorted(_draw(rng, 0.2, 1.0) for _ in range(2)),
            "target_gains": sorted(_draw(rng, 1.2, 2.0) for _ in range(2)),
            "n_units": list(range(1, 9)), "kinds": ["QS", "PC"],
            "n_max": 30, "optimizer": _optimizer(48, 1e-4)}


def _amplify_rows(cfg):
    return [{"alpha": a, "target_gain": g, "kind": k, "n_units": n,
             "n_max": cfg["n_max"]}
            for a in sorted(set(cfg["alphas"]))
            for g in sorted(set(cfg["target_gains"]))
            for n in cfg["n_units"] for k in cfg["kinds"]]


# --- multimode-sweep: dense kernel past L2, no vacuum, no optimiser --------

def _sweep_config(rng):
    return {"experiment": "sweep", "scenario": 3, "r1_db": 3.0,
            "k_modes": 5, "strategy": "unfiltered", "kind": "PC",
            "n_units": 2, "n_max": 25,
            "attenuation_db": _draw(rng, 0.0, 20.0),
            "optimizer": _optimizer(SWEEP_POINTS)}


def _sweep_rows(cfg):
    return [{"attenuation_db": cfg["attenuation_db"], "kind": cfg["kind"],
             "n_units": cfg["n_units"], "n_max": cfg["n_max"]}
            for _ in range(cfg["optimizer"]["grid_points"])]


WORKLOADS = {w.name: w for w in (
    Workload("distill-threshold", "distill",
             ("attenuation_db", "eta", "scenario", "strategy", "kind",
              "n_units", "n_max", "optimal_t", "total_logneg",
              "success_prob", "reference_logneg"),
             ("optimal_t", "total_logneg", "success_prob",
              "reference_logneg"),
             _distill_config, _distill_rows),
    Workload("amplify-grid", "amplify",
             ("alpha", "target_gain", "kind", "n_units", "n_max",
              "optimal_t", "fidelity", "success_prob"),
             ("optimal_t", "fidelity", "success_prob"),
             _amplify_config, _amplify_rows),
    Workload("multimode-sweep", "sweep",
             ("attenuation_db", "kind", "n_units", "n_max", "t",
              "total_logneg", "success_prob"),
             ("t", "total_logneg", "success_prob"),
             _sweep_config, _sweep_rows),
)}
