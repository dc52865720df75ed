"""The refine call-count tool, run on one-point configs."""

import importlib.util
import json
import re
from pathlib import Path

from nlasim import optimize

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "refine_calls", ROOT / "tools" / "refine_calls.py")
refine_calls = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refine_calls)

OPTIMIZER = {"grid_points": 12, "refine_tolerance": 1e-4}
CONFIGS = {
    "distill": {"experiment": "distill", "scenario": 2, "r1_db": 5.0,
                "k_modes": 2, "kinds": ["QS"], "n_units": [1], "n_max": 18,
                "attenuations_db": [3.0], "optimizer": OPTIMIZER},
    "amplify": {"experiment": "amplify", "alphas": [0.3],
                "target_gains": [1.5], "n_units": [2], "kinds": ["PC"],
                "n_max": 12, "optimizer": OPTIMIZER},
}


def test_one_point_configs(tmp_path, capsys):
    paths = []
    for name, raw in CONFIGS.items():
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(raw), encoding="utf-8")
    search = optimize.refine
    assert refine_calls.main(paths) == 0
    assert optimize.refine is search
    # one search each, so its min, median, max and total are one count
    for line, (path, kind) in zip(capsys.readouterr().out.splitlines(),
                                  zip(paths, ("QS", "PC")), strict=True):
        assert re.fullmatch(re.escape(f"{path} [{kind}]") +
                            r": 1 searches, refine calls min ([1-9]\d*), "
                            r"median \1, max \1, total \1", line), line


def test_counts_match_a_spy_on_refine(monkeypatch):
    calls = []
    search = optimize.refine

    def spy(objective, values, config):
        def f(t):
            calls.append(t)
            return objective(t)
        return search(f, values, config)

    by_kind = refine_calls.refine_counts(CONFIGS["amplify"])
    monkeypatch.setattr(optimize, "refine", spy)
    refine_calls.refine_counts(CONFIGS["amplify"])
    assert by_kind == {"PC": [len(calls)]}
