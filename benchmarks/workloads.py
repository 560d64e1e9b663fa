"""The benchmark's workloads: sweep configurations for ``privadapt sweep``.

Every workload is closed-loop: one process runs its cells one after another.
The seed becomes the sweep's master seed (and, for the CSV workload, the
seed of the data written to disk), so one seed always gives the same inputs.
Every finite epsilon is at most 15 (epsilon_opt <= 7.5), where the closed-form
noise calibration still meets its delta.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

SQUARED_B = 4.0  # (lam * r + 1)^2 for the squared loss with r = lam = 1


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                  # sweep config without master_seed and data path
    csv: dict | None = None       # synthetic draw written to a CSV during set-up
    acceptance_shape: bool = False  # per-trial form of the acceptance gate's curve

    @property
    def cells(self) -> int:
        c = self.config
        return len(c["epsilons"]) * len(c["target_sizes"]) * c["trials"]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="convex_acceptance",
            config={
                "synthetic": {"d": 20, "noise_std": 0.1},
                "algorithm": "convex",
                "epsilons": [0.5, 1, 5, 15, "inf"],
                "target_sizes": [10000],
                "trials": 1,
                "model": {"kind": "squared", "r": 1.0, "lam": 1.0},
                "reg": {"alpha": 0.5, "kappa1": SQUARED_B},
                "T": 2000,
                "baseline_T": 2000,
                "d_hat": "dca",
                "m": 7000,
                "test_size": 1000,
                "metric": "relative_mse",
            },
            acceptance_shape=True,
        ),
        Workload(
            name="nonconvex_logistic",
            config={
                "synthetic": {"d": 20, "label_rule": "linear_classification"},
                "algorithm": "nonconvex",
                "epsilons": [1, 5, "inf"],
                "target_sizes": [2000],
                "trials": 45,
                "model": {"kind": "logistic", "r": 1.0, "lam": 1.0},
                "reg": {"alpha": 0.5, "lambda1": 0.5, "lambda2": 0.5, "lambda_inf": 0.5},
                "T": 50,
                "d_hat": 0.1,
                "m": 2000,
                "test_size": 1000,
                "metric": "accuracy",
            },
        ),
        Workload(
            name="csv_small_cells",
            config={
                "algorithm": "convex",
                "epsilons": [1, "inf"],
                "target_sizes": [500, 2000],
                "trials": 4,
                "model": {"kind": "squared", "r": 1.0, "lam": 1.0},
                "reg": {"alpha": 0.5, "kappa1": SQUARED_B},
                "T": 200,
                "baseline_T": 200,
                "d_hat": "dca",
                "test_size": 1000,
                "metric": "relative_mse",
            },
            csv={"d": 100, "m": 3000, "n": 6000, "noise_std": 0.1},
        ),
    ]
}


def toy(w: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    cfg = copy.deepcopy(w.config)
    cfg.update(T=20, trials=1, test_size=50, target_sizes=[100])
    if "baseline_T" in cfg:
        cfg["baseline_T"] = 20
    if "m" in cfg:
        cfg["m"] = 200
    if "synthetic" in cfg:
        cfg["synthetic"]["d"] = 5
    csv = None if w.csv is None else dict(w.csv, d=10, m=150, n=300)
    return Workload(w.name, cfg, csv, w.acceptance_shape)


def warm_up_config(w: Workload) -> Workload:
    """One short cell through the same layers at the same data dimension
    (the first epsilon is finite, so the noise draws are warmed up too)."""
    cfg = copy.deepcopy(w.config)
    cfg.update(T=5, trials=1, test_size=100, target_sizes=[200], epsilons=cfg["epsilons"][:1])
    if "baseline_T" in cfg:
        cfg["baseline_T"] = 5
    if "m" in cfg:
        cfg["m"] = 200
    csv = None if w.csv is None else dict(w.csv, m=200, n=400)
    return Workload(w.name + "-warm-up", cfg, csv, False)


def spec_path(w: Workload, work_dir: str) -> str:
    return os.path.join(work_dir, f"{w.name}.spec.json")


def make_inputs(w: Workload, pkg, seed: int, work_dir: str) -> str:
    """Write the sweep spec (and the CSV it reads) for this seed; return the spec path."""
    cfg = copy.deepcopy(w.config)
    cfg["master_seed"] = seed
    if w.csv is not None:
        spec = pkg.data_io.SyntheticShiftSpec(d=w.csv["d"], noise_std=w.csv["noise_std"])
        data, _ = pkg.data_io.generate_synthetic(
            spec, w.csv["m"], w.csv["n"], pkg.mechanisms.derive_rng(seed, "bench-csv"))
        csv_path = os.path.join(work_dir, f"{w.name}.csv")
        pkg.data_io.write_csv(data, csv_path)
        cfg["csv"] = {"path": csv_path}
    path = spec_path(w, work_dir)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path
