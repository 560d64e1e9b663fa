"""Experiment sweeps over the (epsilon, target-size) grid.

Each grid cell (epsilon-index, n-index, trial) owns derived RNG substreams.
Both the data draw and the noise stream are keyed by (n-index, trial) only,
so along the privacy axis every epsilon sees the same data and the same
standardized noise draws, merely rescaled by its own sigma — common random
numbers that make per-trial utility nearly monotone in the budget.  Reruns
with the same master seed produce byte-identical record output.

The sweep runs (n, trial) on the outside and epsilon on the inside: the
data draw (in the loss's r-ball), the raw discrepancy (``raw_d_hat``) and
the reference fit are made once per (n, trial).  Every cell's discrepancy
release takes one draw from its noise stream, so the streams then stand in
one state, and the convex or non-convex cells of an (n, trial) make one
solver call with one column per epsilon (``fit_convex_columns`` or
``fit_nonconvex_columns``).  The solver decides which columns share an
engine run and for how many steps (``convex_solver.column_runs``); the
common random numbers make each cell equal to its own single-epsilon
sweep.  Records still come out in (epsilon, n, trial) order.

Each (n, trial) group is a pure function of its keyed streams, so the
groups of one sweep run on forked worker processes, one pool per sweep
(``_worker_count`` sizes it, or runs the sweep in process).  The workers
inherit the spec and a loaded CSV dataset through fork; each task returns
only its records and the warnings it raised, which the caller re-emits in
(n, trial) order.  Either way the records are the same bytes.  A CSV
sweep's groups gather their target rows from the loaded dataset, and each
process forms its public moments and top norms once (``public_stats``).

Each worker is granted its share of the process slots
(``processes.grant``), which the engine reads as any process does: a run
in a process with two or more slots (one group on two CPUs, say), and long
enough, steps its private block on a process of its own, again with the
same records.
"""

from __future__ import annotations

import functools
import json
import math
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import baselines, processes
from .baselines import fit_baseline
from .convex_objective import check_convex_loss
from .convex_solver import ConvexRunConfig, fit_convex_columns
# not called here any more; benchmarks/test_benchmark.py reads harness.fit_convex
from .convex_solver import fit_convex  # noqa: F401
from .core import (
    AdaptDataset,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    check_integer,
    take_rows,
)
from .data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    generate_synthetic,
    load_dataset,
    resample_target,
)
from .discrepancy import check_solver, d_hat_policy, raw_d_hat
from .mechanisms import derive_rng, privatize_discrepancy
from .nonconvex_solver import fit_nonconvex_columns

CONVEX = "convex"
NONCONVEX = "nonconvex"
ALGORITHMS = (CONVEX, NONCONVEX) + baselines.KINDS

RELATIVE_MSE = "relative_mse"
ACCURACY = "accuracy"

# record fields computed from target data without noise: the metric on the
# held-out target split, the objective and the gradient mapping norm
NON_PRIVATE = ("metric_value", "objective_value", "grad_mapping_norm")


@dataclass
class SweepSpec:
    dataset: SyntheticShiftSpec | DatasetManifest
    algorithm: str
    epsilons: list[float]
    target_sizes: list[int]
    trials: int
    master_seed: int
    model: LossModel
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)
    metric: str = RELATIVE_MSE
    delta: float = 0.01
    disc_fraction: float = 0.5
    T: int | None = None  # None -> analytic default per cell
    baseline_T: int = 2000  # steps for the reference target-only fit
    d_hat: float | str = "dca"  # "dca" | "grid" | a fixed value in [0, B]
    m: int = 1000  # synthetic public-sample size
    test_size: int = 1000  # held-out target points per cell

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.metric not in (RELATIVE_MSE, ACCURACY):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not self.epsilons or not self.target_sizes:
            raise ValueError("epsilons and target_sizes must be non-empty")
        for eps in self.epsilons:  # checks every epsilon, delta and the split
            PrivacyBudget(eps, self.delta, self.disc_fraction)
        d_hat_policy(self.d_hat)
        check_integer("master_seed", self.master_seed)
        for name in ("trials", "test_size", "m", "baseline_T"):
            check_integer(name, getattr(self, name), 1)
        for n in self.target_sizes:
            check_integer("target_sizes", n, 1)
        for name in ("epsilons", "target_sizes"):  # a repeat would double its cells
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values!r}")
        if self.T is not None:  # None takes the analytic default
            check_integer("T", self.T, 1)
        if self.algorithm == CONVEX:
            check_convex_loss(self.model)


@dataclass
class SweepResult:
    records: list[dict]
    aggregates: list[dict]
    wall_time: float
    workers: int = 1  # processes the (n, trial) groups ran on
    lanes: int = 1  # lanes each engine run may take


class SweepCellError(RuntimeError):
    def __init__(self, epsilon, n, trial, cause):
        super().__init__(f"sweep cell (epsilon={epsilon}, n={n}, trial={trial}) "
                         f"failed: {cause}")
        self.key = (epsilon, n, trial)
        self.cause = cause

    def __reduce__(self):  # so a worker process can raise it to the caller
        return type(self), (*self.key, self.cause)


def _cell_data(spec: SweepSpec, base: AdaptDataset | None, n: int,
               n_idx: int, trial: int):
    """Training data plus a held-out target test split for one cell."""
    rng = derive_rng(spec.master_seed, "data", n_idx, trial)
    if isinstance(spec.dataset, SyntheticShiftSpec):
        full, _ = generate_synthetic(spec.dataset, spec.m, n + spec.test_size, rng,
                                     spec.model.r)
        train = AdaptDataset(full.public_x, full.public_y,
                             full.private_x[:n], full.private_y[:n])
        test_x, test_y = full.private_x[n:], full.private_y[n:]
    else:
        perm = rng.permutation(base.n)
        test_idx, pool_idx = perm[:spec.test_size], perm[spec.test_size:]
        train = resample_target(base, n, rng, pool_idx)  # gathered once, from the base
        test_x, test_y = take_rows(base.private_x, test_idx), base.private_y[test_idx]
    return train, test_x, test_y


def _test_metric(spec: SweepSpec, w: np.ndarray, test_x, test_y) -> float:
    if spec.metric == ACCURACY:
        return float(np.mean(np.where(test_x @ w >= 0.0, 1.0, -1.0) == test_y))
    return float(np.mean((test_x @ w - test_y) ** 2))


def _reference_fit(spec: SweepSpec, train: AdaptDataset, n_idx: int, trial: int):
    rng = derive_rng(spec.master_seed, "reference", n_idx, trial)
    return fit_baseline(baselines.TARGET_ONLY, train, spec.model,
                        T=spec.baseline_T, rng=rng)


def _per_cell(spec: SweepSpec, n: int, trial: int, fn, *columns) -> list:
    """fn applied to each epsilon cell's arguments; a failure names its cell."""
    out = []
    for eps, args in zip(spec.epsilons, zip(*columns)):
        try:
            out.append(fn(*args))
        except Exception as exc:
            raise SweepCellError(eps, n, trial, exc) from exc
    return out


def _run_group(spec: SweepSpec, base: AdaptDataset | None, n: int, n_idx: int,
               trial: int) -> list[dict]:
    """Every epsilon cell of one (n, trial), in the order of spec.epsilons;
    ``base`` is the loaded CSV dataset, None for a synthetic one.

    The data draw, the raw discrepancy and the reference fit depend on
    (n, trial) only, so they are made once and shared by every epsilon.
    """
    train, test_x, test_y = _cell_data(spec, base, n, n_idx, trial)
    budgets = [PrivacyBudget(eps, spec.delta, spec.disc_fraction) for eps in spec.epsilons]
    rngs = [derive_rng(spec.master_seed, "noise", n_idx, trial) for _ in budgets]

    if spec.algorithm in (CONVEX, NONCONVEX):
        d_hat = raw_d_hat(spec.d_hat, train, spec.model).d_hat
        d_dps = _per_cell(spec, n, trial, lambda budget, rng: privatize_discrepancy(
            d_hat, spec.model.B, budget.epsilon_disc, train.n, rng), budgets, rngs)
        # every release took one draw, so all the streams stand in one state
        fit = fit_convex_columns if spec.algorithm == CONVEX else fit_nonconvex_columns
        results = fit(train, list(zip(budgets, d_dps)), spec.reg, ConvexRunConfig(T=spec.T),
                      spec.model, rng=rngs[0])
    elif spec.algorithm == baselines.TARGET_ONLY:
        # same fit as the relative-MSE denominator, so the ratio is exactly 1
        results = [_reference_fit(spec, train, n_idx, trial)] * len(budgets)
    else:
        T = spec.T if spec.T is not None else spec.baseline_T
        results = _per_cell(spec, n, trial, lambda budget, rng: fit_baseline(
            spec.algorithm, train, spec.model, T=T, budget=budget, alpha=spec.reg.alpha,
            rng=rng), budgets, rngs)

    denom = None
    if spec.metric == RELATIVE_MSE and spec.algorithm != baselines.TARGET_ONLY:
        ref = _reference_fit(spec, train, n_idx, trial)
        denom = _test_metric(spec, ref.point.w, test_x, test_y)

    records = []
    for eps, result in zip(spec.epsilons, results):
        value = _test_metric(spec, result.point.w, test_x, test_y)
        if spec.metric == RELATIVE_MSE:
            if spec.algorithm == baselines.TARGET_ONLY:
                value = 1.0
            else:
                value = value / denom if denom > 0 else math.inf
        rec = {
            "epsilon": eps,
            "n": n,
            "seed": trial,
            "metric_value": value,
            "objective_value": result.objective_value,
            "T_used": result.T_used,
        }
        if result.grad_mapping_norm is not None:
            rec["grad_mapping_norm"] = result.grad_mapping_norm
        records.append(rec)
    return records


def _group(spec: SweepSpec, base: AdaptDataset | None,
           key: tuple) -> tuple[list[dict], list[tuple]]:
    """The records of one (n_idx, n, trial) group and the warnings it raised,
    as (message, category, filename, lineno); a failure names its cell."""
    n_idx, n, trial = key
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = _run_group(spec, base, n, n_idx, trial)
        except SweepCellError:
            raise
        except Exception as exc:
            raise SweepCellError(spec.epsilons[0], n, trial, exc) from exc
    return records, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


_inherited: tuple = ()  # (spec, base) in a forked worker


def _inherit(spec: SweepSpec, base: AdaptDataset | None, slots: int) -> None:
    global _inherited
    _inherited = (spec, base)
    processes.grant(slots)


def _inherited_group(key: tuple):
    return _group(*_inherited, key)


def _worker_count(groups: int) -> int:
    """Worker processes for a sweep of this many groups: min(groups,
    process slots), or 1 to run it in process."""
    return max(1, min(groups, processes.process_slots()))


# Re-emitted worker warnings share one registry, so the "default" action
# shows each once per process, as for a warning raised in process.
_warning_registry: dict = {}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (epsilon, n, trial) cell and aggregate per (epsilon, n).

    Deterministic given the master seed.  Cells are keyed, so the execution
    order (n and trial outside, epsilon inside) and the process a group runs
    in do not change any record; records come out in (epsilon, n, trial)
    order.  The first failing group in (n, trial) order raises its
    SweepCellError, and groups not yet started are cancelled.  A CSV whose
    target rows cannot hold the test split and, drawn without replacement,
    the largest target size, and a d_hat solver that cannot run on the
    loss or the dimension (``discrepancy.check_solver``), raise ValueError
    before any group runs.
    """
    t0 = time.perf_counter()
    base = (load_dataset(spec.dataset, spec.model.r)
            if isinstance(spec.dataset, DatasetManifest) else None)
    if base is not None and base.n - spec.test_size < max(spec.target_sizes):
        raise ValueError(f"{spec.dataset.path}: its {base.n} target rows cannot hold a test "
                         f"split of {spec.test_size} and a sample of {max(spec.target_sizes)}")
    if spec.algorithm in (CONVEX, NONCONVEX):
        check_solver(spec.d_hat, spec.model, spec.dataset.d if base is None else base.d)
    keys = [(n_idx, n, trial) for n_idx, n in enumerate(spec.target_sizes)
            for trial in range(spec.trials)]
    workers = _worker_count(len(keys))
    share = processes.process_slots() // workers  # the slots of each worker
    pool = None
    if workers > 1:
        # imported here: the pool's modules add about 1.3 MB to the peak
        # memory of a process that only ever runs sweeps in process
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit, initargs=(spec, base, share))
    by_cell = {}
    try:
        groups = (pool.map(_inherited_group, keys) if pool
                  else map(functools.partial(_group, spec, base), keys))
        for (n_idx, _, trial), (records, caught) in zip(keys, groups):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       registry=_warning_registry)
            for eps_idx, rec in enumerate(records):
                by_cell[eps_idx, n_idx, trial] = rec
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    records = [by_cell[key] for key in sorted(by_cell)]
    aggregates = []
    for eps in spec.epsilons:
        for n in spec.target_sizes:
            vals = np.array([r["metric_value"] for r in records
                             if r["epsilon"] == eps and r["n"] == n])
            aggregates.append({
                "epsilon": eps,
                "n": n,
                "count": int(vals.size),
                "metric_mean": float(vals.mean()),
                "metric_std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            })
    return SweepResult(records, aggregates, time.perf_counter() - t0, workers,
                       2 if share >= 2 else 1)


def emit_results(result: SweepResult, path: str) -> None:
    """JSON lines: one record per line, then a trailing aggregate object.

    Timing, and the workers and lanes the sweep ran on, live only in the
    trailing object so the records section is byte-identical across reruns
    and across machines.  The trailing object also lists, as
    ``non_private``, the record fields computed from target data without
    noise.  A CSV projection of the aggregates is written next to the JSONL
    file for plotting.
    """
    non_private = [key for key in NON_PRIVATE if any(key in rec for rec in result.records)]
    with open(path, "w") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"aggregates": result.aggregates, "wall_time": result.wall_time,
                             "workers": result.workers, "lanes": result.lanes,
                             "non_private": non_private}) + "\n")
    csv_path = path + ".csv"
    with open(csv_path, "w") as fh:
        fh.write("epsilon,n,count,metric_mean,metric_std\n")
        for a in result.aggregates:
            fh.write(f"{a['epsilon']},{a['n']},{a['count']},"
                     f"{a['metric_mean']!r},{a['metric_std']!r}\n")


def read_results(path: str) -> SweepResult:
    """Parse a file written by emit_results."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "aggregates" not in lines[-1]:
        raise ValueError(f"{path}: missing trailing aggregate object")
    tail = lines[-1]
    return SweepResult(lines[:-1], tail["aggregates"], tail.get("wall_time", 0.0),
                       tail.get("workers", 1), tail.get("lanes", 1))


def _from_fields(cls, cfg, where: str, **built):
    """cls(**cfg, **built), or ValueError naming ``where`` for a key of cfg
    that is not a field of cls, or a required field that cfg leaves out."""
    own = [f for f in fields(cls) if f.name not in built]
    unknown = sorted(set(cfg) - {f.name for f in own})
    if unknown:
        raise ValueError(f"{where} has unknown keys: {', '.join(unknown)}")
    missing = [f.name for f in own if f.name not in cfg
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where} needs {', '.join(missing)}")
    return cls(**cfg, **built)


def spec_from_config(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from a plain JSON-style mapping (the CLI config),
    each section from its dataclass's fields; an unknown key or a missing
    required one raises ValueError."""
    cfg = dict(cfg)
    sections = [key for key in ("synthetic", "csv") if key in cfg]
    if len(sections) != 1:
        raise ValueError("config needs one 'synthetic' or 'csv' dataset section")
    dataset_cls = SyntheticShiftSpec if sections[0] == "synthetic" else DatasetManifest
    built = {"dataset": _from_fields(dataset_cls, cfg.pop(sections[0]), sections[0])}
    for key, cls in (("model", LossModel), ("reg", RegularizerConfig)):
        built[key] = _from_fields(cls, cfg.pop(key, {}), key)
    if "epsilons" in cfg:  # float reads "inf" and "Infinity"
        cfg["epsilons"] = [float(e) for e in cfg["epsilons"]]
    return _from_fields(SweepSpec, cfg, "config", **built)
