"""Experiment sweeps over the (epsilon, target-size) grid.

Each grid cell (epsilon-index, n-index, trial) owns derived RNG substreams.
Both the data draw and the noise stream are keyed by (n-index, trial) only,
so along the privacy axis every epsilon sees the same data and the same
standardized noise draws, merely rescaled by its own sigma — common random
numbers that make per-trial utility nearly monotone in the budget.  Reruns
with the same master seed produce byte-identical record output.

The sweep runs (n, trial) on the outside and epsilon on the inside: the
data draw, the raw discrepancy and the reference fit are made once per
(n, trial).  The convex and the non-convex cells then go through one
grouped path: the cells that share T and a stream state run as one
batched solve on the shared noisy-PGD engine (``fit_convex_columns`` or
``fit_nonconvex_columns``), which the common random numbers make exact.
Records still come out in (epsilon, n, trial) order.

Each (n, trial) group is a pure function of its keyed streams, so the
groups of one sweep run on forked worker processes, one pool per sweep
(``_worker_count`` sizes it, or runs the sweep in process).  The workers
inherit the spec and a loaded CSV dataset through fork; each task returns
only its records and the warnings it raised, which the caller re-emits in
(n, trial) order.  Either way the records are the same bytes.

A sweep whose processes leave CPUs idle (one group on two CPUs, say) grants
its engine runs two lanes (``lane_count``): a long enough run steps its
private block on a process of its own, again with the same records.
"""

from __future__ import annotations

import functools
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .baselines import fit_baseline
from .convex_solver import ConvexRunConfig, default_T_convex, fit_convex_columns
# not called here any more; benchmarks/test_benchmark.py reads harness.fit_convex
from .convex_solver import fit_convex  # noqa: F401
from .core import (
    AdaptDataset,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    SQUARED,
    take_rows,
)
from .data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    generate_synthetic,
    load_dataset,
    resample_target,
)
from .discrepancy import discrepancy_dca, discrepancy_grid
from .mechanisms import derive_rng, privatize_discrepancy
from .nonconvex_solver import NonConvexRunConfig, fit_nonconvex_columns
# under this name, so that patching harness._process_slots changes the sweep rules
from .processes import process_slots as _process_slots

CONVEX = "convex"
NONCONVEX = "nonconvex"
ALGORITHMS = (CONVEX, NONCONVEX) + baselines.KINDS

RELATIVE_MSE = "relative_mse"
ACCURACY = "accuracy"


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.epsilons or not self.target_sizes:
            raise ValueError("epsilons and target_sizes must be non-empty")
        if min(self.epsilons) <= 0:
            raise ValueError("epsilons must be positive (inf allowed)")
        PrivacyBudget(math.inf, self.delta, self.disc_fraction)  # checks both bounds
        d_hat_policy(self.d_hat)
        if min(self.target_sizes) < 1:
            raise ValueError("target_sizes must be >= 1")
        for name in ("test_size", "m", "baseline_T", "T"):
            value = getattr(self, name)
            if value is not None and value < 1:  # T = None takes the analytic default
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class SweepResult:
    records: list[dict]
    aggregates: list[dict]
    wall_time: float
    workers: int = 1  # processes the (n, trial) groups ran on
    lanes: int = 1  # lanes granted to each engine run


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
        full, _ = generate_synthetic(spec.dataset, spec.m, n + spec.test_size, rng)
        train = AdaptDataset(full.public_x, full.public_y,
                             full.private_x[:n], full.private_y[:n])
        test_x, test_y = full.private_x[n:], full.private_y[n:]
    else:
        if base.n <= spec.test_size:
            raise ValueError("target sample too small for the requested test split")
        perm = rng.permutation(base.n)
        test_idx, pool_idx = perm[:spec.test_size], perm[spec.test_size:]
        pool = AdaptDataset(base.public_x, base.public_y,
                            take_rows(base.private_x, pool_idx), base.private_y[pool_idx])
        train = resample_target(pool, n, rng)
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


def d_hat_policy(policy: float | str) -> float | str:
    """The d_hat policy ``policy``: "dca" (the exact solve), "grid" (the
    d <= 2 oracle) or a finite fixed number, returned as a float; raises
    ValueError for anything else."""
    if policy in ("dca", "grid"):
        return policy
    try:
        value = float(policy)
    except (TypeError, ValueError):
        raise ValueError(f"unknown d_hat policy {policy!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"d_hat must be finite, got {policy!r}")
    return value


def raw_d_hat(policy: float | str, data: AdaptDataset, model: LossModel) -> float:
    """The non-private discrepancy under a d_hat policy, clamped to [0, B]."""
    policy = d_hat_policy(policy)
    if policy == "dca":
        raw = discrepancy_dca(data, model).d_hat
    elif policy == "grid":
        raw = discrepancy_grid(data, model).d_hat
    else:
        raw = policy
    return min(max(raw, 0.0), model.B)


def convex_T(T: int | None, budget: PrivacyBudget, data: AdaptDataset,
             reg: RegularizerConfig, model: LossModel) -> int:
    """T, or the analytic default_T_convex when T is None."""
    if T is not None:
        return T
    return default_T_convex(data.n, data.m, data.d, reg.alpha, budget.epsilon_opt,
                            budget.delta, model.B, reg.b_bar(model.B))


def _per_cell(spec: SweepSpec, n: int, trial: int, fn, *columns) -> list:
    """fn applied to each epsilon cell's arguments; a failure names its cell."""
    out = []
    for eps, args in zip(spec.epsilons, zip(*columns)):
        try:
            out.append(fn(*args))
        except Exception as exc:
            raise SweepCellError(eps, n, trial, exc) from exc
    return out


def _solve_grouped(spec: SweepSpec, train: AdaptDataset, n: int, trial: int,
                   budgets: list, d_dps: list, rngs: list, lanes: int) -> list:
    """The fits of every epsilon cell, one engine run per group of cells
    that share T and a stream state; a failed run names its first cell.

    Every finite-epsilon stream has taken one Laplace draw, so all stand in
    the same state and the last serves its group.  An epsilon = inf column
    draws no noise, so it joins a convex group; a non-convex run draws t*
    first, so there it runs alone.  With T = None a finite cell takes its
    analytic T (a non-convex one's depends on its epsilon only, so those
    cells group by epsilon), and an epsilon = inf cell the largest T of its
    finite cells: only a sweep without one takes the analytic ceiling.
    """
    convex = spec.algorithm == CONVEX
    fit = fit_convex_columns if convex else fit_nonconvex_columns
    results = [None] * len(budgets)

    def solve(idx: list, T: int | None):
        finite = [i for i in idx if budgets[i].is_private]
        run = ConvexRunConfig(T=T) if convex else NonConvexRunConfig(T=T)
        try:
            group = fit(train, [(budgets[i], d_dps[i]) for i in idx], spec.reg, run,
                        spec.model, rng=rngs[finite[-1] if finite else idx[0]], lanes=lanes)
        except Exception as exc:
            raise SweepCellError(spec.epsilons[idx[0]], n, trial, exc) from exc
        for i, result in zip(idx, group):
            results[i] = result

    private = [i for i, budget in enumerate(budgets) if budget.is_private]
    public = [i for i, budget in enumerate(budgets) if not budget.is_private]
    groups: dict = {}
    for i in private:
        if convex:
            key = convex_T(spec.T, budgets[i], train, spec.reg, spec.model)
        else:  # fit_nonconvex_columns resolves T = None from the epsilon
            key = spec.T or budgets[i].epsilon_opt
        groups.setdefault(key, []).append(i)
    if convex and public:
        T = max(groups) if groups and spec.T is None else convex_T(
            spec.T, budgets[public[0]], train, spec.reg, spec.model)
        groups[T] = sorted(groups.get(T, []) + public)
    for key, idx in groups.items():
        solve(idx, key if convex else spec.T)
    if public and not convex:
        solve(public, spec.T if spec.T is not None or not private
              else max(results[i].T_used for i in private))
    return results


@dataclass(frozen=True)
class _Shared:
    """What every (n, trial) group of a sweep gets: the loaded CSV dataset
    (None for a synthetic one) and the lanes granted to its engine runs."""

    dataset: AdaptDataset | None
    lanes: int


def _run_group(spec: SweepSpec, shared: _Shared, n: int, n_idx: int,
               trial: int) -> list[dict]:
    """Every epsilon cell of one (n, trial), in the order of spec.epsilons.

    The data draw, the raw discrepancy and the reference fit depend on
    (n, trial) only, so they are made once and shared by every epsilon.
    """
    train, test_x, test_y = _cell_data(spec, shared.dataset, n, n_idx, trial)
    budgets = [PrivacyBudget(eps, spec.delta, spec.disc_fraction) for eps in spec.epsilons]
    rngs = [derive_rng(spec.master_seed, "noise", n_idx, trial) for _ in budgets]

    if spec.algorithm in (CONVEX, NONCONVEX):
        d_hat = raw_d_hat(spec.d_hat, train, spec.model)
        d_dps = _per_cell(spec, n, trial, lambda budget, rng: privatize_discrepancy(
            d_hat, spec.model.B, budget.epsilon_disc, train.n, rng), budgets, rngs)
        results = _solve_grouped(spec, train, n, trial, budgets, d_dps, rngs, shared.lanes)
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


def _group(spec: SweepSpec, shared: _Shared, key: tuple) -> tuple[list[dict], list[tuple]]:
    """The records of one (n_idx, n, trial) group and the warnings it raised,
    as (message, category, filename, lineno); a failure names its cell."""
    n_idx, n, trial = key
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = _run_group(spec, shared, n, n_idx, trial)
        except SweepCellError:
            raise
        except Exception as exc:
            raise SweepCellError(spec.epsilons[0], n, trial, exc) from exc
    return records, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


_inherited: tuple = ()  # (spec, shared) in a forked worker


def _inherit(spec: SweepSpec, shared: _Shared) -> None:
    global _inherited
    _inherited = (spec, shared)


def _inherited_group(key: tuple):
    return _group(*_inherited, key)


def _worker_count(groups: int) -> int:
    """Worker processes for a sweep of this many groups: min(groups,
    process slots), or 1 to run it in process."""
    return max(1, min(groups, _process_slots()))


def lane_count(workers: int) -> int:
    """Engine lanes to grant each run of a sweep on ``workers`` processes:
    2 when each of them can have two process slots, else 1.  The engine
    takes them only for a run long enough to repay the fork
    (``convex_solver.LANE_MIN_ROW_STEPS``)."""
    return 2 if _process_slots() // workers >= 2 else 1


# Re-emitted worker warnings share one registry, so the "default" action
# shows each once per process, as for a warning raised in process.
_warning_registry: dict = {}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (epsilon, n, trial) cell and aggregate per (epsilon, n).

    Deterministic given the master seed.  Cells are keyed, so the execution
    order (n and trial outside, epsilon inside) and the process a group runs
    in do not change any record; records come out in (epsilon, n, trial)
    order.  The first failing group in (n, trial) order raises its
    SweepCellError, and groups not yet started are cancelled.
    """
    t0 = time.perf_counter()
    base = load_dataset(spec.dataset) if isinstance(spec.dataset, DatasetManifest) else None
    keys = [(n_idx, n, trial) for n_idx, n in enumerate(spec.target_sizes)
            for trial in range(spec.trials)]
    workers = _worker_count(len(keys))
    shared = _Shared(base, lane_count(workers))
    pool = None
    if workers > 1:
        # imported here: the pool's modules add about 1.3 MB to the peak
        # memory of a process that only ever runs sweeps in process
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit, initargs=(spec, shared))
    by_cell = {}
    try:
        groups = (pool.map(_inherited_group, keys) if pool
                  else map(functools.partial(_group, spec, shared), keys))
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
    return SweepResult(records, aggregates, time.perf_counter() - t0, workers, shared.lanes)


def emit_results(result: SweepResult, path: str) -> None:
    """JSON lines: one record per line, then a trailing aggregate object.

    Timing, and the workers and lanes the sweep ran on, live only in the
    trailing object so the records section is byte-identical across reruns
    and across machines.  A CSV projection of the aggregates is
    written next to the JSONL file for plotting.
    """
    with open(path, "w") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"aggregates": result.aggregates, "wall_time": result.wall_time,
                             "workers": result.workers, "lanes": result.lanes}) + "\n")
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


def spec_from_config(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from a plain JSON-style mapping (the CLI config)."""
    missing = [k for k in ("algorithm", "epsilons", "target_sizes", "trials", "master_seed")
               if k not in cfg]
    if missing:
        raise ValueError(f"config needs {', '.join(missing)}")
    if "synthetic" in cfg:
        dataset = SyntheticShiftSpec(**cfg["synthetic"])
    elif "csv" in cfg:
        dataset = DatasetManifest(**cfg["csv"])
    else:
        raise ValueError("config needs a 'synthetic' or 'csv' dataset section")
    model_cfg = dict(cfg.get("model", {}))
    model = LossModel(kind=model_cfg.get("kind", SQUARED),
                      r=model_cfg.get("r", 1.0),
                      lam=model_cfg.get("lam", 1.0))
    reg = RegularizerConfig(**cfg.get("reg", {}))
    epsilons = [float(e) for e in cfg["epsilons"]]  # float reads "inf" and "Infinity"
    kwargs = {k: cfg[k] for k in ("metric", "delta", "disc_fraction", "T",
                                  "baseline_T", "d_hat", "m", "test_size")
              if k in cfg}
    return SweepSpec(dataset=dataset, algorithm=cfg["algorithm"],
                     epsilons=epsilons,
                     target_sizes=[int(v) for v in cfg["target_sizes"]],
                     trials=int(cfg["trials"]),
                     master_seed=int(cfg["master_seed"]),
                     model=model, reg=reg, **kwargs)
