"""Differentially private supervised domain adaptation.

A library and CLI for learning a bounded linear predictor from a public
source sample plus a private target sample under (epsilon, delta)
differential privacy with respect to the target sample.  The pieces:

- ``core``: datasets, loss models, feasible points, budgets, results.
- ``mechanisms``: seeded RNG substreams, Laplace/Gaussian noise, noise
  calibration for the optimizers, the private discrepancy release.
- ``discrepancy``: loss-gap discrepancy estimation (an exact trust-region
  solve for the squared loss and a low-dimensional grid oracle).
- ``convex_objective`` / ``convex_solver``: the jointly convex
  weighted-loss objective for squared-loss regression, the noisy projected
  gradient engine of both solvers, and the solver with iterate averaging.
- ``nonconvex_objective`` / ``nonconvex_solver``: the smoothed objective
  for general Lipschitz/smooth losses and its solver on the same engine,
  with a uniformly sampled output iterate.
- ``baselines``: target-only ERM, its private variant, alpha-mixture ERM.
- ``data_io``: CSV ingestion (parsed once per file version, then read
  from a sidecar), rescaling, resampling, synthetic shift.
- ``harness`` / ``cli``: the (epsilon, n) sweep runner and entry point.
- ``processes``: the process-slot rule, and the fork helper that the
  engine's private lane runs on.
"""

from .core import (
    AdaptDataset,
    AdaptationResult,
    FeasiblePoint,
    LossModel,
    PrivacyBudget,
    RegularizerConfig,
    non_private,
)
from .convex_solver import ConvexRunConfig, fit_convex
from .nonconvex_solver import NonConvexRunConfig, fit_nonconvex
from .baselines import fit_baseline
from .discrepancy import discrepancy_dca, discrepancy_grid
from .data_io import DatasetManifest, SyntheticShiftSpec, generate_synthetic, load_dataset
from .harness import SweepSpec, run_sweep, emit_results
from .mechanisms import derive_rng, privatize_discrepancy

__version__ = "0.1.0"
