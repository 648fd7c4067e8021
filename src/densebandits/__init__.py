"""Densest subgraph discovery from noisy edge-subset-sum queries.

Library layout: ``graph`` (containers and density primitives), ``solvers``
(exact and greedy offline solvers), ``oracle`` (seeded noisy sampling),
``dslin`` (fixed-confidence subset-query bandit), ``dssr`` (fixed-budget
successive rejects), ``baselines`` (naive and interval samplers),
``experiments`` (benchmark harness) and ``cli`` (bench-cli entry point).
The package root re-exports the entry points; everything else is imported
from its module.
"""

from .baselines import run_naive, run_r_oracle
from .dslin import DsLinParams, generate_arm_family, run_dslin
from .dssr import run_dssr
from .experiments import ExperimentConfig, run_experiment
from .graph import Graph, load_edge_list, load_weights
from .oracle import NoiseModel, make_oracle
from .solvers import brute_force_densest, exact_densest, peeling_trace, second_best_density

__version__ = "0.1.0"

__all__ = [
    "DsLinParams",
    "ExperimentConfig",
    "Graph",
    "NoiseModel",
    "brute_force_densest",
    "exact_densest",
    "generate_arm_family",
    "load_edge_list",
    "load_weights",
    "make_oracle",
    "peeling_trace",
    "run_dslin",
    "run_dssr",
    "run_experiment",
    "run_naive",
    "run_r_oracle",
    "second_best_density",
]
