"""The library's public surface, pinned.

Every parameter (name and default, in order) of every name the package root
exports, and the fields of the result records. A new option or field fails
here and has to be argued for, as a new CLI flag fails
``test_experiments.test_flag_surface_is_pinned``.
"""

import dataclasses
import inspect

import densebandits
from densebandits.dslin import ArmFamily, DsLinDiagnostics
from densebandits.dssr import DssrDiagnostics
from densebandits.experiments import RunRecord
from densebandits.solvers import DensestResult

REQUIRED = "required"  # stands for a parameter without a default

SIGNATURES = {
    "DsLinParams": [("epsilon", 0.1), ("delta", 0.1), ("lam", 1.0), ("R", 1.0), ("L", None)],
    "ExperimentConfig": [
        ("algorithm", REQUIRED), ("graph", REQUIRED), ("weights", None), ("seeds", (0,)),
        ("out", None), ("budget", None), ("max_iters", None), ("k", 10), ("epsilon", None),
        ("delta", 0.1), ("lam", 1.0), ("R", 1.0), ("L", None), ("stop_mode", "conservative"),
        ("gamma", 0.9), ("noise", "gaussian-per-edge"), ("family_seed", 0),
    ],
    "Graph": [
        ("n", REQUIRED), ("m", REQUIRED), ("edges", REQUIRED), ("adjacency", REQUIRED),
        ("labels", REQUIRED), ("self_loops_dropped", 0), ("duplicates_dropped", 0),
    ],
    "NoiseModel": [("kind", "gaussian-per-edge"), ("R", 1.0)],
    "brute_force_densest": [("G", REQUIRED), ("w", REQUIRED)],
    "exact_densest": [("G", REQUIRED), ("w", REQUIRED)],
    "generate_arm_family": [("G", REQUIRED), ("k", REQUIRED), ("seed", REQUIRED)],
    "load_edge_list": [("path", REQUIRED)],
    "load_weights": [("path", REQUIRED), ("G", REQUIRED)],
    "make_oracle": [("G", REQUIRED), ("w", REQUIRED), ("noise", "gaussian-per-edge"), ("seed", 0)],
    "peeling_trace": [("G", REQUIRED), ("w", REQUIRED)],
    "run_dslin": [
        ("G", REQUIRED), ("family", REQUIRED), ("oracle", REQUIRED), ("params", REQUIRED),
        ("max_iters", REQUIRED), ("stop_mode", "conservative"), ("w_true", None),
    ],
    "run_dssr": [("G", REQUIRED), ("oracle", REQUIRED), ("T", REQUIRED)],
    "run_experiment": [("config", REQUIRED)],
    "run_naive": [("G", REQUIRED), ("family", REQUIRED), ("oracle", REQUIRED), ("T", REQUIRED)],
    "run_r_oracle": [
        ("G", REQUIRED), ("w_true_hidden", REQUIRED), ("oracle", REQUIRED),
        ("gamma", 0.9), ("eps", 0.9),
    ],
    "second_best_density": [("G", REQUIRED), ("w", REQUIRED), ("best", REQUIRED)],
}

FIELDS = {
    DensestResult: ["subset", "value", "flow_calls"],
    DsLinDiagnostics: [
        "iterations", "flow_calls", "stopped", "ct_trace", "margin_trace",
        "incumbent_density_trace", "est_err_trace", "state",
    ],
    DssrDiagnostics: ["removal_order", "fhat_trace", "phase_rows", "total_queries"],
    ArmFamily: ["arms"],
    RunRecord: [
        "algo", "graph", "seed", "budget", "quality", "opt", "out_size", "total_queries",
        "single_edge_queries", "elapsed_ms", "subset_labels",
    ],
}


def test_exported_signatures_are_pinned():
    surface = {
        name: [
            (p.name, REQUIRED if p.default is p.empty else p.default)
            for p in inspect.signature(getattr(densebandits, name)).parameters.values()
        ]
        for name in densebandits.__all__
    }
    assert surface == SIGNATURES


def test_result_fields_are_pinned():
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in FIELDS} == FIELDS
