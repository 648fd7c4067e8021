#!/usr/bin/env python3
"""One SHA-256 per seeded run, for checking that two checkouts agree bit for bit.

Each output line is ``name sha256``, one per (algorithm, graph, noise, seed):
DS-SR on the three bundled graphs with noise ``gaussian-per-edge`` (R = 1)
and ``none``, DS-Lin on karate at m + 150 rounds in both stop modes (with
the confidence radius and the stop margin of every round) and, in the
benchmark's setting, conservatively at m + 800 rounds with oracle seed 0
only (with the max-flow count too), the naive baseline at m + 150, and the
R-oracle baseline. Weights are
the knockout weights of seed 0. A digest covers the run's outputs and
diagnostics and every observation the oracle returned, in order. The
offline solvers follow, one line each per bundled graph: the exact optimum
(subset and value; ``flow_calls`` measures cost, not output), the
second-best density, and the greedy peel (``peeling_trace``'s order,
densities, best subset and value). Last come the DS-Lin arm families of
lesmis and polbooks at k = 10 and seed 0 (arms and edge sets; karate's is
covered by its DS-Lin runs).

The package is imported from ``PYTHONPATH`` first and from this checkout's
``src/`` otherwise, so comparing two checkouts is

    PYTHONPATH=/path/to/a/src python3 scripts/seeded_digest.py > a.txt
    PYTHONPATH=/path/to/b/src python3 scripts/seeded_digest.py > b.txt
    diff a.txt b.txt

``--quick`` runs the first seed of each setting only. Standard error names
the package directory that was imported.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, os.pardir, "data")
sys.path.append(os.path.join(HERE, os.pardir, "src"))

import densebandits  # noqa: E402
from densebandits import (  # noqa: E402
    DsLinParams,
    NoiseModel,
    generate_arm_family,
    load_edge_list,
    exact_densest,
    make_oracle,
    run_dslin,
    run_dssr,
    run_naive,
    run_r_oracle,
    second_best_density,
)
from densebandits.experiments import default_budget, knockout_weights  # noqa: E402
from densebandits.solvers import peeling_trace  # noqa: E402

GRAPHS = ("karate", "lesmis", "polbooks")
NOISES = {"gaussian-per-edge": NoiseModel("gaussian-per-edge", R=1.0), "none": NoiseModel("none")}
SEEDS = (0, 1, 2, 3, 2**64 - 1)
DSLIN_PARAMS = DsLinParams(epsilon=0.1, delta=0.1, lam=100.0, R=1.0)


class Recorder:
    """Passes queries through to an oracle and keeps every observation."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.observations = []

    def sample_edges(self, F):
        obs = self._oracle.sample_edges(F)
        self.observations.append(obs)
        return obs

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def digest(*parts) -> str:
    # repr round-trips floats exactly, so equal text means equal bits
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def oracle_part(rec: Recorder):
    return rec.observations, rec.total_queries, rec.histogram.get(1, 0), sorted(rec.histogram.items())


def runs(seeds):
    """Yield (name, digest) for every seeded run, in a fixed order."""
    for g in GRAPHS:
        G = load_edge_list(os.path.join(DATA, f"{g}.txt"))
        w = knockout_weights(G, seed=0)
        T = default_budget(G.n)
        for noise_name, noise in NOISES.items():
            for seed in seeds:
                rec = Recorder(make_oracle(G, w, noise, seed))
                subset, diag = run_dssr(G, rec, T)
                # a fresh oracle's histogram holds this run's queries only
                parts = (subset, diag.removal_order, diag.fhat_trace, diag.phase_rows,
                         len(subset), sorted(rec.histogram.items()))
                yield f"dssr/{g}/{noise_name}/seed{seed}", digest(parts, oracle_part(rec))

    G = load_edge_list(os.path.join(DATA, "karate.txt"))
    w = knockout_weights(G, seed=0)
    family = generate_arm_family(G, k=10, seed=0)
    cap = G.m + 150
    noise = NOISES["gaussian-per-edge"]
    for stop_mode in ("conservative", "exact-second-best"):
        for seed in seeds:
            rec = Recorder(make_oracle(G, w, noise, seed))
            subset, diag = run_dslin(G, family, rec, DSLIN_PARAMS, cap, stop_mode=stop_mode, w_true=w)
            parts = (subset, diag.iterations, diag.stopped, diag.ct_trace, diag.margin_trace,
                     diag.incumbent_density_trace, diag.est_err_trace, diag.state.counts.tolist())
            yield f"dslin-{stop_mode}/karate/gaussian-per-edge/seed{seed}", digest(parts, oracle_part(rec))
    # the benchmark's setting: m + 800 rounds reach the small incumbents of
    # the later rounds, which m + 150 does not
    rec = Recorder(make_oracle(G, w, noise, 0))
    subset, diag = run_dslin(G, family, rec, DSLIN_PARAMS, G.m + 800)
    parts = (subset, diag.iterations, diag.stopped, diag.flow_calls, diag.ct_trace, diag.margin_trace,
             diag.incumbent_density_trace)
    yield "dslin-conservative/karate/gaussian-per-edge/m+800/seed0", digest(parts, oracle_part(rec))
    for seed in seeds:
        rec = Recorder(make_oracle(G, w, noise, seed))
        subset = run_naive(G, family, rec, cap)
        yield f"naive/karate/gaussian-per-edge/seed{seed}", digest(subset, oracle_part(rec))
    for seed in seeds:
        rec = Recorder(make_oracle(G, w, noise, seed))
        subset = run_r_oracle(G, w, rec)
        yield f"r-oracle/karate/gaussian-per-edge/seed{seed}", digest(subset, oracle_part(rec))

    for g in GRAPHS:
        G = load_edge_list(os.path.join(DATA, f"{g}.txt"))
        w = knockout_weights(G, seed=0)
        best = exact_densest(G, w)
        yield f"exact/{g}", digest(best.subset, best.value)
        yield f"second-best/{g}", digest(second_best_density(G, w, best.subset))
        trace = peeling_trace(G, w)
        yield f"g-oracle/{g}", digest(trace.order, trace.densities, trace.best_subset, trace.best_value)

    for g in GRAPHS[1:]:
        family = generate_arm_family(load_edge_list(os.path.join(DATA, f"{g}.txt")), k=10, seed=0)
        yield f"family/{g}", digest(family.arms, family.edge_sets)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="first seed of each setting only")
    args = ap.parse_args(argv)
    print(f"densebandits from {os.path.dirname(os.path.abspath(densebandits.__file__))}", file=sys.stderr)
    for name, hexdigest in runs(SEEDS[:1] if args.quick else SEEDS):
        print(name, hexdigest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
