#!/usr/bin/env python3
"""densebandits benchmark: time the package's public calls from outside.

    python3 perfbench/run.py --workload dssr-budget --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process
    python3 perfbench/run.py --self-test             # every check rejects a planted answer

A run sets the workload up, runs whole rounds of its operations until
``--seconds`` have passed (repeating the set-up between rounds now and then),
and checks every operation against the references in ``reference.py``. With
``--trace 1`` it runs untraced for half of ``--seconds``, then replays the
same rounds with span wrappers installed and reports per-layer figures, so
the replay can be compared with the untraced pass. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Raw figures and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 10
WORKLOAD_NAMES = ("dssr-budget", "dslin-karate", "exact-solve")


def import_package():
    """Import densebandits from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import densebandits
    except ImportError as exc:
        raise SystemExit(f"cannot import densebandits from {src}: {exc}")
    if Path(densebandits.__file__).resolve().parent.parent != src:
        raise SystemExit(f"densebandits was imported from {densebandits.__file__}, not {src}")


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def timed_rounds(wl, seconds: float = 0.0, rounds: int | None = None, setup_times=None):
    """Run whole rounds until ``seconds`` pass, or exactly ``rounds`` rounds.

    With ``setup_times``, the set-up is repeated and timed between rounds,
    each time another ``seconds / SETUP_REPEATS`` has passed. The machine's
    speed drifts over seconds, so set-ups spread over the run give a steadier
    median than set-ups made back to back.
    """
    from workloads import Record

    records, walls = [], []
    start = next_setup = time.perf_counter()
    while len(walls) < rounds if rounds is not None else time.perf_counter() - start < seconds:
        if setup_times is not None and time.perf_counter() >= next_setup:
            setup_times.append(timed_setup(wl))
            next_setup += seconds / SETUP_REPEATS
        r = len(walls)
        ops = wl.round_ops(r)
        outs, round_records = [], []
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            rec = Record(op.kind, r, i, 0.0)
            t0 = time.perf_counter()
            try:
                out = op.call(outs)
            except Exception as exc:  # noqa: BLE001 - a failing call is a failed operation
                out, rec.error = None, f"{type(exc).__name__}: {exc}"
            rec.seconds = time.perf_counter() - t0
            outs.append(out)
            round_records.append(rec)
        walls.append(time.perf_counter() - t_round)
        for rec, op, out in zip(round_records, ops, outs):
            if rec.error is None:
                try:
                    rec.out, rec.queries = wl.digest(op, out)
                except Exception as exc:  # noqa: BLE001 - an output of the wrong shape fails its operation
                    rec.error = f"{type(exc).__name__}: {exc}"
        records += round_records
    return records, walls


# the per-layer metrics a --trace 1 run reports, in BENCHMARK.json's order
PER_LAYER = (
    "graph.star_edges.calls", "graph.star_edges.self_s",
    "oracle.sample_edges.calls", "oracle.sample_edges.self_s", "oracle.sample_edges.p50_us",
    "oracle.noise_draws",
    "dssr.sample_phase_vertex.calls", "dssr.sample_phase_vertex.self_s",
    "dssr.sample_phase_vertex.useful_ratio", "dssr.run_dssr.self_s",
    "solvers.exact_densest.calls", "solvers.exact_densest.self_s",
    "solvers.exact_densest.p50_us", "solvers.exact_densest.p99_us",
    "solvers.second_best_density.calls", "solvers.second_best_density.self_s",
    "dslin.update.calls", "dslin.update.self_s", "dslin.estimate.calls", "dslin.estimate.self_s",
    "dslin.check_stop.self_s", "dslin.confidence_radius.self_s", "dslin.select_arm.self_s",
    "dslin.run_dslin.self_s", "dslin.ms_per_round",
    "graph.induced_edges.calls", "graph.induced_edges.self_s",
    "graph.density.calls", "graph.density.self_s", "baselines.run_naive.self_s",
    "graph.load_edge_list.self_s", "graph.load_weights.self_s",
    "experiments.knockout_weights.self_s", "dslin.generate_arm_family.self_s",
    "trace.overhead_s",
)
UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us", "useful_ratio": "ratio",
         "noise_draws": "count", "ms_per_round": "ms", "overhead_s": "s"}


def per_layer_metrics(tracer, lin_rounds: int, traced_walls, untraced_walls) -> dict:
    values = {
        f"{layer}.{stat}": v for layer, row in tracer.layer_stats().items() for stat, v in row.items()
    }
    phase_calls = values["dssr.sample_phase_vertex.calls"]
    values["dssr.sample_phase_vertex.useful_ratio"] = tracer.useful_phase_calls / max(1, phase_calls)
    values["oracle.noise_draws"] = tracer.noise_draws
    values["dslin.ms_per_round"] = 1000.0 * values["dslin.run_dslin.total_s"] / max(1, lin_rounds)
    values["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)
    return {name: (values[name], UNITS[name.rsplit(".", 1)[1]]) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import reference as ref
    from workloads import WORKLOADS, median_ms_by_kind, weighted_median_ms

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](ROOT, seed, OUT)
    setup_times = []
    # a traced run spends half its time untraced, half replaying those rounds
    records, walls = timed_rounds(wl, seconds / 2 if trace else seconds, setup_times=setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    per_layer = {}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        undo = tracer.install()
        try:
            wl.setup()
            traced, traced_walls = timed_rounds(wl, rounds=len(walls))
        finally:
            undo()
        problems += ref.check_trace(
            [rec.error or rec.out for rec in records],
            [rec.error or rec.out for rec in traced],
            tracer.layer_stats()["oracle.sample_edges"]["calls"],
            sum(rec.queries for rec in traced),
        )
        lin_rounds = sum(wl.rounds_of(rec) for rec in traced)
        per_layer = per_layer_metrics(tracer, lin_rounds, traced_walls, walls)
        tracer.save(OUT / f"{name}-spans.npz")

    per_op, run_problems, ratios = wl.check(records)
    problems += run_problems
    import selftest

    problems += [f"self-test did not reject: {p}" for p in selftest.unrejected()]
    failed = sum(1 for found in per_op if found)
    op_problems = [f"round {rec.round} {rec.kind}: {p}" for rec, found in zip(records, per_op) for p in found]

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "op_ms_p50": (weighted_median_ms(records), "ms"),
        "quality_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    chosen = per_layer if trace else end_to_end
    raw = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(walls),
        "ops_per_round": len(records) // max(1, len(walls)),
        "round_walls_s": walls,
        "op_median_ms_by_kind": median_ms_by_kind(records),
        "setup_times_s": setup_times,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": {k: v[0] for k, v in per_layer.items()},
        "problems": problems,
        "failed_operations": op_problems,
    }
    if name == "dslin-karate":
        raw["dslin_stopped_share"] = wl.stopped_share(records)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw, indent=1) + "\n")

    for p in problems + op_problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"{name}: {len(walls)} rounds, {len(records)} operations, {failed} failed", file=sys.stderr)
    for key, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"  {key:45s} {value:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.self_test and args.workload is None:
        parser.error("give --workload or --self-test")

    if args.workload == "all":
        results = {}
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                return proc.returncode
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(results))
        return 0

    import_package()
    if args.self_test:
        import selftest

        missed = selftest.unrejected()
        for p in missed:
            print(f"NOT REJECTED {p}", file=sys.stderr)
        print(f"self-test: {len(selftest.CASES)} planted answers, {len(missed)} not rejected",
              file=sys.stderr)
        return 1 if missed else 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
