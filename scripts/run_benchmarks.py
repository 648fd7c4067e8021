#!/usr/bin/env python3
"""Fixed-budget benchmark sweep over the bundled graphs.

For each graph: generate knockout weights once, run the budgeted peel at the
graph's default budget across the seed range, run the exact solver and the
noise-free peel for reference rows, then aggregate everything into a single
summary table. All artifacts (weights, per-run CSVs, summary) land under
--out.

    python3 scripts/run_benchmarks.py --quick          # 5 seeds, fast
    python3 scripts/run_benchmarks.py --seeds 0:100    # full sweep
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from densebandits.cli import main as cli  # noqa: E402
from densebandits.experiments import parse_seeds  # noqa: E402

GRAPHS = ("karate", "lesmis", "polbooks")


def run(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=os.path.join(HERE, os.pardir, "results"))
    ap.add_argument("--seeds", default="0:100", help="seed range, e.g. 0:100")
    ap.add_argument("--weight-seed", type=int, default=0)
    ap.add_argument("--graphs", nargs="+", default=list(GRAPHS))
    ap.add_argument("--quick", action="store_true", help="5 seeds only")
    args = ap.parse_args(argv)
    seeds = "0:5" if args.quick else args.seeds
    n_seeds = len(parse_seeds(seeds))

    os.makedirs(args.out, exist_ok=True)
    results = []
    for name in args.graphs:
        graph = os.path.join(HERE, os.pardir, "data", f"{name}.txt")
        weights = os.path.join(args.out, f"{name}_weights.txt")
        if cli(["gen-weights", "--graph", graph, "--seed", str(args.weight_seed),
                "--out", weights]) != 0:
            return 1
        print(f"== {name}: {n_seeds} seeds at the default budget")
        for algo in ("dssr", "exact", "g-oracle"):
            out_dir = os.path.join(args.out, name, algo)
            code = cli([algo, "--graph", graph, "--weights", weights,
                        "--seeds", seeds, "--out", out_dir])
            if code != 0:
                return code
            results.append(os.path.join(out_dir, "results.csv"))

    summary = os.path.join(args.out, "summary.csv")
    return cli(["report", *results, "--out", summary])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
