"""Command-line front end for the benchmark harness.

Subcommands: gen-weights, report, and one per entry of
``experiments.ALGORITHMS`` (exact, brute, g-oracle, dslin, dssr, naive,
r-oracle). An algorithm's subcommand takes the common flags plus one flag
per config field it reads; a flag is named after its config-file key and
typed by the field's annotation. Exit codes: 0 on success, 1 for
configuration problems (bad flags, missing files), 2 for runtime failures
(every seed failed), 3 when some seeds failed and others succeeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dslin import STOP_MODES
from .experiments import (
    ALGORITHMS,
    FIELD_TYPES,
    ConfigError,
    ExperimentConfig,
    _need_file,
    config_from_file,
    config_key,
    knockout_weights,
    parse_seeds,
    read_results,
    run_experiment,
)
from .graph import atomic_write, load_edge_list, save_weights
from .oracle import NOISE_KINDS


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # flags are spelled out in full
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: D102 - flag problems are config errors
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        sys.exit(1)


# flags of every algorithm subcommand; --config is not a config field
_COMMON = ("graph", "weights", "seeds", "out", "config", "noise", "R")
_TYPES = {**FIELD_TYPES, "config": str}
_CHOICES = {"noise": NOISE_KINDS, "stop_mode": STOP_MODES}
_HELP = {
    "graph": "edge-list file",
    "weights": "weight file covering every edge",
    "seeds": "seed list: '7', '1,2,5' or range '0:100'",
    "out": "output directory for CSVs",
    "config": "key=value config file (flags override it)",
    "noise": "oracle noise kind",
    "R": "noise scale",
    "budget": "total query budget T",
    "max_iters": "total round cap (includes the m init rounds)",
    "epsilon": "PAC slack (dslin) or interval accuracy (r-oracle)",
    "delta": "PAC failure rate",
    "lam": "ridge parameter",
    "L": "weight-norm bound",
    "stop_mode": "stopping test",
    "k": "minimum arm size (> 2)",
    "family_seed": "arm-family seed",
    "gamma": "interval failure rate",
}


def _add_flag(sub: argparse.ArgumentParser, name: str) -> None:
    kind = _TYPES[name]
    sub.add_argument(
        f"--{config_key(name)}",
        dest=name,
        type=kind if kind in (int, float) else None,
        choices=_CHOICES.get(name),
        help=_HELP[name],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench-cli", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gw = subs.add_parser("gen-weights", help="write a knockout weight file")
    gw.add_argument("--graph", required=True)
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument("--out", required=True, help="weight file to write")

    for name, algo in ALGORITHMS.items():
        sub = subs.add_parser(name, help=f"run {name}")
        for flag in _COMMON + algo.fields:
            _add_flag(sub, flag)

    rep = subs.add_parser("report", help="aggregate results CSVs")
    rep.add_argument("paths", nargs="+", help="results.csv files")
    rep.add_argument("--out", help="write the aggregate table as CSV")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if f.name not in ("algorithm", "seeds") and getattr(args, f.name, None) is not None
    }
    if args.seeds is not None:
        flags["seeds"] = parse_seeds(args.seeds)
    if args.config:
        return replace(config_from_file(args.config), algorithm=args.command, **flags)
    if "graph" not in flags:
        raise ConfigError("--graph is required")
    return ExperimentConfig(algorithm=args.command, **flags)


def _run_algorithm(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records, errors = run_experiment(config)
    for error in errors:
        print(f"runtime failure: {error}", file=sys.stderr)
    log_hint = f" (see {Path(config.out) / 'errors.log'})" if config.out and errors else ""
    if not records:
        print(f"runtime failure: every seed failed{log_hint}", file=sys.stderr)
        return 2
    if not ALGORITHMS[config.algorithm].oracle:
        # an offline solver's answer does not depend on the seed
        first = records[0]
        print(f"subset ({first.out_size} vertices): {' '.join(first.subset_labels)}")
        print(f"density: {first.quality!r}")
    qualities = np.array([r.quality for r in records])
    print(
        f"algo={config.algorithm} graph={records[0].graph} seeds={len(records)} "
        f"mean_quality={qualities.mean():.4f} std={qualities.std():.4f} "
        f"opt={records[0].opt:.4f} "
        f"mean_queries={np.mean([r.total_queries for r in records]):.1f} "
        f"mean_single_edge={np.mean([r.single_edge_queries for r in records]):.1f}"
    )
    if config.out:
        print(f"results written to {Path(config.out) / 'results.csv'}")
    if errors:
        print(f"runtime failure: {len(errors)} of {len(config.seeds)} seeds failed{log_hint}", file=sys.stderr)
        return 3
    return 0


def _report(args: argparse.Namespace) -> int:
    groups: dict[tuple[str, str], list] = {}
    for path in args.paths:
        records = read_results(_need_file(path, "results"))
        for r in records:
            groups.setdefault((r.algo, r.graph), []).append(r)
    header = (
        "algo,graph,runs,mean_quality,std_quality,opt,mean_queries,"
        "mean_single_edge,single_edge_fraction,mean_elapsed_ms"
    )
    lines = [header]
    for (algo, graph), rs in sorted(groups.items()):
        q = np.array([r.quality for r in rs])
        tq = np.array([r.total_queries for r in rs], dtype=np.float64)
        sq = np.array([r.single_edge_queries for r in rs], dtype=np.float64)
        frac = float(sq.sum() / tq.sum()) if tq.sum() > 0 else 0.0
        lines.append(
            f"{algo},{graph},{len(rs)},{float(q.mean())!r},{float(q.std())!r},"
            f"{float(rs[0].opt)!r},{float(tq.mean())!r},{float(sq.mean())!r},"
            f"{frac!r},{float(np.mean([r.elapsed_ms for r in rs]))!r}"
        )
    print("\n".join(lines))
    if args.out:
        atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-weights":
            G = load_edge_list(_need_file(args.graph, "graph"))
            save_weights(args.out, G, knockout_weights(G, args.seed))
            print(f"wrote knockout weights (seed {args.seed}) to {args.out}")
            return 0
        if args.command == "report":
            return _report(args)
        return _run_algorithm(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
