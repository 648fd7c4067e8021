"""Experiment harness: knockout weights, seeded batch runs, CSV reporting.

A batch is described by an ``ExperimentConfig`` (also readable from a flat
key=value file whose keys are the CLI flag names). ``ALGORITHMS`` declares
each algorithm once: the config fields it reads beyond the common ones, the
defaults it fills in for fields left None, whether it queries an oracle and
draws arms from a family, and the function that runs one seed. The batch
loop, the config file and the CLI are all derived from that table and from
the dataclass fields.

Each seed gets its own oracle; the arm family, when one is needed, is
generated once per batch from ``family_seed`` so every seed and every
algorithm compares on identical arms. Results go to a flat CSV with one row
per seed plus mean/std aggregate rows; its columns are ``RunRecord``'s
fields, typed by their annotations like the config fields. Per-run
query-size histograms and traces are written as separate CSVs. A seed that
raises is skipped and its error returned with the records (and written to
``errors.log``).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .baselines import run_naive, run_r_oracle
from .dslin import STOP_MODES, DsLinParams, generate_arm_family, run_dslin
from .dssr import default_budget, run_dssr
from .graph import Graph, atomic_write, density, edge_mask, load_edge_list, load_weights
from .oracle import NoiseModel, make_oracle
from .solvers import brute_force_densest, exact_densest, peeling_trace

HISTOGRAM_HEADER = "query_size,count"


class ConfigError(ValueError):
    """Invalid experiment configuration (bad flag values, missing files)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: an algorithm, a weighted graph, seeds, and hyperparameters.

    Optional numeric fields left as None are filled from the algorithm's
    ``defaults`` at run time (budget, iteration cap, epsilon defaults differ
    between the fixed-confidence and interval baselines).
    """

    algorithm: str
    graph: str
    weights: str | None = None
    seeds: tuple[int, ...] = (0,)
    out: str | None = None
    budget: int | None = None
    max_iters: int | None = None
    k: int = 10
    epsilon: float | None = None
    delta: float = 0.1
    lam: float = 1.0
    R: float = 1.0
    L: float | None = None
    stop_mode: str = "conservative"
    gamma: float = 0.9
    noise: str = "gaussian-per-edge"
    family_seed: int = 0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {tuple(ALGORITHMS)}")
        if "," in Path(self.graph).stem:  # the stem is a results CSV column
            raise ConfigError(f"graph file name must not contain a comma: {self.graph}")
        if not Path(self.graph).is_file():
            raise ConfigError(f"graph file not found: {self.graph}")
        if self.weights is None:
            raise ConfigError("a weight file is required (generate one with gen-weights)")
        if not Path(self.weights).is_file():
            raise ConfigError(f"weight file not found: {self.weights}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        repeated = [seed for seed, count in Counter(self.seeds).items() if count > 1]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} is repeated")
        if self.k <= 2:
            raise ConfigError("k must exceed 2")
        if self.budget is not None and self.budget < 1:
            raise ConfigError("budget must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError("max-iters must be positive")
        if self.stop_mode not in STOP_MODES:
            raise ConfigError(f"unknown stop-mode {self.stop_mode!r}")
        if not (0 < self.gamma < 1):
            raise ConfigError("gamma must lie in (0, 1)")
        # the noise and DS-Lin ranges are checked by the objects that own them
        epsilon = DsLinParams.epsilon if self.epsilon is None else self.epsilon
        try:
            DsLinParams(epsilon=epsilon, delta=self.delta, lam=self.lam, R=self.R, L=self.L)
            NoiseModel(kind=self.noise, R=self.R)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

def config_key(name: str) -> str:
    """Config-file key and CLI flag (without dashes) of a config field."""
    return "lambda" if name == "lam" else name.replace("_", "-")


def _value_type(hint) -> type:
    """The type an annotation allows besides None: ``int | None`` -> int."""
    if isinstance(hint, UnionType):
        return next(t for t in get_args(hint) if t is not type(None))
    return get_origin(hint) or hint


# the value type of each config field, from its annotation
FIELD_TYPES = {
    name: _value_type(hint) for name, hint in get_type_hints(ExperimentConfig).items()
}
_KEY_TO_FIELD = {config_key(f.name): f.name for f in fields(ExperimentConfig)}


def parse_seeds(text: str) -> tuple[int, ...]:
    """Seed list syntax: '7', '1,2,5', or half-open range '0:100'."""
    text = text.strip()
    lo, colon, hi = text.partition(":")
    try:
        if not colon:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"bad seed list {text!r}") from None
    if hi_i <= lo_i:
        raise ConfigError(f"empty seed range {text!r}")
    return tuple(range(lo_i, hi_i))


def config_from_file(path: str | Path) -> ExperimentConfig:
    """Parse a flat key=value config file."""
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    with Path(path).open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_TO_FIELD:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            name = _KEY_TO_FIELD[key]
            if name in values:
                raise ConfigError(f"{path}:{lineno}: {key} is set twice")
            try:
                values[name] = parse_seeds(val) if name == "seeds" else FIELD_TYPES[name](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad {key} value {val!r}: {exc}") from None
    if "algorithm" not in values or "graph" not in values:
        raise ConfigError(f"{path}: config must set at least algorithm and graph")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RunRecord:
    """One seeded run's outcome, flattened for the results CSV.

    The fields before ``subset_labels`` are the CSV's columns, in order; a
    column is written with ``str`` (floats with ``repr``, so they read back
    exactly) and read with its annotated type.
    """

    algo: str
    graph: str
    seed: int
    budget: int
    quality: float
    opt: float
    out_size: int
    total_queries: int
    single_edge_queries: int
    elapsed_ms: float
    subset_labels: tuple[str, ...] = ()  # the chosen set, not written to the CSV


# the mean/std rows keep the columns before ``seed``, put their label in it
# and aggregate the columns after it
_COLUMNS = tuple(
    (name, kind) for name, kind in get_type_hints(RunRecord).items() if name != "subset_labels"
)
_SEED = [name for name, _ in _COLUMNS].index("seed")
RESULTS_HEADER = ",".join(name for name, _ in _COLUMNS)


def _cells(record: RunRecord, columns) -> list[str]:
    values = [(kind, getattr(record, name)) for name, kind in columns]
    return [repr(float(x)) if kind is float else str(x) for kind, x in values]


def write_results(path: str | Path, records: list[RunRecord]) -> None:
    """Emit the results CSV: one row per record plus mean/std rows."""
    lines = [RESULTS_HEADER]
    lines.extend(",".join(_cells(r, _COLUMNS)) for r in records)
    if records:
        keys = _cells(records[0], _COLUMNS[:_SEED])
        numeric = np.array(
            [[getattr(r, name) for name, _ in _COLUMNS[_SEED + 1 :]] for r in records],
            dtype=np.float64,
        )
        for label, stat in (("mean", numeric.mean(axis=0)), ("std", numeric.std(axis=0))):
            lines.append(",".join(keys + [label] + [repr(float(x)) for x in stat]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_results(path: str | Path) -> list[RunRecord]:
    """Parse a results CSV back into records, skipping the mean/std rows."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != RESULTS_HEADER:
        raise ValueError(f"{path}: unexpected results header")
    records: list[RunRecord] = []
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        if parts[_SEED] in ("mean", "std"):
            continue
        records.append(RunRecord(**{name: kind(part) for (name, kind), part in zip(_COLUMNS, parts)}))
    return records


def write_histogram(path: str | Path, histogram: dict[int, int]) -> None:
    lines = [HISTOGRAM_HEADER]
    lines.extend(f"{size},{count}" for size, count in sorted(histogram.items()))
    atomic_write(path, "\n".join(lines) + "\n")


def knockout_weights(G: Graph, seed: int) -> np.ndarray:
    """Adversarial weights that displace the unweighted densest subgraph.

    Edges inside the unit-weight optimum S* get Uniform(1, 20) weights,
    everything else Uniform(1, 100), so the weighted optimum tends to move
    away from S*. Deterministic given the seed.
    """
    unit = np.ones(G.m)
    inside = edge_mask(G, exact_densest(G, unit).subset)
    rng = np.random.default_rng(seed)
    low = rng.uniform(1.0, 20.0, size=G.m)
    high = rng.uniform(1.0, 100.0, size=G.m)
    return np.where(inside, low, high)


@dataclass(frozen=True)
class Algorithm:
    """How a batch runs one algorithm.

    ``fields`` are the config fields it reads beyond the common ones
    (graph, weights, seeds, out, noise, R); ``defaults`` computes, from the
    graph, the value of such a field left None. ``run(config, G, w, family,
    oracle)`` runs one seed and returns the chosen set, the budget column
    and the trace CSV lines (None when the algorithm writes no trace);
    ``oracle`` and ``family`` say whether it gets a seeded oracle and the
    batch's arm family, or None.
    """

    run: Callable[..., tuple[tuple[int, ...], int, list[str] | None]]
    fields: tuple[str, ...] = ()
    defaults: dict[str, Callable[[Graph], object]] = field(default_factory=dict)
    oracle: bool = False
    family: bool = False


def _run_dslin(config, G, w, family, oracle):
    params = DsLinParams(
        epsilon=float(config.epsilon), delta=config.delta, lam=config.lam, R=config.R, L=config.L
    )
    budget = int(config.max_iters)
    subset, diag = run_dslin(G, family, oracle, params, budget, stop_mode=config.stop_mode, w_true=w)
    rows = ["iteration,incumbent_density,c_t,est_err"]
    for i, (f, c) in enumerate(zip(diag.incumbent_density_trace, diag.ct_trace)):
        err = repr(float(diag.est_err_trace[i])) if diag.est_err_trace else ""
        rows.append(f"{G.m + i},{float(f)!r},{float(c)!r},{err}")
    return subset, budget, rows


def _run_dssr(config, G, w, family, oracle):
    budget = int(config.budget)
    subset, diag = run_dssr(G, oracle, budget)
    rows = ["phase,survivors,f_hat,cum_queries,cum_single_edge"]
    rows.extend(f"{p},{s},{float(f)!r},{q},{sq}" for p, s, f, q, sq in diag.phase_rows)
    return subset, budget, rows


def _run_naive(config, G, w, family, oracle):
    budget = int(config.budget)
    return run_naive(G, family, oracle, budget), budget, None


def _run_r_oracle(config, G, w, family, oracle):
    subset = run_r_oracle(G, w, oracle, gamma=config.gamma, eps=float(config.epsilon))
    return subset, oracle.total_queries, None


ALGORITHMS: dict[str, Algorithm] = {
    # offline solvers see the true weights and make no queries
    "exact": Algorithm(lambda config, G, w, *_: (exact_densest(G, w).subset, 0, None)),
    "brute": Algorithm(lambda config, G, w, *_: (brute_force_densest(G, w).subset, 0, None)),
    "g-oracle": Algorithm(lambda config, G, w, *_: (peeling_trace(G, w).best_subset, 0, None)),
    "dslin": Algorithm(
        _run_dslin,
        ("max_iters", "epsilon", "delta", "lam", "L", "stop_mode", "k", "family_seed"),
        {"max_iters": lambda G: G.m + 10000, "epsilon": lambda G: 0.1},
        oracle=True,
        family=True,
    ),
    "dssr": Algorithm(_run_dssr, ("budget",), {"budget": lambda G: default_budget(G.n)}, oracle=True),
    "naive": Algorithm(
        _run_naive,
        ("budget", "k", "family_seed"),
        {"budget": lambda G: G.m + 10000},
        oracle=True,
        family=True,
    ),
    "r-oracle": Algorithm(_run_r_oracle, ("gamma", "epsilon"), {"epsilon": lambda G: 0.9}, oracle=True),
}


def run_experiment(config: ExperimentConfig) -> tuple[list[RunRecord], list[str]]:
    """Execute one batch; returns the per-seed records and one error line
    per seed that raised. Failed seeds are skipped, and their errors are
    also written to errors.log under the output directory, if any."""
    config.validate()
    algo = ALGORITHMS[config.algorithm]
    G = load_edge_list(config.graph)
    w = load_weights(config.weights, G)
    unset = {name: fill(G) for name, fill in algo.defaults.items() if getattr(config, name) is None}
    config = replace(config, **unset)
    graph_name = Path(config.graph).stem
    opt = exact_densest(G, w).value
    out_dir = Path(config.out) if config.out else None
    noise = NoiseModel(kind=config.noise, R=config.R)
    try:  # a k the graph cannot serve (k > n, or no spanning family)
        family = generate_arm_family(G, config.k, config.family_seed) if algo.family else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    records: list[RunRecord] = []
    errors: list[str] = []
    for seed in config.seeds:
        t0 = time.perf_counter()
        prefix = f"{out_dir / config.algorithm}_{graph_name}_seed{seed}" if out_dir else None
        try:
            oracle = make_oracle(G, w, noise, seed) if algo.oracle else None
            subset, budget, trace = algo.run(config, G, w, family, oracle)
            if prefix and trace is not None:
                atomic_write(f"{prefix}_trace.csv", "\n".join(trace) + "\n")
            if prefix and oracle:
                write_histogram(f"{prefix}_hist.csv", oracle.histogram)
            record = RunRecord(
                algo=config.algorithm,
                graph=graph_name,
                seed=seed,
                budget=budget,
                quality=density(G, w, subset),
                opt=opt,
                out_size=len(subset),
                total_queries=oracle.total_queries if oracle else 0,
                single_edge_queries=oracle.histogram.get(1, 0) if oracle else 0,
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                subset_labels=tuple(G.labels[v] for v in subset),
            )
        except Exception as exc:  # noqa: BLE001 - batch keeps going per seed
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        if record.quality > record.opt + 1e-9:
            raise RuntimeError(
                f"seed {seed}: quality {record.quality} exceeds OPT {record.opt}"
            )
        records.append(record)

    if out_dir is not None:
        write_results(out_dir / "results.csv", records)
        if errors:
            atomic_write(out_dir / "errors.log", "\n".join(errors) + "\n")
    return records, errors
