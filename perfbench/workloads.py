"""The three benchmark workloads.

Each workload sets itself up from files and seeded generators, then yields
rounds: lists of operations, each one timed call into the package's public
functions on inputs generated before the round starts. Every round holds the
same kinds of operations in the same order; only the seeded inputs change.

After each round the outputs are reduced to small digests, so the memory a
run holds does not grow with the number of rounds. ``check`` runs after the
timed section: it makes each round's inputs again from the seed and compares
every digest with the references in ``reference.py``.

All calls go through module attributes (``dssr.run_dssr``, not a name bound
at import time), so a traced replay reaches the span wrappers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from densebandits import baselines, dslin, dssr, experiments, graph, oracle, solvers

import reference as ref

KNOCKOUT_SEED = 0


@dataclass
class Op:
    """One timed call. ``call`` gets the outputs of the round's earlier ops."""

    kind: str
    call: Callable[[list], Any]
    info: dict = field(default_factory=dict)


@dataclass
class Record:
    """An operation's digest, or the error its call raised."""

    kind: str
    round: int
    index: int
    seconds: float
    out: Any = None
    error: str | None = None
    queries: int = 0  # oracle queries the operation issued


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def draw_seed(self, *key: int) -> int:
        return int(self.rng(*key).integers(2**63))

    def load_weighted(self, name: str):
        """Bundled graph plus knockout weights, written and read back as a file.

        The weight seed is that of the acceptance gate, whose quality bars
        hold for it; the workload seed varies oracles and generated inputs.
        """
        G = graph.load_edge_list(self.root / "data" / f"{name}.txt")
        path = self.out_dir / f"{self.name}-{name}-knockout{KNOCKOUT_SEED}.txt"
        graph.save_weights(path, G, experiments.knockout_weights(G, KNOCKOUT_SEED))
        return G, graph.load_weights(path, G)

    def parse_problems(self, graphs) -> list[str]:
        return [
            p
            for name, G in graphs
            for p in ref.check_parse(self.root / "data" / f"{name}.txt", G.labels, G.edges)
        ]

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def digest(self, op: Op, out) -> tuple[Any, int]:
        """(what the checks and a traced replay need, oracle queries issued)."""
        raise NotImplementedError

    def check(self, records: list[Record]):
        """(per-record problem lists, run-level problems, quality ratios)."""
        raise NotImplementedError

    def rounds_of(self, rec: Record) -> int:
        """DS-Lin rounds an operation ran, for dslin.ms_per_round."""
        return 0


class DssrBudget(Workload):
    name = "dssr-budget"
    GRAPHS = ("lesmis", "polbooks")
    T = 10_000
    NOISE = oracle.NoiseModel(kind="gaussian-per-edge", R=1.0)

    def setup(self):
        self.graphs = {g: self.load_weighted(g) for g in self.GRAPHS}

    def round_ops(self, r):
        ops = []
        for i, g in enumerate(self.GRAPHS):
            G, w = self.graphs[g]
            o = oracle.make_oracle(G, w, self.NOISE, self.draw_seed(r, i))
            ops.append(Op(g, lambda res, G=G, o=o: dssr.run_dssr(G, o, self.T), {"oracle": o}))
        return ops

    def digest(self, op, out):
        subset, diag = out
        queries = op.info["oracle"].total_queries
        order, trace = tuple(diag.removal_order), tuple(diag.fhat_trace)
        return (subset, order, diag.total_queries, trace, queries), queries

    def check(self, records):
        problems = self.parse_problems((g, G) for g, (G, _) in self.graphs.items())
        opt = {g: ref.lp_densest(G.n, G.edges, w) for g, (G, w) in self.graphs.items()}
        per_op, ratios, quality = [], [], {g: [] for g in self.GRAPHS}
        for rec in records:
            if rec.error:
                per_op.append([rec.error])
                continue
            subset, _, reported, _, queries = rec.out
            G, w = self.graphs[rec.kind]
            q = ref.density(G.edges, w, subset)
            quality[rec.kind].append(q)
            ratios.append(q / opt[rec.kind])
            per_op.append(ref.check_budget(queries, reported, self.T) + ref.check_quality(q, opt[rec.kind]))
        for g, (G, w) in self.graphs.items():
            if quality[g]:
                problems += [f"{g}: {p}" for p in ref.check_mean_quality(quality[g], opt[g])]
            subset, diag = dssr.run_dssr(G, oracle.make_oracle(G, w, oracle.NoiseModel("none"), 0), self.T)
            peel = ref.greedy_peel(G.n, G.edges, w)
            problems += [f"{g}: {p}" for p in ref.check_peel(diag.removal_order, subset, peel)]
        return per_op, problems, ratios


class DslinKarate(Workload):
    name = "dslin-karate"
    K = 10
    FAMILY_SEED = 0
    EXTRA_ROUNDS = 800  # cap m + 800: each op spans several of the machine's speed swings
    PARAMS = dslin.DsLinParams(epsilon=0.1, delta=0.1, lam=100.0, R=1.0)
    NOISE = oracle.NoiseModel(kind="gaussian-per-edge", R=1.0)

    def setup(self):
        self.G, self.w = self.load_weighted("karate")
        self.family = dslin.generate_arm_family(self.G, self.K, self.FAMILY_SEED)
        self.cap = self.G.m + self.EXTRA_ROUNDS

    def round_ops(self, r):
        G, w, family, cap = self.G, self.w, self.family, self.cap
        s = self.draw_seed(r)
        o_lin = oracle.make_oracle(G, w, self.NOISE, s)
        o_naive = oracle.make_oracle(G, w, self.NOISE, s)

        def call(res):
            incumbent, diag = dslin.run_dslin(G, family, o_lin, self.PARAMS, cap, stop_mode="conservative")
            return incumbent, diag, baselines.run_naive(G, family, o_naive, diag.iterations)

        return [Op("dslin+naive", call, {"lin": o_lin, "naive": o_naive})]

    def digest(self, op, out):
        incumbent, diag, naive = out
        # the final estimate clip(A^-1 b), from the run's own design state
        what = tuple(np.clip(diag.state.A_inv @ diag.state.b, 0.0, None).tolist())
        lin_q, naive_q = op.info["lin"].total_queries, op.info["naive"].total_queries
        summary = (incumbent, diag.iterations, diag.stopped, naive, tuple(diag.incumbent_density_trace), what)
        return summary + (lin_q, naive_q), lin_q + naive_q

    def check(self, records):
        G, w = self.G, self.w
        problems = self.parse_problems([("karate", G)])
        opt = ref.lp_densest(G.n, G.edges, w)
        per_op, ratios, lin_q, naive_q = [], [], [], []
        for rec in records:
            if rec.error:
                per_op.append([rec.error])
                continue
            incumbent, rounds, _, naive, _, what, lin_queries, naive_queries = rec.out
            q = ref.density(G.edges, w, incumbent)
            lin_q.append(q)
            naive_q.append(ref.density(G.edges, w, naive))
            ratios.append(q / opt)
            per_op.append(
                ref.check_lp_optimal(
                    ref.density(G.edges, what, incumbent), ref.lp_densest(G.n, G.edges, what)
                )
                + ref.check_quality(q, opt)
                + ref.check_rounds(rounds, lin_queries, self.cap)
                + ref.check_rounds(rounds, naive_queries, self.cap)
            )
        if lin_q:
            problems += ref.check_beats(lin_q, naive_q)
        return per_op, problems, ratios

    def rounds_of(self, rec):
        return 0 if rec.error else rec.out[1]

    def stopped_share(self, records) -> float:
        done = [rec.out[2] for rec in records if not rec.error]
        return sum(done) / max(1, len(done))


class ExactSolve(Workload):
    name = "exact-solve"
    BUNDLED = ("karate", "lesmis", "polbooks")
    DRAWS = 3  # exact_densest calls per bundled graph per round
    SMALL = 6  # random graphs per round, n in [4, 14]
    BLOCKS, BLOCK_SIZE, P_IN, P_OUT = 70, 15, 0.5, 0.00135  # about 1050 vertices, 4400 edges
    # each round's weights are a run's base weights times this per-edge factor:
    # new vectors every round, but optima, and so solve times, stay alike
    JITTER = (0.9, 1.1)

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.synth_n, self.synth_pairs = self._block_pairs(self.rng(1 << 30))
        self.synth_base = self.rng(1 << 31).uniform(1.0, 100.0, len(self.synth_pairs))

    def _block_pairs(self, rng):
        """Dense blocks, sparse across them, like polbooks at ten times its size."""
        k = self.BLOCK_SIZE
        n = self.BLOCKS * k
        a, b = np.triu_indices(k, 1)
        pairs = set()
        for base in range(0, n, k):
            keep = rng.random(a.size) < self.P_IN
            pairs.update(zip((base + a[keep]).tolist(), (base + b[keep]).tolist()))
        across = int(rng.binomial(n * (n - 1) // 2 - self.BLOCKS * a.size, self.P_OUT))
        while across:
            u, v = sorted(rng.integers(n, size=2).tolist())
            if u // k != v // k and (u, v) not in pairs:
                pairs.add((u, v))
                across -= 1
        return n, sorted(pairs)

    def setup(self):
        self.bundled = {g: self.load_weighted(g) for g in self.BUNDLED}
        self.synth = graph.Graph.from_edges(self.synth_pairs, self.synth_n)

    def _exact(self, kind, G, w):
        return Op(kind, lambda res: solvers.exact_densest(G, w), {"G": G, "w": w})

    def _second(self, kind, G, w, j):
        """second_best_density against the set that op ``j`` of the round found."""

        def call(res):
            return solvers.second_best_density(G, w, res[j].subset)

        return Op(kind, call, {"G": G, "w": w, "best": j})

    def round_ops(self, r):
        rng = self.rng(r)
        ops = []
        for g, (G, base) in self.bundled.items():
            first = len(ops)
            for _ in range(self.DRAWS):
                ops.append(self._exact(f"exact:{g}", G, base * rng.uniform(*self.JITTER, G.m)))
            ops.append(self._second(f"second:{g}", G, ops[first].info["w"], first))
        for i in range(self.SMALL):
            # every other graph is sparse with weights 1 or 2: about a fifth of
            # those have tied maximizers, which exercise the tie-break
            sparse = i % 2 == 1
            n = int(rng.integers(4, 15))
            p = 0.2 if sparse else 0.5
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p] or [(0, 1)]
            G = graph.Graph.from_edges(pairs, n)
            w = rng.integers(1, 3, G.m).astype(float) if sparse else rng.uniform(0.5, 100.0, G.m)
            ops.append(self._exact("exact:small", G, w))
            ops.append(self._second("second:small", G, w, len(ops) - 1))
        w = self.synth_base * rng.uniform(*self.JITTER, self.synth.m)
        ops.append(self._exact("exact:synthetic", self.synth, w))
        return ops

    def digest(self, op, out):
        return (out if isinstance(out, float) else (out.subset, out.value)), 0

    def check(self, records):
        problems = self.parse_problems((g, G) for g, (G, _) in self.bundled.items())
        per_op, ratios = [], []
        for rec in records:
            if rec.index == 0:  # make the round's inputs again
                ops, outs, refs = self.round_ops(rec.round), [], {}
            op = ops[rec.index]
            outs.append(rec.out)
            if rec.error:
                per_op.append([rec.error])
                continue
            G, w = op.info["G"], op.info["w"]
            small = rec.kind.endswith(":small")
            if id(w) not in refs:  # references by weight vector, shared with the second-best op
                refs[id(w)] = ref.brute_force(G.n, G.edges, w) if small else ref.lp_densest(G.n, G.edges, w)
            opt = refs[id(w)][1] if small else refs[id(w)]
            if rec.kind.startswith("exact:"):
                subset, value = rec.out
                q = ref.density(G.edges, w, subset)
                ratios.append(q / opt)
                found = ref.check_optimum(value, q, opt)
                if small:
                    found += ref.check_small(subset, value, refs[id(w)])
            elif small:
                found = ref.check_second_small(rec.out, refs[id(w)])
            else:
                neighbour = ref.best_neighbour_density(G.n, G.edges, w, outs[op.info["best"]][0])
                found = ref.check_second_range(rec.out, neighbour, opt)
            per_op.append(found)
        return per_op, problems, ratios


WORKLOADS = {cls.name: cls for cls in (DssrBudget, DslinKarate, ExactSolve)}


def _by_kind(records: list[Record]) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec.seconds)
    return by_kind


def median_ms_by_kind(records: list[Record]) -> dict[str, float]:
    return {kind: 1000.0 * statistics.median(v) for kind, v in _by_kind(records).items()}


def weighted_median_ms(records: list[Record]) -> float:
    """Mean over the operations of the median time of each one's kind."""
    by_kind = _by_kind(records)
    return 1000.0 * sum(len(v) * statistics.median(v) for v in by_kind.values()) / len(records)
