"""Acceptance gate: eleven checks, one test and one printed pass/fail line
each. Heavy batches (the benchmark-graph runs) are computed once per module
and shared between the checks that read them. Run with ``pytest -v -s
tests/test_acceptance.py`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from densebandits.dslin import (
    DesignState,
    DsLinParams,
    design_matrix,
    generate_arm_family,
    qp_upper_bound,
    run_dslin,
    update,
)
from densebandits.dssr import run_dssr
from densebandits.experiments import default_budget, knockout_weights
from densebandits.graph import Graph, density, load_edge_list
from densebandits.oracle import NoiseModel, make_oracle
from densebandits.baselines import run_naive
from densebandits.solvers import (
    brute_force_densest,
    exact_densest,
    peeling_trace,
)

from conftest import data_path, random_graph


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def small_solver_batch():
    """500 random instances, n <= 12, weights uniform in [0, 100]."""
    rng = np.random.default_rng(2024)
    out = []
    t0 = time.perf_counter()
    for _ in range(500):
        G = random_graph(rng, n=int(rng.integers(2, 13)))
        w = rng.uniform(0.0, 100.0, size=G.m)
        exact = exact_densest(G, w)
        brute = brute_force_densest(G, w)
        greedy_val = peeling_trace(G, w).best_value
        out.append((G, w, exact, brute, greedy_val))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def karate_knockout():
    G = load_edge_list(data_path("karate.txt"))
    w = knockout_weights(G, seed=0)
    return G, w, exact_densest(G, w).value


@pytest.fixture(scope="module")
def karate_dssr_batch(karate_knockout):
    """100 seeded budget-1000 runs on the karate graph."""
    G, w, opt = karate_knockout
    rows = []
    t0 = time.perf_counter()
    for seed in range(100):
        oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
        subset, diag = run_dssr(G, oracle, 1000)
        rows.append(
            (density(G, w, subset), diag.total_queries, oracle.histogram.get(1, 0))
        )
    return opt, rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def medium_dssr_batch():
    """100 seeded budget-10^4 runs each on the two medium graphs."""
    results = {}
    t0 = time.perf_counter()
    for name in ("lesmis", "polbooks"):
        G = load_edge_list(data_path(f"{name}.txt"))
        w = knockout_weights(G, seed=0)
        opt = exact_densest(G, w).value
        rows = []
        for seed in range(100):
            oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
            subset, diag = run_dssr(G, oracle, 10_000)
            rows.append((density(G, w, subset), diag.total_queries))
        results[name] = (opt, rows)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def karate_dslin_batch(karate_knockout):
    """10 seeded fixed-confidence runs (round cap m + 10^4) plus the
    uniform-arm baseline at the matched budget, on shared arms."""
    G, w, opt = karate_knockout
    family = generate_arm_family(G, k=10, seed=0)
    params = DsLinParams(epsilon=0.1, delta=0.1, lam=100.0, R=1.0)
    cap = G.m + 10_000
    dslin_quality, err_early, err_late, naive_quality = [], [], [], []
    t0 = time.perf_counter()
    for seed in range(10):
        oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
        subset, diag = run_dslin(G, family, oracle, params, cap, w_true=w)
        dslin_quality.append(density(G, w, subset))
        trace = diag.est_err_trace
        assert len(trace) > 1000
        err_early.append(trace[1000])
        err_late.append(trace[-1])

        oracle_n = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
        naive_quality.append(density(G, w, run_naive(G, family, oracle_n, cap)))
    elapsed = time.perf_counter() - t0
    return opt, dslin_quality, err_early, err_late, naive_quality, elapsed


# --------------------------------------------------------------- criteria


def test_criterion_01_exact_solver_matches_brute_force(small_solver_batch):
    batch, elapsed = small_solver_batch
    worst = 0.0
    ok = True
    for G, w, exact, brute, _ in batch:
        worst = max(worst, abs(exact.value - brute.value))
        if abs(exact.value - brute.value) > 1e-9:
            ok = False
        if abs(density(G, w, exact.subset) - exact.value) > 1e-9:
            ok = False
    ok = ok and elapsed < 30.0
    _line(1, ok, f"500 instances, max value gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_peeling_half_guarantee(small_solver_batch):
    batch, _ = small_solver_batch
    ratios = [g / b.value for _, _, _, b, g in batch if b.value > 0]
    ok = all(r >= 0.5 - 1e-12 for r in ratios)
    _line(2, ok, f"min peel/OPT ratio {min(ratios):.4f} over {len(ratios)} instances")


def test_criterion_03_zero_noise_run_equals_peeling():
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(100):
        G = random_graph(rng, n=int(rng.integers(3, 31)), p=float(rng.uniform(0.2, 0.7)))
        if rng.random() < 0.5:
            w = rng.uniform(0.5, 10.0, size=G.m)
        else:
            w = rng.integers(1, 5, size=G.m).astype(float)
        overhead = (G.n + 1) * (G.n + 2) // 2
        T = overhead + 1 + int(rng.integers(0, 3 * overhead))
        oracle = make_oracle(G, w, NoiseModel(kind="none"), seed=int(rng.integers(2**32)))
        subset, diag = run_dssr(G, oracle, T)
        trace = peeling_trace(G, w)
        same = (
            tuple(diag.removal_order) == tuple(trace.order)
            and subset == trace.best_subset
            and max(diag.fhat_trace) == trace.best_value
        )
        mismatches += 0 if same else 1
    _line(3, mismatches == 0, f"100 noise-free runs, {mismatches} diverged from peeling")


def test_criterion_04_budget_never_exceeded(karate_dssr_batch, medium_dssr_batch):
    opt, rows, _ = karate_dssr_batch
    checks = [(total, 1000) for _, total, _ in rows]
    medium, _ = medium_dssr_batch
    for _, mrows in medium.values():
        checks.extend((total, 10_000) for _, total in mrows)
    rng = np.random.default_rng(99)
    for _ in range(30):
        G = random_graph(rng, n=int(rng.integers(4, 25)))
        w = rng.uniform(0.5, 50.0, size=G.m)
        overhead = (G.n + 1) * (G.n + 2) // 2
        T = overhead + 1 + int(rng.integers(0, 500))
        oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed=3)
        run_dssr(G, oracle, T)
        checks.append((oracle.total_queries, T))
    ok = all(total <= T for total, T in checks)
    worst = max(total / T for total, T in checks)
    _line(4, ok, f"{len(checks)} runs, max used/T = {worst:.3f}")


def test_criterion_05_karate_budget_1000_batch(karate_dssr_batch):
    opt, rows, elapsed = karate_dssr_batch
    mean_q = float(np.mean([q for q, _, _ in rows]))
    mean_single = float(np.mean([s for _, _, s in rows]))
    frac = sum(s for _, _, s in rows) / sum(t for _, t, _ in rows)
    ok = (
        abs(mean_q - opt) <= 0.05 * opt
        and mean_single < 500
        and frac < 0.5
        and elapsed < 120.0
    )
    _line(
        5,
        ok,
        f"mean quality {mean_q:.2f} vs OPT {opt:.2f} "
        f"({abs(mean_q - opt) / opt:.2%} off), mean single-edge {mean_single:.1f}, "
        f"single-edge fraction {frac:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_medium_graphs_budget_10k(medium_dssr_batch):
    results, elapsed = medium_dssr_batch
    detail = []
    ok = elapsed < 600.0
    for name, (opt, rows) in results.items():
        mean_q = float(np.mean([q for q, _ in rows]))
        ok = ok and mean_q >= 0.95 * opt
        detail.append(f"{name} mean {mean_q:.2f} = {mean_q / opt:.4f} OPT")
    _line(6, ok, ", ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_07_karate_fixed_confidence_batch(karate_dslin_batch):
    opt, dslin_q, _, _, naive_q, elapsed = karate_dslin_batch
    mean_d = float(np.mean(dslin_q))
    mean_n = float(np.mean(naive_q))
    ok = abs(mean_d - opt) <= 0.01 * opt and mean_d > mean_n and elapsed < 1800.0
    _line(
        7,
        ok,
        f"mean quality {mean_d:.2f} vs OPT {opt:.2f} "
        f"({abs(mean_d - opt) / opt:.2%} off), uniform-arm baseline {mean_n:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_estimator_error_shrinks(karate_dslin_batch):
    _, _, err_early, err_late, _, _ = karate_dslin_batch
    wins = sum(late < early for early, late in zip(err_early, err_late))
    ok = wins >= 9
    _line(
        8,
        ok,
        f"error at round m+10000 below round m+1000 in {wins}/10 seeds "
        f"(means {np.mean(err_early):.3f} -> {np.mean(err_late):.3f})",
    )


def test_criterion_09_incremental_design_updates_track_dense():
    rng = np.random.default_rng(5)
    max_inv_gap = 0.0
    max_logdet_gap = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        lam = float(rng.uniform(0.5, 5.0))
        n_arms = int(rng.integers(1, 2 * m + 1))
        chi = (rng.random((n_arms, m)) < 0.4).astype(float)
        chi[chi.sum(axis=1) == 0, rng.integers(0, m)] = 1.0
        G = Graph.from_edges([(i, i + 1) for i in range(m)], m + 1)
        state = DesignState(
            G=G,
            params=DsLinParams(lam=lam),
            L=1.0,
            Rprime=1.0,
            t=0,
            A_inv=np.eye(m) / lam,
            logdetA=m * math.log(lam),
            b=np.zeros(m),
            counts=np.zeros(n_arms, dtype=np.int64),
            chi=chi,
            support=np.arange(n_arms),
            alloc=np.full(n_arms, 1.0 / n_arms),
        )
        for _ in range(int(rng.integers(5, 41))):
            update(state, int(rng.integers(n_arms)), float(rng.normal()))
        A = design_matrix(state)
        max_inv_gap = max(max_inv_gap, float(np.abs(state.A_inv - np.linalg.inv(A)).max()))
        sign, logdet = np.linalg.slogdet(A)
        assert sign > 0
        max_logdet_gap = max(max_logdet_gap, abs(state.logdetA - logdet))
    ok = max_inv_gap < 1e-8 and max_logdet_gap < 1e-6
    _line(
        9,
        ok,
        f"1000 sequences: inverse gap {max_inv_gap:.2e} (< 1e-8), "
        f"log-det gap {max_logdet_gap:.2e} (< 1e-6)",
    )


def test_criterion_10_box_qp_bound_exact_and_relaxed():
    rng = np.random.default_rng(6)
    max_gap = 0.0
    relaxed_ok = True
    for _ in range(200):
        m = int(rng.integers(1, 13))
        B = rng.normal(size=(int(rng.integers(1, m + 3)), m))
        Q = B.T @ B
        if rng.random() < 0.3:
            Q += np.eye(m) * float(rng.uniform(0.0, 2.0))
        exact, kind = qp_upper_bound(Q)
        assert kind == "exact"
        best = 0.0
        for bits in range(1 << m):
            x = np.array([1.0 if bits >> j & 1 else -1.0 for j in range(m)])
            best = max(best, float(x @ Q @ x))
        brute = math.sqrt(best)
        max_gap = max(max_gap, abs(exact - brute))
        relaxed, kind = qp_upper_bound(Q, exact_limit=0)
        assert kind == "relaxed"
        if relaxed < exact - 1e-12:
            relaxed_ok = False
    ok = max_gap <= 1e-9 and relaxed_ok
    _line(
        10,
        ok,
        f"200 PSD matrices: max |exact - corner brute| {max_gap:.2e}, "
        f"relaxed >= exact everywhere: {relaxed_ok}",
    )


def test_criterion_11_budgeted_runs_reach_half_of_optimum():
    rng = np.random.default_rng(7)
    worst_hits = 20
    ok = True
    for _ in range(50):
        G = random_graph(rng, n=int(rng.integers(4, 13)))
        w = rng.uniform(0.0, 100.0, size=G.m)
        opt = brute_force_densest(G, w).value
        if opt <= 0:
            continue
        T = default_budget(G.n) * 10
        hits = 0
        for seed in range(20):
            oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
            subset, _ = run_dssr(G, oracle, T)
            if density(G, w, subset) >= 0.5 * opt - 0.05 * opt:
                hits += 1
        worst_hits = min(worst_hits, hits)
        if hits < 19:
            ok = False
    _line(
        11,
        ok,
        f"50 instances x 20 seeds, worst per-instance success {worst_hits}/20 "
        "(needs >= 19)",
    )
