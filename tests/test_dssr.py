import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebandits import dssr
from densebandits.graph import Graph, density, load_edge_list, star_edges
from densebandits.dssr import (
    BudgetSchedule,
    PeelingState,
    build_schedule,
    run_dssr,
    sample_phase_vertex,
)
from densebandits.experiments import default_budget, knockout_weights
from densebandits.oracle import make_oracle
from densebandits.solvers import peeling_trace

from conftest import data_path, random_graph


class TestSchedule:
    def test_frozen_small_case(self):
        # overhead 15, H(3) = 11/6, T_tilde = (16, 24, 47)
        sch = build_schedule(100, 4)
        assert sch.T_prime == (2, 4, 12)
        assert sch.tau == (2, 2, 8)

    def test_karate_overhead(self):
        with pytest.raises(ValueError, match="minimum feasible T is 631"):
            build_schedule(630, 34)
        sch = build_schedule(1000, 34)
        assert all(tau >= 0 for tau in sch.tau)
        assert len(sch.tau) == 33

    def test_rejects_budget_at_or_below_overhead(self):
        with pytest.raises(ValueError, match="minimum feasible"):
            build_schedule(15, 4)
        with pytest.raises(ValueError):
            build_schedule(10, 4)
        assert len(build_schedule(16, 4).tau) == 3

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            build_schedule(100, 1)

    def test_quotas_nondecreasing(self):
        for T, n in ((700, 34), (10_000, 77), (123_456, 105)):
            sch = build_schedule(T, n)
            assert all(b >= a for a, b in zip(sch.T_prime, sch.T_prime[1:]))


def state_for(G, w, noise="none", seed=0):
    oracle = make_oracle(G, w, noise=noise, seed=seed)
    return PeelingState(
        G=G,
        oracle=oracle,
        alive=np.ones(G.n, dtype=bool),
        est=np.zeros(G.n),
        counts=np.zeros(G.n, dtype=np.int64),
    )


class TestPhaseSampling:
    def test_isolated_vertex_costs_nothing(self):
        G = Graph.from_edges([(0, 1)], 3)
        state = state_for(G, np.ones(1))
        sch = build_schedule(50, 3)
        state.est[2] = 9.9
        state.counts[2] = 4
        sample_phase_vertex(state, sch, 1, 2, True)
        assert state.est[2] == 0.0
        assert state.counts[2] == 0
        assert state.oracle.total_queries == 0

    def test_unchanged_star_merges_by_counts(self, lollipop):
        # carried estimate 2.0 with weight 3 merges with 2 fresh noiseless
        # observations of value 3.5 into (3*2 + 2*3.5)/5 = 2.6
        w = np.array([1.5, 2.0, 9.0, 9.0])
        state = state_for(lollipop, w)
        sch = BudgetSchedule(T_prime=(5,), tau=(2,))
        state.est[0] = 2.0
        state.counts[0] = 3
        state.alive[3] = False  # star of 0 inside {0,1,2} sums to 1.5+2.0
        sample_phase_vertex(state, sch, 1, 0, False)
        assert state.est[0] == pytest.approx(2.6)
        assert state.counts[0] == 5
        assert state.oracle.total_queries == 2

    def test_zero_quota_keeps_history(self, lollipop):
        state = state_for(lollipop, np.ones(4))
        sch = BudgetSchedule(T_prime=(5,), tau=(0,))
        state.est[1] = 7.0
        state.counts[1] = 2
        sample_phase_vertex(state, sch, 1, 1, False)
        assert state.est[1] == 7.0
        assert state.counts[1] == 2
        assert state.oracle.total_queries == 0

    def test_neighbor_of_removed_discards_history(self, lollipop):
        w = np.array([1.5, 2.0, 9.0, 9.0])
        state = state_for(lollipop, w)
        sch = BudgetSchedule(T_prime=(2, 3), tau=(2, 1))
        state.est[0] = 100.0
        state.counts[0] = 50
        state.alive[3] = False  # vertex 3 neighbors 0 in the lollipop
        sample_phase_vertex(state, sch, 2, 0, True)
        # fresh restart with T_prime[1]=3 noiseless star observations of 3.5
        assert state.est[0] == pytest.approx(3.5)
        assert state.counts[0] == 3
        assert state.oracle.total_queries == 3

    def test_non_neighbor_keeps_history(self, lollipop):
        w = np.array([1.5, 2.0, 9.0, 9.0])
        state = state_for(lollipop, w)
        sch = BudgetSchedule(T_prime=(2, 3), tau=(2, 1))
        state.est[1] = 10.0
        state.counts[1] = 1
        state.alive[3] = False  # 3 does not neighbor 1
        sample_phase_vertex(state, sch, 2, 1, False)
        # merge: (1*10 + 1*obs)/2 with obs = w[0]+w[2] = 10.5
        assert state.est[1] == pytest.approx(10.25)
        assert state.counts[1] == 2

    def test_vertex_isolated_by_removal_is_zeroed(self, lollipop):
        state = state_for(lollipop, np.ones(4))
        sch = BudgetSchedule(T_prime=(2, 3), tau=(2, 0))
        state.est[3] = 4.0
        state.counts[3] = 2
        state.alive[0] = False  # the pendant's only neighbor
        sample_phase_vertex(state, sch, 2, 3, True)
        assert state.est[3] == 0.0
        assert state.counts[3] == 0
        assert state.oracle.total_queries == 0

    def test_removed_vertex_rejected(self, lollipop):
        state = state_for(lollipop, np.ones(4))
        sch = build_schedule(100, 4)
        state.alive[2] = False
        with pytest.raises(ValueError, match="removed"):
            sample_phase_vertex(state, sch, 1, 2, True)


class TestRunDssr:
    def test_noiseless_equals_greedy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            G = random_graph(rng, n, p=0.4)
            w = rng.uniform(0.5, 10.0, size=G.m)
            T = (n + 1) * (n + 2) // 2 + int(rng.integers(1, 500))
            oracle = make_oracle(G, w, noise="none", seed=0)
            subset, diag = run_dssr(G, oracle, T)
            trace = peeling_trace(G, w)
            assert tuple(diag.removal_order) == trace.order
            assert diag.fhat_trace == list(trace.densities[:-1])
            assert subset == trace.best_subset
            assert density(G, w, subset) == pytest.approx(trace.best_value, abs=1e-9)

    @pytest.mark.parametrize("graph", ["karate", "lesmis", "polbooks"])
    @pytest.mark.parametrize("weight_seed", [0, 1])
    def test_noiseless_equals_greedy_on_bundled_graphs(self, graph, weight_seed):
        # the default budgets leave tau_t = 0 in most phases, so most
        # estimates are carried over, which the small random graphs rarely do
        G = load_edge_list(data_path(f"{graph}.txt"))
        w = knockout_weights(G, seed=weight_seed)
        T = default_budget(G.n)
        zero_phases = {"karate": 27, "lesmis": 60, "polbooks": 91}[graph]
        assert build_schedule(T, G.n).tau.count(0) == zero_phases
        subset, diag = run_dssr(G, make_oracle(G, w, noise="none", seed=0), T)
        trace = peeling_trace(G, w)
        assert tuple(diag.removal_order) == trace.order
        assert diag.fhat_trace == list(trace.densities[:-1])
        assert subset == trace.best_subset

    def test_changed_stars_are_the_evicted_vertex_neighbors(self, monkeypatch):
        G = load_edge_list(data_path("lesmis.txt"))
        calls = []

        def recorded(state, schedule, t, v, changed):
            calls.append((t, v, changed))
            return sample_phase_vertex(state, schedule, t, v, changed)

        monkeypatch.setattr(dssr, "sample_phase_vertex", recorded)
        _, diag = run_dssr(G, make_oracle(G, knockout_weights(G, seed=0), seed=0), 10_000)
        # one call per survivor per phase, ascending; changed in phase 1 and
        # for the survivors adjacent to the previous phase's evicted vertex
        alive = np.ones(G.n, dtype=bool)
        expected, last = [], None
        for t, evicted in enumerate(diag.removal_order, start=1):
            for v in np.flatnonzero(alive).tolist():
                touched = last is None or any(u == last for u, _ in G.adjacency[v])
                expected.append((t, v, touched))
            alive[evicted] = False
            last = evicted
        assert calls == expected
        assert any(not changed for _, _, changed in calls)

    def test_diagnostics_shape(self, karate):
        w = np.ones(karate.m)
        oracle = make_oracle(karate, w, seed=0)
        subset, diag = run_dssr(karate, oracle, 1000)
        assert len(diag.fhat_trace) == 33
        assert len(diag.removal_order) == 33
        assert diag.total_queries == oracle.total_queries <= 1000
        assert diag.phase_rows[-1][3:] == (diag.total_queries, oracle.histogram.get(1, 0))

    def test_phase_rows_monotone_queries(self, karate):
        oracle = make_oracle(karate, np.ones(karate.m), seed=1)
        _, diag = run_dssr(karate, oracle, 2000)
        cum = [row[3] for row in diag.phase_rows]
        assert cum == sorted(cum)
        sizes = [row[1] for row in diag.phase_rows]
        assert sizes == list(range(34, 1, -1))

    def test_diagnostics_count_this_run_only(self, karate):
        oracle = make_oracle(karate, knockout_weights(karate, seed=0), seed=0)
        _, first = run_dssr(karate, oracle, 1000)
        _, diag = run_dssr(karate, oracle, 1000)
        assert oracle.total_queries == 388
        assert diag.total_queries == 194
        assert diag.phase_rows[-1][3:] == (194, 55)
        assert oracle.histogram.get(1, 0) == first.phase_rows[-1][4] + 55

    def test_star_edges_called_once_per_built_star(self, monkeypatch):
        G = load_edge_list(data_path("lesmis.txt"))
        built = []

        def counted(G, alive, v):
            built.append(v)
            return star_edges(G, alive, v)

        monkeypatch.setattr(dssr, "star_edges", counted)
        T = 10_000
        _, diag = run_dssr(G, make_oracle(G, knockout_weights(G, seed=0), seed=0), T)
        # a survivor's star is built when the last removal touched it or the
        # phase tops unchanged stars up (tau_t > 0)
        tau = build_schedule(T, G.n).tau
        alive = np.ones(G.n, dtype=bool)
        expected, last = [], None
        for t, evicted in enumerate(diag.removal_order, start=1):
            for v in np.flatnonzero(alive):
                touched = last is not None and any(u == last for u, _ in G.adjacency[v])
                if touched or tau[t - 1] > 0:
                    expected.append(int(v))
            alive[evicted] = False
            last = evicted
        assert 0 in tau and built == expected

    def test_edgeless_graph_keeps_everything(self):
        G = Graph.from_edges([(0, 1)], 5)
        subset, diag = run_dssr(G, make_oracle(G, np.zeros(1), noise="none", seed=0), 100)
        assert subset == (0, 1, 2, 3, 4)


class TestSeededRunsPinned:
    """Criterion-6 setting: knockout weights of seed 0, Gaussian noise
    R = 1, T = 10^4. Digests recorded before the oracle kept one generator
    per instance; the tau_t = 0 phases of these graphs reuse carried
    estimates, so any change to the noise stream or the merge shows here."""

    @pytest.mark.parametrize(
        "graph,seed,queries,digest",
        [
            ("lesmis", 0, 2300, "fa5f920baf1824c883ed1f595f3a6ac081b0f6a26ef16d239ac8719a394658a1"),
            ("lesmis", 1, 2300, "11db8d2e450fddf3d4be8cb522eaf9e58fa69f2979032a9ac89f9494d53276b8"),
            ("polbooks", 0, 1619, "f96118c43a311aacc2e4cbf22e3f7f8deaa2e5f67153e465c0211dbff4939332"),
            ("polbooks", 1, 1608, "b84f64eb6ef021b34d7d7da70d0fce4c5597d307bb06f6ee205f56dae0f0c07c"),
        ],
    )
    def test_removal_order_trace_rows_and_histogram(self, graph, seed, queries, digest):
        G = load_edge_list(data_path(f"{graph}.txt"))
        oracle = make_oracle(G, knockout_weights(G, seed=0), seed=seed)
        _, diag = run_dssr(G, oracle, 10_000)
        assert diag.total_queries == queries
        h = hashlib.sha256()
        h.update(np.asarray(diag.removal_order, dtype=np.int64).tobytes())
        h.update(np.asarray(diag.fhat_trace, dtype=np.float64).tobytes())
        h.update(repr(diag.phase_rows).encode())
        h.update(repr(sorted(oracle.histogram.items())).encode())
        assert h.hexdigest() == digest


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=40, deadline=None)
def test_budget_law(seed, n, slack):
    # the query counter never exceeds T, whatever the topology or budget
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n, p=0.4)
    w = rng.uniform(0.0, 10.0, size=G.m)
    T = (n + 1) * (n + 2) // 2 + slack
    oracle = make_oracle(G, w, seed=seed)
    run_dssr(G, oracle, T)
    assert oracle.total_queries <= T
