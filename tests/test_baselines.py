import math

import numpy as np
import pytest

from densebandits import baselines
from densebandits.baselines import run_naive, run_r_oracle
from densebandits.dslin import ArmFamily, generate_arm_family
from densebandits.graph import Graph
from densebandits.oracle import NoiseModel, make_oracle
from densebandits.solvers import exact_densest

from conftest import RecordingOracle, random_graph


def singleton_edge_family(G):
    # one arm per edge; p is irrelevant to the uniform-arm baseline
    return ArmFamily(
        arms=tuple(G.edges),
        edge_sets=tuple((i,) for i in range(G.m)),
        p=np.full(G.m, 1.0 / G.m),
    )


class TestNaive:
    def test_rejects_nonpositive_budget(self, lollipop):
        fam = singleton_edge_family(lollipop)
        orc = make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValueError, match="at least 1"):
            run_naive(lollipop, fam, orc, T=0)

    def test_rejects_empty_family(self, lollipop):
        fam = ArmFamily(arms=(), edge_sets=(), p=np.zeros(0))
        orc = make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValueError, match="empty"):
            run_naive(lollipop, fam, orc, T=5)

    def test_deterministic_given_oracle_seed(self, lollipop):
        w = np.array([2.0, 1.0, 3.0, 0.5])
        noise = NoiseModel(kind="gaussian-per-edge", R=1.0)
        fam = singleton_edge_family(lollipop)
        out = []
        for _ in range(2):
            orc = RecordingOracle(make_oracle(lollipop, w, noise, seed=13))
            out.append((run_naive(lollipop, fam, orc, T=30), orc.queries))
        assert out[0] == out[1]

    def test_visit_accounting_matches_replayed_arm_draws(self, lollipop):
        fam = singleton_edge_family(lollipop)
        orc = RecordingOracle(make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=5))
        T = 40
        run_naive(lollipop, fam, orc, T=T)
        visits = orc.edge_visits(lollipop.m)
        replay = np.random.default_rng(5)
        expect = np.zeros(lollipop.m, dtype=np.int64)
        for _ in range(T):
            expect[int(replay.integers(len(fam.arms)))] += 1
        assert np.array_equal(visits, expect)
        assert int(visits.sum()) == T == orc.total_queries

    def test_empty_edge_arm_burns_round_without_query(self, lollipop):
        # arm 0 is a lone vertex: no induced edges, so its rounds issue
        # no oracle call but still consume budget
        fam = ArmFamily(
            arms=((3,), (0, 1, 2)),
            edge_sets=((), (0, 1, 2)),
            p=np.array([0.5, 0.5]),
        )
        orc = RecordingOracle(make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=11))
        T = 24
        run_naive(lollipop, fam, orc, T=T)
        visits = orc.edge_visits(lollipop.m)
        replay = np.random.default_rng(11)
        arm1_rounds = sum(int(replay.integers(2)) == 1 for _ in range(T))
        assert orc.total_queries == arm1_rounds < T
        assert np.array_equal(visits[:3], np.full(3, arm1_rounds))
        assert visits[3] == 0

    def test_noiseless_singleton_arms_recover_exact_optimum(self, lollipop):
        w = np.array([2.0, 1.0, 3.0, 0.5])
        fam = singleton_edge_family(lollipop)
        orc = RecordingOracle(make_oracle(lollipop, w, NoiseModel(kind="none"), seed=3))
        subset = run_naive(lollipop, fam, orc, T=200)
        assert np.all(orc.edge_visits(lollipop.m) > 0)
        assert np.allclose(orc.edge_share_means(lollipop.m), w)
        assert subset == exact_densest(lollipop, w).subset

    def test_negative_averages_are_clipped_not_fatal(self, lollipop):
        # frozen: seed 0 with R=5 drives two averages negative
        w = np.full(4, 0.5)
        orc = RecordingOracle(
            make_oracle(lollipop, w, NoiseModel(kind="gaussian-per-edge", R=5.0), seed=0)
        )
        fam = singleton_edge_family(lollipop)
        subset = run_naive(lollipop, fam, orc, T=12)
        w_avg = orc.edge_share_means(lollipop.m)
        assert w_avg.min() < 0 < w_avg.max()
        assert subset == (0, 3) == exact_densest(lollipop, np.clip(w_avg, 0.0, None)).subset

    def test_averages_equal_the_per_edge_loop(self, karate, monkeypatch):
        # each round updates its arm's edges at once; the weights solved on
        # must be those of the per-edge running average, bit for bit
        w = np.random.default_rng(8).uniform(0.0, 10.0, karate.m)
        fam = generate_arm_family(karate, k=10, seed=0)
        orc = RecordingOracle(make_oracle(karate, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed=4))
        solved = []
        monkeypatch.setattr(baselines, "exact_densest", lambda G, x: solved.append(x) or exact_densest(G, x))
        run_naive(karate, fam, orc, T=300)
        w_avg = np.zeros(karate.m)
        visits = np.zeros(karate.m, dtype=np.int64)
        for F, obs in orc.queries:
            share = obs / len(F)
            for e in F:
                visits[e] += 1
                w_avg[e] += (share - w_avg[e]) / visits[e]
        assert len(solved) == 1 and solved[0].tobytes() == np.clip(w_avg, 0.0, None).tobytes()

    def test_returns_a_vertex_tuple(self, lollipop):
        fam = singleton_edge_family(lollipop)
        orc = make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=1)
        plain = run_naive(lollipop, fam, orc, T=10)
        assert isinstance(plain, tuple) and all(isinstance(v, int) for v in plain)

    def test_generated_family_round_trip(self, karate):
        w = np.ones(karate.m)
        fam = generate_arm_family(karate, k=10, seed=0)
        orc = make_oracle(karate, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed=2)
        subset = run_naive(karate, fam, orc, T=500)
        assert 1 <= len(subset) <= karate.n
        assert orc.total_queries <= 500


class TestROracle:
    def test_rejects_bad_gamma_and_eps(self, lollipop):
        orc = make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValueError, match="gamma"):
            run_r_oracle(lollipop, np.ones(4), orc, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            run_r_oracle(lollipop, np.ones(4), orc, gamma=1.0)
        with pytest.raises(ValueError, match="eps"):
            run_r_oracle(lollipop, np.ones(4), orc, eps=0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_eps_before_any_query(self, lollipop, eps):
        # inf would make every t_e zero and nan would fail inside ceil
        orc = make_oracle(lollipop, 3.0 * np.ones(4), NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            run_r_oracle(lollipop, 3.0 * np.ones(4), orc, eps=eps)
        assert orc.total_queries == 0

    def test_weights_at_most_one_give_degenerate_intervals(self, lollipop):
        # l_e = max(w_e - 1, 0) = 0 for every edge, so the lower-bound
        # optimum is 0 and the sample count is undefined
        orc = make_oracle(lollipop, np.ones(4), NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            run_r_oracle(lollipop, np.ones(4), orc)
        assert orc.total_queries == 0

    def test_frozen_uniform_weight_case(self, lollipop):
        # w = 3: lo = 2, hi = 4, f_minus = 2 on the triangle,
        # t_e = ceil(16 ln(8/0.9) / 3.24) = 11 per edge, all single-edge
        w = 3.0 * np.ones(4)
        orc = RecordingOracle(make_oracle(lollipop, w, NoiseModel(kind="none"), seed=0))
        subset = run_r_oracle(lollipop, w, orc)
        assert subset == (0, 1, 2)
        assert np.array_equal(orc.edge_visits(lollipop.m), np.full(4, 11))
        assert orc.total_queries == 44
        assert orc.histogram == {1: 44}

    def test_sample_count_formula(self, lollipop):
        w = 3.0 * np.ones(4)
        for gamma, eps in [(0.9, 0.9), (0.5, 0.3), (0.05, 1.5)]:
            orc = RecordingOracle(make_oracle(lollipop, w, NoiseModel(kind="none"), seed=0))
            run_r_oracle(lollipop, w, orc, gamma=gamma, eps=eps)
            t_e = math.ceil(4 * 4.0 * math.log(8.0 / gamma) / (eps**2 * 4.0))
            assert np.array_equal(orc.edge_visits(lollipop.m), np.full(4, t_e))

    def test_clipping_keeps_estimates_inside_intervals(self, lollipop):
        # the pendant edge reports 100, far above r_e = 4. Clipped into
        # [2, 4], its lower bound is 4 - half and the full set wins; left
        # unclipped it would be 100 - half and the pendant pair would win
        class PendantReportsHigh:
            graph = lollipop

            def sample_edges(self, F):
                return 100.0 if list(F) == [3] else 3.0

        assert run_r_oracle(lollipop, 3.0 * np.ones(4), PendantReportsHigh()) == (0, 1, 2, 3)

    def test_noisy_output_matches_truth_on_separated_instance(self):
        # planted triangle at weight 9 vs pendant path at 0.5: the interval
        # half-width cannot blur a gap this wide
        G = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
        w = np.array([9.0, 9.0, 9.0, 0.5, 0.5])
        orc = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed=4)
        subset = run_r_oracle(G, w, orc)
        assert subset == exact_densest(G, w).subset == (0, 1, 2)

    def test_random_instances_with_mild_noise_track_truth(self):
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(10):
            G = random_graph(rng, n=7)
            w = rng.uniform(1.5, 6.0, size=G.m)
            orc = make_oracle(
                G, w, NoiseModel(kind="gaussian-per-edge", R=0.2), seed=int(rng.integers(2**32))
            )
            if run_r_oracle(G, w, orc) == exact_densest(G, w).subset:
                hits += 1
        assert hits >= 8
