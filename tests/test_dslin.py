import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebandits import dslin
from densebandits.baselines import run_naive
from densebandits.graph import Graph, density, induced_edges, load_edge_list
from densebandits.dslin import (
    ArmFamily,
    DsLinParams,
    check_stop,
    confidence_radius,
    default_weight_norm_bound,
    design_matrix,
    estimate,
    generate_arm_family,
    init_state,
    qp_upper_bound,
    run_dslin,
    select_arm,
    update,
)
from densebandits.experiments import knockout_weights
from densebandits.oracle import NoiseModel, make_oracle

from conftest import RecordingOracle, data_path, random_graph


def scalar_state(lam=1.0, R=1.0, L=1.0, delta=0.1):
    """m=1 design on a single-edge graph; the family is built directly
    (a generated family needs arms of at least 3 vertices)."""
    G = Graph.from_edges([(0, 1)], 2)
    family = ArmFamily(arms=((0, 1),))
    params = DsLinParams(epsilon=0.1, delta=delta, lam=lam, R=R, L=L)
    return G, family, init_state(G, family, params)


def lollipop_family() -> ArmFamily:
    """Hand-picked spanning family on the lollipop: the induced edge sets
    {0,1,2}, {0,1,2,3}, {0,3} and {1,3} have rank 4."""
    return ArmFamily(arms=((0, 1, 2), (0, 1, 2, 3), (0, 1, 3), (0, 2, 3)))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DsLinParams(epsilon=0.0)
        with pytest.raises(ValueError):
            DsLinParams(delta=0.0)
        with pytest.raises(ValueError, match="delta must lie in"):
            DsLinParams(delta=1.0)
        with pytest.raises(ValueError):
            DsLinParams(delta=1.5)
        with pytest.raises(ValueError):
            DsLinParams(lam=0.0)
        with pytest.raises(ValueError):
            DsLinParams(R=-1.0)
        with pytest.raises(ValueError):
            DsLinParams(L=-1.0)
        keys = {"epsilon": "epsilon", "delta": "delta", "lam": "lambda", "R": "R", "L": "L"}
        for field, key in keys.items():
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad}$"):
                    DsLinParams(**{field: bad})
        assert DsLinParams(R=0.0).R == 0.0  # noiseless runs are legitimate

    def test_default_weight_norm_bound(self, karate):
        assert default_weight_norm_bound(karate) == pytest.approx(math.sqrt(78) * 100.0)


class TestArmFamily:
    def test_requires_k_above_two(self, lollipop):
        with pytest.raises(ValueError, match="2 < k"):
            generate_arm_family(lollipop, k=2, seed=0)

    def test_small_arm_rejected(self, lollipop, karate):
        with pytest.raises(ValueError, match="k <= n"):
            generate_arm_family(lollipop, k=5, seed=0)
        fam = generate_arm_family(karate, k=10, seed=0)
        assert min(len(a) for a in fam.arms) >= 10

    def test_edgeless_arm_rejected(self, star4):
        # {1, 2, 3} induces no edge of the star; every kept arm holds the hub
        fam = generate_arm_family(star4, k=3, seed=0)
        assert all(induced_edges(star4, a) for a in fam.arms) and all(0 in a for a in fam.arms)

    def test_edgeless_graph_rejected(self):
        # n = 3 allows k = 3, but with m = 0 there is nothing to span
        with pytest.raises(ValueError, match="no edges"):
            generate_arm_family(Graph.from_edges([], 3), k=3, seed=0)

    def test_span_deficit_rejected(self, lollipop):
        # at k = n the only arm is the whole vertex set, of rank 1 < m
        with pytest.raises(ValueError, match="span"):
            generate_arm_family(lollipop, k=4, seed=0)

    def test_spanning_family_accepted(self, lollipop):
        # a hand-picked family runs as a generated one does
        w = np.array([5.0, 5.0, 5.0, 1.0])
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        params = DsLinParams(epsilon=0.5, delta=0.1, lam=1e-12, R=0.0, L=float(np.linalg.norm(w)))
        fam = lollipop_family()
        assert [induced_edges(lollipop, a) for a in fam.arms] == [[0, 1, 2], [0, 1, 2, 3], [0, 3], [1, 3]]
        subset, diag = run_dslin(lollipop, fam, oracle, params, max_iters=500)
        assert diag.stopped and subset == (0, 1, 2)
        assert diag.state.counts.tolist() == [1, 1, 1, 1]

    def test_generation_spans_and_replays(self, lollipop):
        fam1 = generate_arm_family(lollipop, k=3, seed=12)
        fam2 = generate_arm_family(lollipop, k=3, seed=12)
        assert fam1.arms == fam2.arms
        assert fam1 == fam2  # a family is its arms, compared by value
        assert len(fam1.arms) == lollipop.m
        mat = np.zeros((len(fam1.arms), lollipop.m))
        for i, arm in enumerate(fam1.arms):
            mat[i, induced_edges(lollipop, arm)] = 1.0
        assert np.linalg.matrix_rank(mat) == lollipop.m

    def test_generation_failure_when_span_impossible(self, k4):
        # size >= 3 subsets of the 4-clique span only 4 of the 6 edge axes
        with pytest.raises(ValueError, match="span"):
            generate_arm_family(k4, k=3, seed=0)

    # SHA-256 of repr((arms, edge sets)) at k = 10, recorded on the commit
    # before the rank test was batched, when a family stored its edge sets
    FAMILY_PINS = {
        ("karate", 0): "fcb365b6de7634587c769a05b0e7f784c87b9135ddaac4afba962f9324eb6b0b",
        ("karate", 1): "5271a0be7b3dea685212c0cd136d5e7c2ab54e8cb6381c36a44399b4f40ad0a6",
        ("karate", 2): "5a090ea1b1c0032d0e674390287834ee7911cc3916c774dd2cbe51a029dfc295",
        ("lesmis", 0): "783e03836f8c709350e03df24d49ee6f1e9052ae2bbe1b4d2e7d78e52a815ded",
        ("lesmis", 1): "ebec028beae4bba69a44e2f65aba48c6efa9b700c662bdc94c422e0c0ed5536f",
        ("lesmis", 2): "5d4f376a53690a6e7bd7e438778ad952bea7d0b76b5de30ed30418e8235b3487",
        ("polbooks", 0): "d93e7f2265d7a123c4847d81d3f9ebbe9fef02c9cfb11457223017018d274bfc",
        ("polbooks", 1): "fcdb25730d83c805c801a21172b530762a67e5da7dc95e3e35876a8854bb5772",
        ("polbooks", 2): "a16d6f1173bd725dbe2bfd63edf9dd3bbc1116ccff349882300fe0093ed5b505",
    }

    @pytest.mark.parametrize("name, seed", list(FAMILY_PINS))
    def test_bundled_families_are_pinned(self, name, seed):
        G = load_edge_list(data_path(f"{name}.txt"))
        fam = generate_arm_family(G, k=10, seed=seed)
        edge_sets = tuple(tuple(induced_edges(G, arm)) for arm in fam.arms)
        digest = hashlib.sha256(repr((fam.arms, edge_sets)).encode()).hexdigest()
        assert digest == self.FAMILY_PINS[name, seed]


class TestDesignUpdates:
    def test_scalar_ridge_estimate(self):
        G, family, state = scalar_state()
        update(state, 0, 3.0)
        assert design_matrix(state)[0, 0] == pytest.approx(2.0)
        assert state.A_inv[0, 0] == pytest.approx(0.5)
        assert state.logdetA == pytest.approx(math.log(2.0))
        assert estimate(state)[0] == pytest.approx(1.5)
        assert state.t == 1
        assert state.counts[0] == 1

    def test_estimate_clips_negatives(self):
        G, family, state = scalar_state()
        update(state, 0, -4.0)
        assert estimate(state)[0] == 0.0

    def test_nonfinite_reward_rejected(self):
        G, family, state = scalar_state()
        with pytest.raises(ValueError):
            update(state, 0, math.nan)

    def test_incremental_matches_dense_through_refresh(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        params = DsLinParams(lam=0.5)
        state = init_state(lollipop, fam, params)
        rng = np.random.default_rng(0)
        for t in range(300):  # crosses the periodic dense-refresh boundary
            update(state, int(rng.integers(len(fam.arms))), float(rng.normal()))
        dense = params.lam * np.eye(4) + sum(
            c * np.outer(state.chi[i], state.chi[i]) for i, c in enumerate(state.counts)
        )
        assert np.allclose(design_matrix(state), dense, atol=1e-9)
        assert np.allclose(state.A_inv, np.linalg.inv(dense), atol=1e-8)
        sign, logdet = np.linalg.slogdet(dense)
        assert sign > 0
        assert state.logdetA == pytest.approx(logdet, abs=1e-6)

    def test_confidence_radius_fresh_state(self):
        # logdet A = m log lambda at t=0, so only the -2 log delta term remains
        G, family, state = scalar_state(lam=1.0, R=1.0, L=1.0, delta=0.1)
        assert confidence_radius(state) == pytest.approx(
            math.sqrt(2.0 * math.log(10.0)) + 1.0, abs=1e-12
        )
        assert confidence_radius(state) == pytest.approx(3.1459660262893476, abs=1e-12)

    def test_confidence_radius_scales_with_largest_arm(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        state = init_state(lollipop, fam, DsLinParams(lam=1.0, R=2.0, L=0.0, delta=0.1))
        # the arm (0, 1, 2, 3) induces all 4 edges, so an observation carries
        # 4 noise terms and the leading factor is sqrt(4) * 2
        assert max(len(induced_edges(lollipop, a)) for a in fam.arms) == 4
        assert state.Rprime == 4.0
        assert confidence_radius(state) == pytest.approx(
            4.0 * math.sqrt(2.0 * math.log(10.0)), abs=1e-12
        )


class TestSelectArm:
    def test_fresh_state_picks_first(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        state = init_state(lollipop, fam, DsLinParams())
        assert select_arm(state) == 0

    def test_least_pulled_arm_ties_go_low(self, lollipop):
        state = init_state(lollipop, lollipop_family(), DsLinParams())
        state.counts[:] = [2, 1, 3, 1]
        assert select_arm(state) == 1
        state.counts[:] = [2, 3, 2, 4]
        assert select_arm(state) == 0


class TestQpBound:
    def test_identity(self):
        val, mode = qp_upper_bound(np.eye(2))
        assert mode == "exact"
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_correlated(self):
        Q = np.array([[1.0, 0.5], [0.5, 1.0]])
        val, _ = qp_upper_bound(Q)
        assert val == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_relaxed_dominates_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 9))
            B = rng.normal(size=(m, m))
            Q = B @ B.T + 1e-9 * np.eye(m)
            exact, mode_e = qp_upper_bound(Q, exact_limit=12)
            relaxed, mode_r = qp_upper_bound(Q, exact_limit=0)
            assert mode_e == "exact" and mode_r == "relaxed"
            assert relaxed >= exact - 1e-12

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            qp_upper_bound(np.ones((2, 3)))
        with pytest.raises(ValueError):
            qp_upper_bound(np.array([[1.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            qp_upper_bound(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


class TestStopRule:
    def test_conservative_rule_frozen_case(self):
        G, family, state = scalar_state(lam=1.0, R=1.0, L=1.0, delta=0.1)
        update(state, 0, 3.0)
        # what=1.5, fhat over {0,1} = 0.75, C = sqrt(ln 2 + 2 ln 10) + 1,
        # width = U = sqrt(1/2): lhs ~ -0.42 < rhs ~ 1.82 at epsilon 0.1
        width = math.sqrt(0.5)
        U = math.sqrt(0.5)
        C = math.sqrt(math.log(2.0) + 2.0 * math.log(10.0)) + 1.0
        assert confidence_radius(state) == pytest.approx(C, abs=1e-12)
        lhs = 0.75 - C * width / 2.0
        rhs = 0.75 + C * U / 2.0 - 0.1
        margin = check_stop(state, C, 2, np.ones(1), width, U, 0.75)
        assert margin == pytest.approx(lhs - rhs, abs=1e-12)
        assert margin < 0.0

    def test_stop_fires_with_generous_epsilon(self):
        G, family, state = scalar_state()
        state.params = DsLinParams(epsilon=5.0, delta=0.1, lam=1.0, R=1.0, L=1.0)
        update(state, 0, 3.0)
        C = confidence_radius(state)
        assert check_stop(state, C, 2, np.ones(1), math.sqrt(0.5), math.sqrt(0.5), 0.75) >= 0.0

    def test_explicit_rival_shifts_threshold(self):
        G, family, state = scalar_state()
        state.params = DsLinParams(epsilon=5.0, delta=0.1, lam=1.0, R=1.0, L=1.0)
        update(state, 0, 3.0)
        C = confidence_radius(state)
        assert check_stop(state, C, 2, np.ones(1), math.sqrt(0.5), math.sqrt(0.5), 6.0) < 0.0

    def test_lhs_reads_the_unclipped_estimate(self):
        # path 0-1-2 with one single-edge arm per edge; rewards 10 and r at
        # lambda = 1 give A^-1 = I/2, A^-1 b = (5, r/2), and width = U = 1
        # for the incumbent {0, 1, 2}. C = 0.01 * sqrt(2 ln 2 + 2 ln 10) + 0.01.
        G = Graph.from_edges([(0, 1), (1, 2)], 3)
        family = ArmFamily(arms=((0, 1), (1, 2)))
        params = DsLinParams(epsilon=0.3, delta=0.1, lam=1.0, R=0.01, L=0.01)
        for reward, fires in ((4.0, True), (-4.0, False)):
            state = init_state(G, family, params)
            update(state, 0, 10.0)
            update(state, 1, reward)
            # r = -4: the clipped estimate (5, 0) would give lhs 5/3 - C/3 ~ 1.66
            # against rhs 5/3 + C/2 - 0.3 ~ 1.38, but A^-1 b = (5, -2) gives
            # lhs 1 - C/3 ~ 0.99, so no stop is certified
            C = confidence_radius(state)
            rival = density(G, estimate(state), (0, 1, 2))
            assert rival == pytest.approx((5.0 + max(reward, 0.0) / 2.0) / 3.0)
            margin = check_stop(state, C, 3, np.ones(2), 1.0, 1.0, rival)
            assert (margin >= 0.0) == fires


class TestRunDsLin:
    def test_cap_below_init_rejected(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        with pytest.raises(ValueError):
            run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=3)

    def test_cap_at_initialization(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        subset, diag = run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=4)
        assert not diag.stopped
        assert diag.iterations == 4
        assert len(diag.ct_trace) == 1
        assert oracle.total_queries == 4
        assert diag.state.counts.sum() == 4

    def test_noiseless_run_stops_immediately(self, lollipop):
        w = np.array([5.0, 5.0, 5.0, 1.0])
        fam = generate_arm_family(lollipop, k=3, seed=1)
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        params = DsLinParams(epsilon=0.5, delta=0.1, lam=1e-12, R=0.0, L=float(np.linalg.norm(w)))
        subset, diag = run_dslin(lollipop, fam, oracle, params, max_iters=500)
        assert diag.stopped
        assert diag.iterations == 4  # stop test fires on the first pass
        assert subset == (0, 1, 2)

    def test_estimate_error_trace_present_only_with_truth(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        w = np.ones(4)
        oracle = make_oracle(lollipop, w, seed=0)
        _, diag = run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=10)
        assert diag.est_err_trace is None
        oracle = make_oracle(lollipop, w, seed=0)
        _, diag = run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=10, w_true=w)
        assert len(diag.est_err_trace) == len(diag.ct_trace)

    def test_exact_second_best_mode_runs(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        w = np.array([5.0, 5.0, 5.0, 1.0])
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        params = DsLinParams(epsilon=3.0, delta=0.1, lam=1e-12, R=0.0, L=float(np.linalg.norm(w)))
        subset, diag = run_dslin(
            lollipop, fam, oracle, params, max_iters=500, stop_mode="exact-second-best"
        )
        assert subset == (0, 1, 2)
        assert diag.stopped

    def test_margin_trace_records_each_stop_test(self, lollipop):
        w = np.array([5.0, 5.0, 5.0, 1.0])
        fam = generate_arm_family(lollipop, k=3, seed=1)
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        params = DsLinParams(epsilon=0.5, delta=0.1, lam=1e-12, R=0.0, L=float(np.linalg.norm(w)))
        _, diag = run_dslin(lollipop, fam, oracle, params, max_iters=500)
        assert diag.stopped
        assert len(diag.margin_trace) == 1 and diag.margin_trace[0] >= 0.0
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        _, diag = run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=10)
        # the capped final round runs no stop test
        assert not diag.stopped
        assert len(diag.margin_trace) == len(diag.ct_trace) - 1 == 6
        assert all(margin < 0.0 for margin in diag.margin_trace)

    def test_unknown_stop_mode(self, lollipop):
        fam = generate_arm_family(lollipop, k=3, seed=1)
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        with pytest.raises(ValueError):
            run_dslin(lollipop, fam, oracle, DsLinParams(), max_iters=10, stop_mode="bogus")


class TestWarmStartedRun:
    """The karate setting of the acceptance batch: k = 10, family seed 0,
    lambda = 100, knockout weights with seed 0, Gaussian noise R = 1."""

    @pytest.fixture(scope="class")
    def setting(self):
        G = load_edge_list(data_path("karate.txt"))
        w = knockout_weights(G, seed=0)
        family = generate_arm_family(G, k=10, seed=0)
        params = DsLinParams(epsilon=0.1, delta=0.1, lam=100.0, R=1.0)
        return G, w, family, params

    def run(self, setting, max_iters, seed=0):
        G, w, family, params = setting
        oracle = make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed)
        return run_dslin(G, family, oracle, params, max_iters)

    def test_about_one_flow_call_per_solve(self, setting):
        G = setting[0]
        _, diag = self.run(setting, G.m + 200)
        solves = len(diag.incumbent_density_trace)
        assert solves == 201
        assert solves <= diag.flow_calls <= 1.1 * solves

    @pytest.mark.parametrize("seed, flow_calls", [(0, 819), (1, 833), (2, 821)])
    def test_flow_calls_are_pinned(self, setting, seed, flow_calls):
        # each solve starts its max flow from the previous solve's, which
        # changes the flow's cost, not the number of flows: these counts were
        # recorded when every max flow started from zero
        G = setting[0]
        _, diag = self.run(setting, G.m + 800, seed)
        assert diag.flow_calls == flow_calls

    def test_stop_inputs_computed_once_per_round(self, setting, monkeypatch):
        calls = {"estimate": 0, "confidence_radius": 0}
        for name in calls:

            def counted(state, _fn=getattr(dslin, name), _name=name):
                calls[_name] += 1
                return _fn(state)

            monkeypatch.setattr(dslin, name, counted)
        G = setting[0]
        _, diag = self.run(setting, G.m + 200)
        assert calls == {"estimate": 201, "confidence_radius": 201}
        assert len(diag.margin_trace) == 200
        assert all(margin < 0.0 for margin in diag.margin_trace)

    def test_check_stop_runs_once_per_stop_test(self, setting, monkeypatch):
        margins, rivals = [], []

        def counted(state, C, size, chi_hat, width, U, rival, _fn=dslin.check_stop):
            rivals.append(rival)
            margins.append(_fn(state, C, size, chi_hat, width, U, rival))
            return margins[-1]

        monkeypatch.setattr(dslin, "check_stop", counted)
        G = setting[0]
        _, diag = self.run(setting, G.m + 200)
        assert len(margins) == len(diag.margin_trace) == 200
        assert margins == diag.margin_trace
        # the conservative rival is the incumbent's density under the estimate
        assert rivals == diag.incumbent_density_trace[:200]

    def test_seeded_run_is_pinned(self, setting):
        # recorded before the solver was warm-started; any change to the
        # incumbents or to their densities shows here
        subset, diag = self.run(setting, 300)
        trace = np.asarray(diag.incumbent_density_trace, dtype=np.float64)
        assert subset == (0, 4, 5, 6, 9, 22)
        assert trace.size == 223
        assert trace[0] == 66.597594234126
        assert trace[-1] == 70.31029019300732
        digest = hashlib.sha256(trace.tobytes()).hexdigest()
        assert digest == "3ac07e1e4e5e95750395a2cf3b978a7b65e73697677eea70419175fcf64cfdb2"


@pytest.fixture(scope="module")
def unit_ridge_karate():
    """Karate with knockout weights 0, family seed 0 and k = 10, at
    lambda = 1, delta = 0.1 and R = 1."""
    G = load_edge_list(data_path("karate.txt"))
    w = knockout_weights(G, seed=0)
    family = generate_arm_family(G, k=10, seed=0)
    return G, w, family, DsLinParams(epsilon=0.1, delta=0.1, lam=1.0, R=1.0)


@pytest.mark.parametrize("seed", range(10))
def test_confidence_set_holds_at_every_round(unit_ridge_karate, seed):
    # Abbasi-Yadkori, Pal and Szepesvari (2011), Thm 1 and 2: with
    # S_t = sum_s eta_s chi_s, where eta_s is the observation's noise,
    # ||S_t||_{A_t^-1} <= R' sqrt(log det A_t - m log lambda - 2 log delta)
    # and ||A_t^-1 b_t - w||_{A_t} <= C_t for all t, with probability at
    # least 1 - delta. The run is replayed through init_state and update
    # from the observations it made, and both hold at each of its 2,078
    # rounds: the largest ratios over these seeds are 0.44-0.68 and
    # 0.29-0.30, and 0.39-0.49 and 0.13-0.14 after the m first pulls
    G, w, family, params = unit_ridge_karate
    m = G.m
    oracle = RecordingOracle(make_oracle(G, w, NoiseModel(kind="gaussian-per-edge", R=1.0), seed))
    _, diag = run_dslin(G, family, oracle, params, max_iters=m + 2000)
    assert len(oracle.queries) == diag.iterations == m + 2000
    arm_of = {tuple(induced_edges(G, members)): arm for arm, members in enumerate(family.arms)}
    state = init_state(G, family, params)
    A = params.lam * np.eye(m)
    S = np.zeros(m)
    floor = m * math.log(params.lam) + 2.0 * math.log(params.delta)
    noise_ratio, error_ratio = [], []
    for F, obs in oracle.queries:
        arm = arm_of[tuple(int(e) for e in F)]
        chi = state.chi[arm]
        update(state, arm, obs)
        A += np.outer(chi, chi)
        S += (obs - float(chi @ w)) * chi
        noise_ratio.append(math.sqrt(S @ state.A_inv @ S) / (state.Rprime * math.sqrt(state.logdetA - floor)))
        err = state.A_inv @ state.b - w
        error_ratio.append(math.sqrt(err @ A @ err) / confidence_radius(state))
    assert np.array_equal(state.A_inv, diag.state.A_inv) and state.logdetA == diag.state.logdetA
    assert max(noise_ratio) <= 1.0
    assert max(error_ratio) <= 1.0


def spans_all_edges(G: Graph, k: int) -> bool:
    """Whether the induced-edge indicators of all vertex sets of at least
    k vertices span R^m, by enumeration."""
    masks = np.array([s for s in range(1 << G.n) if s.bit_count() >= k])
    chi = np.stack([(masks >> u) & (masks >> v) & 1 for u, v in G.edges], axis=1)
    return np.linalg.matrix_rank(chi.astype(np.float64)) == G.m


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=10))
@settings(max_examples=40, deadline=None)
def test_generated_family_spans_exactly_when_some_family_can(seed, n):
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
    k = int(rng.integers(3, max(3, n // 2) + 1))
    if not spans_all_edges(G, k):
        with pytest.raises(ValueError, match="could not span"):
            generate_arm_family(G, k, seed)
        return
    fam = generate_arm_family(G, k, seed)
    chi = np.zeros((len(fam.arms), G.m))
    for i, arm in enumerate(fam.arms):
        chi[i, induced_edges(G, arm)] = 1.0
    assert len(fam.arms) == G.m
    assert np.linalg.matrix_rank(chi) == G.m
    for arm in fam.arms:
        assert len(arm) >= k and list(arm) == sorted(set(arm))
        assert induced_edges(G, arm)


@pytest.mark.parametrize("seed", range(3))
def test_both_arm_callers_query_the_edges_the_arm_induces(seed):
    # DS-Lin pulls every arm once and then the least-pulled one, so its
    # i-th query is arm i mod m; the naive baseline's arms replay from a
    # generator seeded with the oracle's seed
    G = random_graph(np.random.default_rng(seed), 9, p=0.4)
    family = generate_arm_family(G, k=3, seed=seed)
    edges = [induced_edges(G, arm) for arm in family.arms]
    w = np.random.default_rng(seed).uniform(0.0, 10.0, G.m)
    noise = NoiseModel(kind="gaussian-per-edge", R=1.0)
    lin = RecordingOracle(make_oracle(G, w, noise, seed))
    _, diag = run_dslin(G, family, lin, DsLinParams(), max_iters=3 * G.m + 2)
    assert len(lin.queries) == diag.iterations == 3 * G.m + 2
    assert all(list(F) == edges[i % G.m] for i, (F, _) in enumerate(lin.queries))
    naive = RecordingOracle(make_oracle(G, w, noise, seed))
    run_naive(G, family, naive, T=50)
    replay = np.random.default_rng(seed)
    assert len(naive.queries) == 50
    assert all(list(F) == edges[int(replay.integers(G.m))] for F, _ in naive.queries)


@pytest.mark.parametrize("arm, message", [
    ((0, 2, 7), "vertex index out of range for n=4"),
    ((-1, 0, 2), "vertex index out of range for n=4"),
    ((0, 2, 3.0), "vertex indices must be integers"),
    ((0, 2, True), "vertex indices must be integers"),
])
def test_both_arm_callers_refuse_an_arm_outside_the_graph(lollipop, arm, message):
    family = ArmFamily(arms=((0, 1, 2), (0, 1, 2, 3), (0, 1, 3), arm))
    oracle = make_oracle(lollipop, np.ones(4), seed=0)
    with pytest.raises(ValueError, match=message):
        run_dslin(lollipop, family, oracle, DsLinParams(), max_iters=10)
    with pytest.raises(ValueError, match=message):
        run_naive(lollipop, family, oracle, T=10)
    assert oracle.total_queries == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=12))
@settings(max_examples=25, deadline=None)
def test_long_horizon_updates_at_unit_ridge_stay_within_drift_tolerance(seed, n):
    # lambda = 1 is the smallest ridge in use, so A is worst-conditioned;
    # 2,300 updates with skewed random arms cross eight drift checks (each
    # raises beyond its tolerance) and end 252 updates after the last one
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n)
    arms, edge_sets = [], []
    while len(arms) < G.m:
        members = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist()))
        es = tuple(induced_edges(G, members))
        if es:
            arms.append(members)
            edge_sets.append(es)
    family = ArmFamily(arms=tuple(arms))
    state = init_state(G, family, DsLinParams(lam=1.0))
    pulls = rng.dirichlet(np.full(G.m, 0.3))
    for _ in range(2300):
        arm = int(rng.choice(G.m, p=pulls))
        update(state, arm, float(rng.uniform(0.0, 100.0) * len(edge_sets[arm]) + rng.normal()))
    A = design_matrix(state)
    assert np.abs(state.A_inv @ A - np.eye(G.m)).max() <= 1e-8
    assert state.logdetA == pytest.approx(np.linalg.slogdet(A)[1], abs=1e-6)
