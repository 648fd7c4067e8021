import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebandits.baselines import run_naive, run_r_oracle
from densebandits.dslin import DsLinParams, generate_arm_family, run_dslin
from densebandits.dssr import default_budget, run_dssr
from densebandits.experiments import knockout_weights
from densebandits.graph import Graph, load_edge_list, star_edges
from densebandits.oracle import NoiseModel, SamplingOracle, make_oracle

from conftest import RecordingOracle, alive_mask, data_path, random_graph


class TestNoiseModel:
    def test_kinds(self):
        assert NoiseModel("none").R == 0.0 or NoiseModel("none") is not None
        with pytest.raises(ValueError):
            NoiseModel("laplace")

    def test_gaussian_needs_positive_scale(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian-per-edge", R=0.0)
        with pytest.raises(ValueError):
            NoiseModel("gaussian-per-edge", R=-1.0)
        with pytest.raises(ValueError):
            NoiseModel("gaussian-per-edge", R=math.inf)


class TestQueries:
    def test_exact_sum_without_noise(self, lollipop):
        w = np.array([1.5, 2.0, 0.25, 4.0])
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        assert oracle.sample_edges([0, 1, 3]) == 7.5
        assert oracle.sample_edges([2]) == 0.25

    def test_input_order_irrelevant(self, lollipop):
        w = np.array([1.5, 2.0, 0.25, 4.0])
        a = make_oracle(lollipop, w, seed=3).sample_edges([3, 0, 1])
        b = make_oracle(lollipop, w, seed=3).sample_edges([0, 1, 3])
        assert a == b

    def test_empty_query_refused(self, lollipop):
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        with pytest.raises(ValueError):
            oracle.sample_edges([])

    def test_duplicate_edges_refused(self, lollipop):
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        with pytest.raises(ValueError):
            oracle.sample_edges([1, 1])

    def test_out_of_range_refused(self, lollipop):
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        with pytest.raises(ValueError):
            oracle.sample_edges([0, 4])

    def test_non_integer_indices_refused(self):
        # int() truncation would read [0.9, 2] as edges 0 and 2 and
        # [True, 2] as edges 1 and 2 of the triangle
        triangle = Graph.from_edges([(0, 1), (0, 2), (1, 2)], 3)
        oracle = make_oracle(triangle, np.array([1.0, 2.0, 4.0]), noise="none", seed=0)
        for F in ([0.9, 2], [True, 2], (np.True_, 2), np.array([0.9, 2.0]), np.array([True, False, True])):
            with pytest.raises(ValueError, match="must be integers"):
                oracle.sample_edges(F)
        assert oracle.total_queries == 0 and oracle.histogram == {}
        assert oracle.sample_edges([np.int64(2), 0]) == oracle.sample_edges(np.array([0, 2], dtype=np.uint8)) == 5.0

    def test_weights_are_copied(self, lollipop):
        w = np.ones(4)
        oracle = make_oracle(lollipop, w, noise="none", seed=0)
        w[0] = 100.0
        assert oracle.sample_edges([0]) == 1.0


class TestDeterminism:
    def test_replay_is_bit_identical(self, lollipop):
        w = np.array([3.0, 1.0, 2.0, 5.0])
        a = make_oracle(lollipop, w, seed=17)
        b = make_oracle(lollipop, w, seed=17)
        seq_a = [a.sample_edges([0, 2]), a.sample_edges([1]), a.sample_edges([0, 1, 2, 3])]
        seq_b = [b.sample_edges([0, 2]), b.sample_edges([1]), b.sample_edges([0, 1, 2, 3])]
        assert seq_a == seq_b

    def test_seeds_decouple(self, lollipop):
        w = np.ones(4)
        a = make_oracle(lollipop, w, seed=0).sample_edges([0, 1])
        b = make_oracle(lollipop, w, seed=1).sample_edges([0, 1])
        assert a != b

    def test_seed_must_be_an_integer(self, lollipop):
        # int() would run 1.7 and True on seed 1's noise stream
        w = np.ones(4)
        for seed in (1.7, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="oracle seeds must be integers"):
                make_oracle(lollipop, w, seed=seed)
        a = make_oracle(lollipop, w, seed=np.int64(3))
        assert a.seed == 3 and type(a.seed) is int
        assert a.sample_edges([0, 1]) == make_oracle(lollipop, w, seed=3).sample_edges([0, 1])

    def test_noise_depends_on_query_index_not_content(self, lollipop):
        # the j-th query's noise is a function of (seed, j, |F|) alone, so
        # interchanging earlier queries cannot leak randomness across calls
        w = np.ones(4)
        a = make_oracle(lollipop, w, seed=5)
        b = make_oracle(lollipop, w, seed=5)
        a.sample_edges([0])
        b.sample_edges([1, 2, 3])
        assert a.sample_edges([0, 3]) == b.sample_edges([0, 3])


def per_query_reference(w, seed, j, F, R):
    """The j-th observation of F built from a fresh Philox generator at
    counter block (0, 0, j, 0), independent of the oracle's own generator."""
    idxs = sorted(F)
    bg = np.random.Philox(key=seed, counter=[0, 0, j, 0])
    return float((w[idxs] + np.random.Generator(bg).normal(0.0, R, size=len(idxs))).sum())


def random_query(rng, m):
    k = int(rng.integers(1, m + 1)) if rng.random() < 0.7 else 1
    return [int(e) for e in rng.choice(m, size=k, replace=False)]


class TestNoiseStream:
    @pytest.mark.parametrize("seed,R", [(0, 1.0), (2**64 - 1, 0.3)])
    def test_matches_fresh_generator_per_query(self, karate, seed, R):
        rng = np.random.default_rng(11)
        w = rng.uniform(1.0, 100.0, size=karate.m)
        oracle = make_oracle(karate, w, NoiseModel("gaussian-per-edge", R=R), seed=seed)
        refused = {70: [], 140: [3, 5, 3], 210: [0, karate.m]}
        j = 0
        for i in range(240):
            if i in refused:
                # a refused query raises and leaves counter j to the next one
                with pytest.raises(ValueError):
                    oracle.sample_edges(refused[i])
                assert oracle.total_queries == j
                continue
            F = random_query(rng, karate.m)
            assert oracle.sample_edges(F) == per_query_reference(w, seed, j, F, R)
            j += 1
        assert j == oracle.total_queries == 237

    def test_same_seed_oracles_interleave_in_lockstep(self, karate):
        rng = np.random.default_rng(4)
        w = rng.uniform(1.0, 100.0, size=karate.m)
        a = make_oracle(karate, w, seed=9)
        other = make_oracle(karate, w, seed=10)
        b = make_oracle(karate, w, seed=9)
        for j in range(60):
            F = random_query(rng, karate.m)
            x = a.sample_edges(F)
            other.sample_edges(random_query(rng, karate.m))
            assert b.sample_edges(F) == x == per_query_reference(w, 9, j, F, 1.0)

    def test_noise_free_sums_are_exact(self, karate):
        rng = np.random.default_rng(6)
        w = rng.integers(1, 100, size=karate.m)
        oracle = make_oracle(karate, w.astype(np.float64), noise="none", seed=3)
        for _ in range(200):
            F = random_query(rng, karate.m)
            assert oracle.sample_edges(F) == sum(int(w[e]) for e in F)


REFUSALS = {
    "cannot sample an empty edge subset": lambda F, m: [],
    "edge subset contains duplicates": lambda F, m: F + F[:1],
    "edge index out of range": lambda F, m: F + [m],
    "edge indices must be integers, not bools or floats": lambda F, m: F[:-1] + [F[-1] + 0.5],
}


@given(st.integers(min_value=0, max_value=2**64 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_list_tuple_and_array_queries_agree(seed, data):
    # fresh same-seed oracles given one edge subset, in any order, as a
    # list, a tuple, an index array or one tuple object queried again see
    # the same observations, counts and histogram; the refusals read the
    # same in every form
    rng = np.random.default_rng(seed % 2**32)
    G = random_graph(rng, int(rng.integers(3, 9)))
    w = rng.uniform(0.0, 5.0, size=G.m)
    subset = st.permutations(range(G.m)).flatmap(lambda p: st.integers(1, len(p)).map(lambda k: p[:k]))
    subsets = data.draw(st.lists(subset, min_size=1, max_size=3))
    repeats = data.draw(st.integers(1, 3))
    shared = {}
    forms = (
        list,
        tuple,
        lambda F: np.array(F, dtype=np.intp),
        lambda F: np.array(sorted(F), dtype=np.intp),
        lambda F: shared.setdefault(tuple(F), tuple(F)),
    )
    seen = []
    for form in forms:
        oracle = make_oracle(G, w, seed=seed)
        obs = [oracle.sample_edges(form(F)) for F in subsets for _ in range(repeats)]
        assert all(type(size) is int for size in oracle.histogram)
        seen.append((obs, oracle.total_queries, oracle.histogram))
    assert all(s == seen[0] for s in seen)
    oracle = make_oracle(G, w, seed=seed)
    for message, bad in REFUSALS.items():
        F = bad(list(subsets[0]), G.m)
        for form in (list, tuple, np.array):
            with pytest.raises(ValueError) as refusal:
                oracle.sample_edges(form(F))
            assert str(refusal.value) == message
    assert oracle.total_queries == 0


def test_a_repeated_tuple_is_checked_once_and_nothing_else_is():
    triangle = Graph.from_edges([(0, 1), (0, 2), (1, 2)], 3)
    w = np.array([1.0, 2.0, 4.0])
    oracle = make_oracle(triangle, w, seed=21)
    # the memo starts empty: neither the interned () nor None matches it
    with pytest.raises(ValueError, match="empty"):
        oracle.sample_edges(())
    with pytest.raises(TypeError):
        oracle.sample_edges(None)
    j = 0

    def check(F, expected):
        nonlocal j
        assert oracle.sample_edges(F) == per_query_reference(w, 21, j, expected, 1.0)
        j += 1
        assert oracle.total_queries == j

    star = (2, 0)
    for _ in range(3):
        check(star, [0, 2])
    # a list or an array mutated in place is checked and read again
    F = [0, 1]
    check(F, [0, 1])
    F[1] = 2
    check(F, [0, 2])
    F.append(0)
    with pytest.raises(ValueError, match="duplicates"):
        oracle.sample_edges(F)
    A = np.array([1, 2], dtype=np.intp)
    check(A, [1, 2])
    A[0] = 3
    with pytest.raises(ValueError, match="out of range"):
        oracle.sample_edges(A)
    # a refused tuple raises on every repeat, draws no noise and leaves the
    # last checked tuple usable
    bad = (1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicates"):
            oracle.sample_edges(bad)
    assert oracle.total_queries == j
    check(star, [0, 2])
    with pytest.raises(ValueError, match="empty"):
        oracle.sample_edges(())
    check(star, [0, 2])
    assert oracle.histogram == {2: j}
    # two oracles keep their own memo: the tuple this one trusts names an
    # edge the single-edge graph does not have
    other = make_oracle(Graph.from_edges([(0, 1)], 2), np.ones(1), seed=21)
    with pytest.raises(ValueError, match="out of range"):
        other.sample_edges(star)
    assert other.total_queries == 0
    check(star, [0, 2])


def test_repr_hides_the_weights_and_oracles_compare_by_identity(lollipop):
    w = np.array([3.5, 7.25, 1.0, 2.0])
    a = make_oracle(lollipop, w, seed=0)
    b = make_oracle(lollipop, w, seed=0)
    text = repr(a)
    assert "_w" not in text and "3.5" not in text and "7.25" not in text
    assert "seed=0" in text and "total_queries=0" in text
    assert a == a and a != b and not (a == b)
    assert len({a, b}) == 2


BUNDLED = ("karate", "lesmis", "polbooks")


def _algorithms_on(G, oracle, w):
    return {
        "dssr": lambda: run_dssr(G, oracle, default_budget(G.n)),
        "dslin": lambda: run_dslin(G, generate_arm_family(G, k=10, seed=0), oracle, DsLinParams(), G.m + 5),
        "naive": lambda: run_naive(G, generate_arm_family(G, k=10, seed=0), oracle, 50),
        "r-oracle": lambda: run_r_oracle(G, w, oracle),
    }


@pytest.mark.parametrize("algorithm", ["dssr", "dslin", "naive", "r-oracle"])
def test_algorithms_refuse_an_oracle_of_another_graph(algorithm):
    karate = load_edge_list(data_path("karate.txt"))
    lesmis = load_edge_list(data_path("lesmis.txt"))
    foreign = make_oracle(lesmis, knockout_weights(lesmis, seed=0), seed=0)
    w = knockout_weights(karate, seed=0)
    with pytest.raises(ValueError, match="another graph"):
        _algorithms_on(karate, foreign, w)[algorithm]()
    assert foreign.total_queries == 0
    # an equal graph loaded again is the same graph
    copy = load_edge_list(data_path("karate.txt"))
    assert copy is not karate and copy == karate
    _algorithms_on(karate, make_oracle(copy, w, seed=0), w)[algorithm]()


@pytest.mark.parametrize(
    "name,algorithm",
    [(name, "dssr") for name in BUNDLED] + [("karate", "naive"), ("karate", "r-oracle")],
)
def test_every_counted_query_is_one_sample_edges_call(name, algorithm):
    # each counted query is one sample_edges call at its own noise counter,
    # which the traced benchmark's replay also checks; a batched query path
    # would break this
    G = load_edge_list(data_path(f"{name}.txt"))
    w = knockout_weights(G, seed=0)
    if algorithm == "r-oracle":
        # weights low enough that every edge is queried many times over
        w = np.full(G.m, 3.0)
    oracle = RecordingOracle(make_oracle(G, w, seed=5))
    out = _algorithms_on(G, oracle, w)[algorithm]()
    assert len(oracle.queries) == oracle.total_queries > 0
    if algorithm == "dssr":
        assert out[1].total_queries == oracle.total_queries
    for j, (F, obs) in enumerate(oracle.queries):
        assert obs == per_query_reference(w, 5, j, F, 1.0)
    if algorithm != "naive":
        # the same tuple queried again in a row: the path the memo serves
        assert any(a is b for (a, _), (b, _) in zip(oracle.queries, oracle.queries[1:]))


class TestCounters:
    def test_counts_and_histogram(self, lollipop):
        oracle = make_oracle(lollipop, np.ones(4), seed=0)
        oracle.sample_edges([0])
        oracle.sample_edges([1])
        oracle.sample_edges([0, 2])
        oracle.sample_edges(star_edges(lollipop, alive_mask(4, (0, 1, 2, 3)), 0))
        assert oracle.total_queries == 4
        assert oracle.histogram == {1: 2, 2: 1, 3: 1}

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_histogram_totals_invariant(self, seed, steps):
        rng = np.random.default_rng(seed)
        G = random_graph(rng, 8)
        oracle = make_oracle(G, rng.uniform(0, 5, size=G.m), seed=seed)
        for _ in range(steps):
            k = int(rng.integers(1, G.m + 1))
            F = sorted(int(e) for e in rng.choice(G.m, size=k, replace=False))
            oracle.sample_edges(F)
        assert sum(oracle.histogram.values()) == oracle.total_queries == steps


class TestNoiseStatistics:
    def test_single_edge_mean(self, lollipop):
        # sample mean of 1e5 unit-variance draws on a weight-4 edge
        w = np.array([1.0, 1.0, 1.0, 4.0])
        oracle = make_oracle(lollipop, w, noise=NoiseModel("gaussian-per-edge", R=1.0), seed=123)
        draws = np.array([oracle.sample_edges([3]) for _ in range(100_000)])
        assert abs(draws.mean() - 4.0) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_variance_grows_with_query_size(self, k4):
        # per-edge noise is independent, so a 4-edge query has variance 4R^2
        w = np.ones(6)
        oracle = make_oracle(k4, w, noise=NoiseModel("gaussian-per-edge", R=1.0), seed=7)
        draws = np.array([oracle.sample_edges([0, 1, 2, 3]) for _ in range(50_000)])
        assert abs(draws.mean() - 4.0) < 0.05
        assert abs(draws.var() - 4.0) < 0.15

    def test_mean_concentrates_at_rate(self, k4):
        # average of k observations deviates by less than 4 sqrt(|F|) R / sqrt(k)
        # in nearly all trials
        w = np.full(6, 2.0)
        R = 1.0
        F = [0, 1, 2]
        k = 10_000
        hits = 0
        trials = 20
        for t in range(trials):
            oracle = make_oracle(k4, w, noise=NoiseModel("gaussian-per-edge", R=R), seed=t)
            avg = math.fsum(oracle.sample_edges(F) for _ in range(k)) / k
            if abs(avg - 6.0) < 4.0 * math.sqrt(len(F)) * R / math.sqrt(k):
                hits += 1
        assert hits >= trials - 1
