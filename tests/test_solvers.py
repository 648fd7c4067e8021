import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebandits import solvers
from densebandits.experiments import knockout_weights
from densebandits.graph import Graph, density, induced_edges
from densebandits.solvers import (
    brute_force_densest,
    exact_densest,
    peeling_trace,
    second_best_density,
)

from conftest import random_graph


def enumerate_best(G, w):
    """Reference maximizer by direct enumeration (independent of the library
    brute force): smallest cardinality then lexicographic ties."""
    best = None
    for size in range(1, G.n + 1):
        for comb in itertools.combinations(range(G.n), size):
            idxs = [i for i, (u, v) in enumerate(G.edges) if u in comb and v in comb]
            val = float(np.sum(w[idxs])) / size if idxs else 0.0
            if best is None or val > best[0] + 1e-15:
                best = (val, comb)
    return best[1], best[0]


class TestExactDensest:
    def test_lollipop_unit(self, lollipop):
        res = exact_densest(lollipop, np.ones(4))
        # the full set ties at density 1.0; smallest cardinality wins
        assert res.subset == (0, 1, 2)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_lollipop_half_pendant(self, lollipop):
        w = np.array([1.0, 1.0, 1.0, 0.5])
        res = exact_densest(lollipop, w)
        assert res.subset == (0, 1, 2)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_tie_whose_union_is_not_strongly_connected(self):
        # the pendant 0 ties the triangle 1-2-3 at density 1.0; in the union
        # of the two maximizers vertex 0 reaches the triangle but not back
        G = Graph.from_edges([(0, 1), (1, 2), (1, 3), (2, 3)], 4)
        assert exact_densest(G, np.ones(4)).subset == (1, 2, 3)

    def test_star_and_clique(self, star4, k4):
        res = exact_densest(star4, np.ones(3))
        assert res.subset == (0, 1, 2, 3)
        assert res.value == pytest.approx(0.75, abs=1e-12)
        res = exact_densest(k4, np.ones(6))
        assert res.subset == (0, 1, 2, 3)
        assert res.value == pytest.approx(1.5, abs=1e-12)

    def test_all_zero_weights_degenerate(self, lollipop):
        res = exact_densest(lollipop, np.zeros(4))
        assert res.subset == (0,)
        assert res.value == 0.0

    def test_tie_breaks_to_lexicographic(self):
        # two vertex-disjoint triangles of equal weight; both are maximizers
        G = Graph.from_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], 6)
        res = exact_densest(G, np.ones(6))
        assert res.subset == (0, 1, 2)
        # heavier second triangle flips the choice
        w = np.array([1.0, 1.0, 1.0, 1.1, 1.1, 1.1])
        assert exact_densest(G, w).subset == (3, 4, 5)

    def test_fractional_weights_exact(self):
        G = Graph.from_edges([(0, 1), (1, 2), (0, 2)], 3)
        w = np.array([0.1, 0.1, 0.1])
        res = exact_densest(G, w)
        assert res.value == pytest.approx(0.1, abs=1e-12)

    def test_reported_value_matches_subset(self, lollipop):
        w = np.array([3.7, 0.2, 5.5, 1.9])
        res = exact_densest(lollipop, w)
        assert res.value == pytest.approx(density(lollipop, w, res.subset), abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            G = random_graph(rng, int(rng.integers(2, 9)))
            w = rng.uniform(0.0, 100.0, size=G.m)
            res = exact_densest(G, w)
            ref_set, ref_val = enumerate_best(G, w)
            assert abs(res.value - ref_val) <= 1e-9
            assert res.subset == ref_set


class TestBruteForce:
    def test_agrees_with_exact(self, lollipop):
        w = np.array([1.0, 1.0, 1.0, 0.5])
        assert brute_force_densest(lollipop, w).subset == (0, 1, 2)

    def test_refuses_large_n(self):
        G = Graph.from_edges([(i, i + 1) for i in range(21)], 22)
        with pytest.raises(ValueError):
            brute_force_densest(G, np.ones(21))
        G = Graph.from_edges([(i, i + 1) for i in range(20)], 21)
        with pytest.raises(ValueError, match="capped at n=20"):
            brute_force_densest(G, np.ones(20))

    def test_tie_break_order(self):
        G = Graph.from_edges([(0, 1), (2, 3)], 4)
        # both single edges tie at density 0.5; lexicographic pick
        assert brute_force_densest(G, np.ones(2)).subset == (0, 1)


class TestGreedyPeeling:
    def test_star_keeps_everything(self, star4):
        trace = peeling_trace(star4, np.ones(3))
        assert trace.best_subset == (0, 1, 2, 3)
        assert trace.best_value == pytest.approx(0.75)

    def test_trace_shape_and_tie_breaking(self):
        # path 0-1-2: the endpoints tie at degree 1, smallest index removed first
        G = Graph.from_edges([(0, 1), (1, 2)], 3)
        trace = peeling_trace(G, np.ones(2))
        assert trace.order == (0, 1)
        assert len(trace.densities) == 3
        assert trace.densities[0] == pytest.approx(2.0 / 3.0)
        assert trace.best_subset == (0, 1, 2)

    def test_half_approximation(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            G = random_graph(rng, int(rng.integers(2, 10)))
            w = rng.uniform(0.0, 50.0, size=G.m)
            opt = brute_force_densest(G, w).value
            assert peeling_trace(G, w).best_value >= 0.5 * opt - 1e-9

    def test_prefers_earliest_on_ties(self):
        # no edges at all: every prefix has density 0; keep the full set
        G = Graph.from_edges([(0, 1)], 3)
        trace = peeling_trace(G, np.zeros(1))
        assert trace.best_subset == (0, 1, 2)
        assert trace.best_value == 0.0


class TestSecondBest:
    def test_lollipop_unit_ties_with_best(self, lollipop):
        res = exact_densest(lollipop, np.ones(4))
        assert second_best_density(lollipop, np.ones(4), res.subset) == pytest.approx(1.0, abs=1e-12)

    def test_lollipop_half_pendant(self, lollipop):
        w = np.array([1.0, 1.0, 1.0, 0.5])
        res = exact_densest(lollipop, w)
        # runner-up is the full vertex set at 3.5/4
        assert second_best_density(lollipop, w, res.subset) == pytest.approx(0.875, abs=1e-12)

    def test_two_vertex_runner_up_is_a_singleton(self):
        G = Graph.from_edges([(0, 1)], 2)
        assert second_best_density(G, np.ones(1), (0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_single_vertex_rejected(self):
        G = Graph.from_edges([], 1)
        with pytest.raises(ValueError):
            second_best_density(G, np.zeros(0), (0,))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            G = random_graph(rng, int(rng.integers(2, 8)))
            w = rng.uniform(0.1, 20.0, size=G.m)
            best = exact_densest(G, w).subset
            got = second_best_density(G, w, best)
            ref = max(
                (float(np.sum(w[[i for i, (u, v) in enumerate(G.edges) if u in c and v in c]]))
                 / len(c) if induced_edges(G, c) else 0.0)
                for size in range(1, G.n + 1)
                for c in itertools.combinations(range(G.n), size)
                if c != best
            )
            assert got == pytest.approx(ref, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=50, deadline=None)
def test_exact_at_least_every_subset(seed, n):
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n)
    w = rng.uniform(0.0, 100.0, size=G.m)
    res = exact_densest(G, w)
    size = int(rng.integers(1, n + 1))
    S = tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
    assert res.value >= density(G, w, S) - 1e-9


@st.composite
def weighted_graph(draw):
    """A graph on at most 12 vertices with at least one edge, and
    nonnegative float weights (zeros and subnormals included)."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k] or [pairs[0]]
    w = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=len(edges), max_size=len(edges)))
    return Graph.from_edges(edges, n), np.array(w)


@given(weighted_graph())
@settings(max_examples=60, deadline=None)
def test_reported_density_is_the_unrounded_density_of_the_subset(case):
    # the solver optimises integer-rounded weights; the value it reports
    # must still be the returned set's density under the weights given
    G, w = case
    res = exact_densest(G, w)
    assert res.value == density(G, w, res.subset)
    assert res.value == pytest.approx(brute_force_densest(G, w).value, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_integer_weights_give_rational_exactness(seed):
    # with small integer weights the optimum is a ratio of small integers;
    # the solver must land on it exactly after the fixed-point rounding
    rng = np.random.default_rng(seed)
    G = random_graph(rng, int(rng.integers(2, 9)))
    w = rng.integers(0, 7, size=G.m).astype(np.float64)
    res = exact_densest(G, w)
    ref = brute_force_densest(G, w)
    assert res.value == pytest.approx(ref.value, abs=1e-12)
    assert res.subset == ref.subset


def subset_densities(G, w):
    """Density of every nonempty subset, by bitmask: (masks, densities)."""
    masks = np.arange(1, 1 << G.n)
    total = np.zeros(masks.size)
    for idx, (u, v) in enumerate(G.edges):
        total += w[idx] * (((masks >> u) & (masks >> v) & 1) == 1)
    sizes = np.array([bin(int(mask)).count("1") for mask in masks])
    return masks, total / sizes


def tie_prone_instance(seed, n, integer_weights):
    """Random graph on n vertices; integer weights in {1, 2} make tied
    maximizers common, uniform ones make them rare."""
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n, p=float(rng.uniform(0.15, 0.8)))
    if integer_weights:
        w = rng.integers(1, 3, size=G.m).astype(np.float64)
    else:
        w = rng.uniform(0.0, 10.0, size=G.m)
    return rng, G, w


def random_subset(rng, n):
    size = int(rng.integers(1, n + 1))
    return tuple(int(v) for v in rng.choice(n, size=size, replace=False))


class TestWarmStart:
    def test_optimal_start_takes_one_flow_call(self, karate):
        w = knockout_weights(karate, seed=0)
        cold = exact_densest(karate, w)
        warm = solvers._densest(karate, w, cold.subset)
        assert warm.flow_calls == 1
        assert cold.flow_calls >= 1
        assert (warm.subset, warm.value) == (cold.subset, cold.value)

    def test_degenerate_weights_ignore_the_start(self, lollipop):
        res = solvers._densest(lollipop, np.zeros(4), (2, 3))
        assert res.subset == (0,) and res.value == 0.0 and res.flow_calls == 0

    def test_alternating_graphs_of_one_shape(self):
        # same n and m, different edges, and an equal copy built anew: the
        # cached flow gadget must follow the graph's value
        G1 = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 5)
        G2 = Graph.from_edges([(0, 1), (3, 4), (2, 4), (2, 3)], 5)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        for _ in range(2):
            for G in (G1, G2, Graph.from_edges(G1.edges, 5)):
                assert exact_densest(G, w).subset == brute_force_densest(G, w).subset
                assert second_best_density(G, w, (0, 1)) == pytest.approx(
                    max(d for m, d in zip(*subset_densities(G, w)) if m != 0b11), abs=1e-12
                )


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_start_never_changes_the_answer(seed, n, integer_weights):
    rng, G, w = tie_prone_instance(seed, n, integer_weights)
    cold = exact_densest(G, w)
    for start in (random_subset(rng, n), tuple(range(n)), cold.subset):
        warm = solvers._densest(G, w, start)
        assert warm.subset == cold.subset
        assert warm.value == cold.value
    assert cold.subset == brute_force_densest(G, w).subset


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_second_best_matches_brute_force(seed, n, integer_weights):
    rng, G, w = tie_prone_instance(seed, n, integer_weights)
    masks, dens = subset_densities(G, w)
    # against the optimum, and against an arbitrary set
    for best in (exact_densest(G, w).subset, random_subset(rng, n)):
        best_mask = sum(1 << v for v in best)
        ref = float(dens[masks != best_mask].max())
        assert second_best_density(G, w, best) == pytest.approx(ref, abs=1e-9)


def cold_densest(G, w, start=None):
    """The solver core with the flow cache emptied, so its max flows start
    from the zero flow."""
    solvers._gadget_cache = None
    return solvers._densest(G, w, start)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_warm_flow_never_changes_the_solve(seed, n, integer_weights, restart):
    # a solve that starts its max flow from the previous solve's on the same
    # graph returns what a solve from the zero flow returns, with as many
    # flows; with ``restart`` it also starts the density iteration from the
    # previous answer, as DS-Lin does
    rng, G, w1 = tie_prone_instance(seed, n, integer_weights)
    if integer_weights:
        w2 = rng.integers(1, 3, size=G.m).astype(np.float64)
    else:
        w2 = w1 * rng.uniform(0.5, 1.5, size=G.m)
    first = cold_densest(G, w1)
    start = first.subset if restart else None
    assert solvers._gadget_for(G).flow is not None  # the next solve is warm
    warm = solvers._densest(G, w2, start)
    cold = cold_densest(G, w2, start=start)
    assert (warm.subset, warm.value, warm.flow_calls) == (cold.subset, cold.value, cold.flow_calls)


def test_second_best_leaves_the_stored_flow_alone(karate):
    # its constrained solves start from the zero flow and store nothing, so
    # the next exact solve starts from the last exact solve's flow
    w = knockout_weights(karate, seed=0)
    best = exact_densest(karate, w).subset
    gadget = solvers._gadget_for(karate)
    stored = gadget.flow
    kept = list(stored)
    second_best_density(karate, w, best)
    assert solvers._gadget_for(karate) is gadget
    assert gadget.flow is stored and gadget.flow == kept


def test_equal_graph_built_anew_takes_over_the_gadget(karate):
    # an equal graph keeps the gadget and its warm flow and becomes the
    # cache key; a different graph gets a gadget of its own
    exact_densest(karate, knockout_weights(karate, seed=0))
    gadget = solvers._gadget_for(karate)
    again = Graph.from_edges(karate.edges, karate.n, karate.labels)
    assert again == karate and again is not karate
    assert solvers._gadget_for(again) is gadget and solvers._gadget_cache[0] is again
    assert gadget.flow is not None
    other = Graph.from_edges(karate.edges[1:], karate.n)
    assert solvers._gadget_for(other) is not gadget


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-11, 1e-14, 1e-20, 1e-300])
def test_small_weights_solved_exactly(scale):
    # the integer scale follows the largest weight, so shrinking all
    # weights by one factor leaves the rounding error as small relative
    rng = np.random.default_rng(31)
    for _ in range(30):
        G = random_graph(rng, int(rng.integers(4, 10)))
        w = rng.uniform(0.5, 1.5, size=G.m) * scale
        ref = brute_force_densest(G, w)
        res = exact_densest(G, w)
        assert res.subset == ref.subset
        assert res.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)
        masks, dens = subset_densities(G, w)
        runner_up = float(dens[masks != sum(1 << v for v in res.subset)].max())
        assert second_best_density(G, w, res.subset) == pytest.approx(runner_up, rel=1e-9, abs=0.0)


def test_weights_at_the_flow_headroom():
    # weights so large that the integer scale is 1: the capacities are as
    # large as the int64 headroom allows, for a cold solve, a solve warm
    # started from it and the constrained solves of the second best
    rng = np.random.default_rng(37)
    for _ in range(30):
        G = random_graph(rng, int(rng.integers(4, 10)))
        w = rng.uniform(0.5, 1.5, size=G.m)
        degrees = np.bincount(np.ravel(G.edges), weights=np.repeat(w, 2), minlength=G.n)
        w *= 2.0**61 / (4 * G.n**2 * float(degrees.max()) * 1.5)
        for weights in (w, w * rng.uniform(0.9, 1.0, size=G.m)):
            masks, dens = subset_densities(G, weights)
            ref = brute_force_densest(G, weights)
            res = exact_densest(G, weights)
            assert res.subset == ref.subset
            assert res.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)
            runner_up = float(dens[masks != sum(1 << v for v in res.subset)].max())
            assert second_best_density(G, weights, res.subset) == pytest.approx(runner_up, rel=1e-9, abs=0.0)


def test_tiny_weights_are_not_rounded_away():
    # triangle 0-1-2 with a pendant 3 on vertex 2 whose edge outweighs the
    # triangle's: {2, 3} and the whole graph have density 1.5e-14, and the
    # tie goes to the smaller set
    G = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)], 4)
    w = np.array([1.0, 1.0, 1.0, 3.0]) * 1e-14
    res = exact_densest(G, w)
    assert res.subset == (2, 3) and res.value == pytest.approx(1.5e-14, rel=1e-12, abs=0.0)
    assert second_best_density(G, w, res.subset) == pytest.approx(1.5e-14, rel=1e-12, abs=0.0)
