import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebandits.graph import (
    Graph,
    as_vertex_set,
    as_weight_vector,
    atomic_write,
    density,
    induced_edges,
    load_edge_list,
    load_weights,
    save_weights,
    star_edges,
)
from densebandits.solvers import second_best_density

from conftest import alive_mask, data_path, random_graph


class TestFromEdges:
    def test_normalization_and_indexing(self):
        G = Graph.from_edges([(1, 0), (2, 0), (2, 1)], 3)
        assert G.edges == ((0, 1), (0, 2), (1, 2))

    def test_loop_and_duplicate_counts(self):
        G = Graph.from_edges([(0, 1), (1, 1), (1, 0), (0, 2)], 3)
        assert G.m == 2
        assert G.self_loops_dropped == 1
        assert G.duplicates_dropped == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 5)], 3)

    def test_repeated_label_rejected(self):
        # save_weights names each edge by its labels, so a shared label would
        # write a file that load_weights refuses as a duplicate weight
        with pytest.raises(ValueError, match="repeated vertex label 'a'"):
            Graph.from_edges([(0, 1), (1, 2), (0, 2)], labels=["a", "b", "a"])
        # labels are compared as the strings they are stored as
        with pytest.raises(ValueError, match="repeated vertex label '1'"):
            Graph.from_edges([(0, 1)], labels=[1, "1"])
        assert Graph.from_edges([(0, 1)], labels=["a", "b"]).labels == ("a", "b")

    def test_adjacency_carries_edge_indices(self, lollipop):
        assert set(lollipop.adjacency[0]) == {(1, 0), (2, 1), (3, 3)}
        assert len(lollipop.adjacency[0]) == 3
        assert lollipop.adjacency[3] == ((0, 3),)


class TestEdgeListIO:
    def test_label_interning_first_appearance(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\nb a\nc a\n% also a comment\nc b\n")
        G = load_edge_list(str(p))
        assert G.labels == ("b", "a", "c")
        assert G.n == 3 and G.m == 3
        assert G.edges == ((0, 1), (1, 2), (0, 2))

    def test_third_token_tolerated(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 7.5\n1 2 3.0\n")
        G = load_edge_list(str(p))
        assert G.m == 2

    def test_bad_line_reports_position(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\nonly_one_token\n")
        with pytest.raises(ValueError, match=r"g\.txt:2"):
            load_edge_list(str(p))

    def test_weights_roundtrip_exact(self, tmp_path, lollipop):
        w = np.array([0.1, 1.0 / 3.0, 96.64014599762295, 2.0])
        p = tmp_path / "w.txt"
        save_weights(str(p), lollipop, w)
        back = load_weights(str(p), lollipop)
        assert np.array_equal(back, w)

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch, lollipop):
        target = tmp_path / "w.txt"
        target.write_text("old\n")
        real_write_text = Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_weights(target, lollipop, np.ones(4))
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, "new\n")
        monkeypatch.undo()
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]

    def test_weights_unknown_edge(self, tmp_path, lollipop):
        p = tmp_path / "w.txt"
        p.write_text("1 3 5.0\n")  # {1,3} is not an edge of the lollipop
        with pytest.raises(ValueError, match=r"w\.txt:1"):
            load_weights(str(p), lollipop)

    def test_weights_duplicate_line(self, tmp_path, lollipop):
        p = tmp_path / "w.txt"
        p.write_text("0 1 5.0\n1 0 6.0\n")
        with pytest.raises(ValueError, match="duplicate weight for edge"):
            load_weights(str(p), lollipop)

    def test_weights_missing_edge(self, tmp_path, lollipop):
        p = tmp_path / "w.txt"
        p.write_text("0 1 5.0\n0 2 1.0\n1 2 1.0\n")
        with pytest.raises(ValueError, match="edges have no weight"):
            load_weights(str(p), lollipop)

    @pytest.mark.parametrize(
        "text,line,token",
        [
            ("0 1 nan\n0 1 2.0\n0 2 1.0\n1 2 1.0\n0 3 1.0\n", 1, "nan"),
            ("0 1 1.0\n0 2 inf\n1 2 1.0\n0 3 1.0\n", 2, "inf"),
            ("0 1 1.0\n0 2 1.0\n1 2 1.0\n0 3 -3\n", 4, "-3"),
        ],
        ids=["nan-then-duplicate", "inf", "negative"],
    )
    def test_weights_non_finite_or_negative_rejected_at_line(self, tmp_path, lollipop, text, line, token):
        # a NaN must not pass for an unset weight and let a duplicate through
        p = tmp_path / "w.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"w.txt:{line}: bad weight '{token}'$"):
            load_weights(str(p), lollipop)


class TestValidation:
    def test_weight_vector_shape(self, lollipop):
        with pytest.raises(ValueError):
            as_weight_vector(lollipop, [1.0, 2.0])

    def test_weight_vector_negative(self, lollipop):
        with pytest.raises(ValueError):
            as_weight_vector(lollipop, [1.0, -0.5, 1.0, 1.0])

    def test_weight_vector_nonfinite(self, lollipop):
        with pytest.raises(ValueError):
            as_weight_vector(lollipop, [1.0, math.nan, 1.0, 1.0])

    def test_vertex_set_sorted_dedup(self, lollipop):
        assert as_vertex_set(lollipop, [3, 1, 1, 0]) == (0, 1, 3)

    def test_vertex_set_range(self, lollipop):
        with pytest.raises(ValueError):
            as_vertex_set(lollipop, [0, 4])
        assert as_vertex_set(lollipop, []) == ()
        with pytest.raises(ValueError):
            density(lollipop, np.ones(4), [])

    def test_vertex_set_keeps_numpy_integers(self, lollipop):
        assert as_vertex_set(lollipop, np.array([3, 0], dtype=np.uint8)) == (0, 3)
        assert as_vertex_set(lollipop, [np.int64(2), 1]) == (1, 2)

    def test_density_checks_weights(self, lollipop):
        # each of these used to give a number: 1.0, -1.0 and nan
        for w, match in ((np.ones(9), "shape"), (-np.ones(4), "nonnegative"), ([1.0, math.nan, 1.0, 1.0], "finite")):
            with pytest.raises(ValueError, match=match):
                density(lollipop, w, (0, 1, 2))


# every public call that reads a vertex set; int() truncation would read
# [1.9, 2.2] as {1, 2} and [True, 2] as {1, 2}
VERTEX_SET_READERS = {
    "density": lambda G, S: density(G, np.ones(G.m), S),
    "induced_edges": induced_edges,
    "second_best_density": lambda G, S: second_best_density(G, np.ones(G.m), best=S),
}


@pytest.mark.parametrize("reader", sorted(VERTEX_SET_READERS))
def test_vertex_sets_refuse_bools_and_floats(lollipop, reader):
    call = VERTEX_SET_READERS[reader]
    for S in ([1.9, 2.2], [0.7, 2.9], [True, 2], (np.True_, 2), np.array([1.0, 2.0]), {2, 1.5}):
        with pytest.raises(ValueError, match="vertex indices must be integers"):
            call(lollipop, S)
    call(lollipop, np.array([1, 2]))


class TestSubsetQueries:
    def test_induced_edges_ascending(self, lollipop):
        assert induced_edges(lollipop, (0, 1, 2)) == [0, 1, 2]
        assert induced_edges(lollipop, (0, 3)) == [3]
        assert induced_edges(lollipop, (1, 3)) == []

    def test_density_values(self, lollipop):
        unit = np.ones(4)
        assert density(lollipop, unit, (0, 1, 2)) == 1.0
        assert density(lollipop, unit, (0, 1, 2, 3)) == 1.0
        w = np.array([1.0, 1.0, 1.0, 0.5])
        assert density(lollipop, w, (0, 1, 2, 3)) == 0.875
        assert density(lollipop, unit, (1, 3)) == 0.0

    def test_star_edges(self, lollipop):
        assert star_edges(lollipop, alive_mask(4, (0, 1, 2, 3)), 0) == [0, 1, 3]
        assert star_edges(lollipop, alive_mask(4, (1, 2, 3)), 1) == [2]
        assert star_edges(lollipop, alive_mask(4, (1, 3)), 1) == []
        with pytest.raises(ValueError, match="not alive"):
            star_edges(lollipop, alive_mask(4, (0, 1)), 3)

    def test_karate_shape(self, karate):
        assert (karate.n, karate.m) == (34, 78)

    def test_edgeless_graph(self):
        G = Graph.from_edges([], 3)
        assert induced_edges(G, (0, 1, 2)) == []
        assert density(G, np.zeros(0), (0, 1)) == 0.0

    def test_ends_interleave_the_edges_read_only(self, lollipop):
        fresh = Graph.from_edges(lollipop.edges, lollipop.n)
        ends = lollipop.ends
        assert ends.dtype == np.intp and np.array_equal(ends, np.ravel(lollipop.edges))
        assert lollipop.ends is ends
        with pytest.raises(ValueError):
            ends[0] = 1
        assert "ends" not in {f.name for f in dataclasses.fields(Graph)}
        assert lollipop == fresh and hash(lollipop) == hash(fresh)


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    G = random_graph(rng, n)
    size = draw(st.integers(min_value=1, max_value=n))
    S = tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
    w = rng.uniform(0.0, 10.0, size=G.m)
    return G, w, S


@given(graph_and_subset())
@settings(max_examples=60, deadline=None)
def test_handshake_identity(case):
    # the sum of member degrees inside S counts each induced edge twice
    G, w, S = case
    alive = alive_mask(G.n, S)
    total = math.fsum(float(np.sum(w[star_edges(G, alive, v)])) for v in S)
    idxs = induced_edges(G, S)
    assert abs(total - 2.0 * float(np.sum(w[idxs]))) < 1e-9


@st.composite
def raw_pairs_and_mask(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))  # loops and repeats too
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return n, pairs, mask


@given(raw_pairs_and_mask())
@settings(max_examples=100, deadline=None)
def test_adjacency_ascending_and_star_edges_sorted(case):
    n, pairs, mask = case
    G = Graph.from_edges(pairs, n)
    for v in range(n):
        idxs = [idx for _, idx in G.adjacency[v]]
        assert all(a < b for a, b in zip(idxs, idxs[1:]))
        if mask[v]:
            assert star_edges(G, mask, v) == sorted(idx for u, idx in G.adjacency[v] if mask[u])
        else:
            with pytest.raises(ValueError):
                star_edges(G, mask, v)


@given(graph_and_subset())
@settings(max_examples=60, deadline=None)
def test_induced_edges_monotone(case):
    G, w, S = case
    sub = induced_edges(G, S)
    assert sub == sorted(sub)
    full = induced_edges(G, tuple(range(G.n)))
    assert set(sub) <= set(full)
    assert full == list(range(G.m))
    direct = [e for e, (u, v) in enumerate(G.edges) if u in S and v in S]
    assert sub == direct
    assert density(G, w, S) == float(np.sum(w[direct])) / len(S)


@given(graph_and_subset(), st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_density_scales_linearly(case, c):
    G, w, S = case
    assert density(G, c * w, S) == pytest.approx(c * density(G, w, S), rel=1e-12, abs=1e-12)
