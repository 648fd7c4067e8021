import os

import numpy as np
import pytest

from densebandits.graph import Graph

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture
def lollipop() -> Graph:
    # triangle 0-1-2 with a pendant vertex 3 hanging off vertex 0
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3)], 4)


@pytest.fixture
def star4() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (0, 3)], 4)


@pytest.fixture
def k4() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)


@pytest.fixture
def karate() -> Graph:
    from densebandits.graph import load_edge_list

    return load_edge_list(data_path("karate.txt"))


class RecordingOracle:
    """Passes queries through to an oracle and keeps every (edge set,
    observation) pair, so a test can see what an algorithm asked and saw."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.queries: list[tuple[tuple[int, ...], float]] = []

    def sample_edges(self, F):
        obs = self._oracle.sample_edges(F)
        self.queries.append((tuple(F), obs))
        return obs

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def edge_visits(self, m: int) -> np.ndarray:
        """How many recorded queries each edge index was part of."""
        visits = np.zeros(m, dtype=np.int64)
        for F, _ in self.queries:
            visits[list(F)] += 1
        return visits

    def edge_share_means(self, m: int) -> np.ndarray:
        """Per edge, the mean of obs / |F| over the queries holding it
        (0 for an edge never queried)."""
        total = np.zeros(m)
        for F, obs in self.queries:
            total[list(F)] += obs / len(F)
        return total / np.maximum(self.edge_visits(m), 1)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi draw that always has at least one edge."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < p
    edges = [pair for pair, k in zip(pairs, keep) if k]
    if not edges:
        edges = [pairs[int(rng.integers(len(pairs)))]]
    return Graph.from_edges(edges, n)


def alive_mask(n: int, S) -> np.ndarray:
    """Boolean survivor mask over n vertices with the members of S set."""
    mask = np.zeros(n, dtype=bool)
    mask[list(S)] = True
    return mask
