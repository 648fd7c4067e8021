"""Stochastic oracle producing noisy sums of edge weights over queried subsets.

Each query of an edge subset F draws fresh per-edge noise and returns
sum_{e in F} (w_e + eta_e), so the observation is sub-Gaussian with scale
sqrt(|F|) * R around the true sum. Streams are counter-based: each oracle
owns one Philox generator keyed by its seed, and query j sets it to counter
block (0, 0, j, 0) before drawing. The j-th query's noise is therefore a
function of (seed, j, |F|) only, the same stream a fresh
``Philox(key=seed, counter=[0, 0, j, 0])`` gives, which makes every
observation sequence reproducible and platform independent. An oracle has a
single owner: the generator is part of its mutable state. The true weights
are held privately; algorithms only see observations and the public query
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _check_integers, as_weight_vector

NOISE_KINDS = ("gaussian-per-edge", "none")

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseModel:
    """Per-edge noise settings: iid N(0, R^2) per edge, or none."""

    kind: str = "gaussian-per-edge"
    R: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; use one of {NOISE_KINDS}")
        if self.kind == "gaussian-per-edge":
            if not (np.isfinite(self.R) and self.R > 0):
                raise ValueError("gaussian noise needs finite R > 0")


@dataclass
class SamplingOracle:
    """Single-owner mutable sampler with full query accounting.

    ``total_queries`` counts every call and ``histogram`` maps query size to
    count, so its total always equals ``total_queries`` and
    ``histogram.get(1, 0)`` counts the single-edge queries. Every query count
    the package reports is read from these two. The noise generator is keyed
    by ``seed`` when the oracle is built.
    """

    graph: Graph
    _w: np.ndarray
    noise: NoiseModel
    seed: int
    total_queries: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    _bitgen: np.random.Philox = field(init=False, repr=False, compare=False)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._bitgen = np.random.Philox(key=self.seed)
        self._rng = np.random.Generator(self._bitgen)
        # a fresh generator's state: counter 0 and an empty buffer
        # (buffer_pos 4, has_uint32 0); each draw rewrites only the counter
        self._state = self._bitgen.state

    def _noise_for(self, size: int) -> np.ndarray:
        # building Philox(key=seed, counter=[0, 0, j, 0]) per query gives the
        # same stream but costs about three times the draw itself
        self._state["state"]["counter"][2] = self.total_queries
        self._bitgen.state = self._state
        return self._rng.normal(0.0, self.noise.R, size=size)

    def _edge_index(self, F) -> np.ndarray:
        """F as an ascending ``np.intp`` array of distinct edge indices of
        the graph, or a ``ValueError`` that names what is wrong with it.

        An integer array is checked with a few array operations and, when
        already ascending, not copied. Any other form is read as a list and
        sorted and checked as one, which is cheaper for the short stars
        DS-SR queries. Bool and float entries are refused, not truncated.
        """
        if isinstance(F, np.ndarray):
            if F.ndim != 1:
                raise ValueError("edge subset must be a flat collection of edge indices")
            if F.size and F.dtype.kind not in "iu":
                raise ValueError("edge indices must be integers, not bools or floats")
            idx = F
            if F.size > 1 and not (F[:-1] < F[1:]).all():
                idx = np.sort(F)
                if (idx[:-1] == idx[1:]).any():
                    raise ValueError("edge subset contains duplicates")
        else:
            items = F if isinstance(F, (list, tuple)) else list(F)
            _check_integers(items, "edge indices")
            idx = sorted(items)
            if len(idx) > 1 and len(set(idx)) != len(idx):
                raise ValueError("edge subset contains duplicates")
        if not len(idx):
            raise ValueError("cannot sample an empty edge subset")
        if idx[0] < 0 or idx[-1] >= self.graph.m:
            raise ValueError("edge index out of range")
        return idx if isinstance(idx, np.ndarray) else np.array(idx, dtype=np.intp)

    def sample_edges(self, F) -> float:
        """One noisy observation of the edge subset F, summed in ascending
        index order.

        F is a nonempty collection of distinct edge indices in any order:
        a list, a tuple or any other iterable of ints, or a 1-D integer
        numpy array. An ascending ``np.intp`` array, such as
        ``ArmFamily.edge_index`` holds, is the cheapest form. A bool or
        float entry, an empty or repeated subset and an index outside the
        graph raise ``ValueError`` and draw no noise.
        """
        idx = self._edge_index(F)
        size = idx.size
        vals = self._w[idx]
        if self.noise.kind == "gaussian-per-edge":
            vals += self._noise_for(size)
        obs = float(vals.sum())
        self.total_queries += 1
        self.histogram[size] = self.histogram.get(size, 0) + 1
        return obs


def make_oracle(G: Graph, w, noise: NoiseModel | str = "gaussian-per-edge", seed: int = 0) -> SamplingOracle:
    """Construct a seeded oracle over hidden true weights."""
    if isinstance(noise, str):
        noise = NoiseModel(kind=noise)
    w = as_weight_vector(G, w)
    return SamplingOracle(graph=G, _w=w.copy(), noise=noise, seed=int(seed) & _SEED_MASK)
