"""Stochastic oracle producing noisy sums of edge weights over queried subsets.

Each query of an edge subset F draws fresh per-edge noise and returns
sum_{e in F} (w_e + eta_e), so the observation is sub-Gaussian with scale
sqrt(|F|) * R around the true sum. Streams are counter-based: each oracle
owns one Philox generator keyed by its seed, and query j sets it to counter
block (0, 0, j, 0) before drawing. The j-th query's noise is therefore a
function of (seed, j, |F|) only, the same stream a fresh
``Philox(key=seed, counter=[0, 0, j, 0])`` gives, which makes every
observation sequence reproducible and platform independent. An oracle has a
single owner: the generator is part of its mutable state, and so is a memo
of the last tuple query it checked, which lets a caller that asks one
tuple again, as DS-SR does for a star, skip the checks. The true weights
are held privately, out of the repr; algorithms only see observations and
the public query counters.
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


@dataclass(eq=False)
class SamplingOracle:
    """Single-owner mutable sampler with full query accounting.

    ``total_queries`` counts every call and ``histogram`` maps query size to
    count, so its total always equals ``total_queries`` and
    ``histogram.get(1, 0)`` counts the single-edge queries. Every query count
    the package reports is read from these two. The noise generator is keyed
    by ``seed`` when the oracle is built. Oracles compare by identity: two
    with equal fields still own separate generators.
    """

    graph: Graph
    _w: np.ndarray = field(repr=False)
    noise: NoiseModel
    seed: int
    total_queries: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    _bitgen: np.random.Philox = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    _state: dict = field(init=False, repr=False)
    # the last tuple query that passed the checks, and its index array; it
    # starts as an object no caller holds (an empty tuple would be the
    # interned (), and None a value a caller can pass)
    _checked: object = field(default_factory=object, init=False, repr=False)
    _checked_idx: np.ndarray | None = field(default=None, init=False, repr=False)

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
        sorted and checked as one, which is cheaper for short subsets. Bool
        and float entries are refused, not truncated. ``sample_edges``
        calls this once per tuple object it is passed in a row: a tuple and
        its int entries cannot change, so its index array stays valid.
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
        numpy array. The cheapest form is one tuple object passed again
        and again, as DS-SR does with a star and ``run_r_oracle`` with an
        edge: only its first query in a row is checked. Next comes an
        ascending ``np.intp`` array, such as ``ArmFamily.edge_index``
        holds. Lists and arrays are checked on every call, since they can
        change in place. A bool or float entry, an empty or repeated
        subset and an index outside the graph raise ``ValueError`` and draw
        no noise. Each call is one counted query at its own counter.
        """
        if F is self._checked:
            idx = self._checked_idx
        else:
            idx = self._edge_index(F)
            if type(F) is tuple:
                self._checked, self._checked_idx = F, idx
        size = idx.size
        vals = self._w[idx]
        if self.noise.kind == "gaussian-per-edge":
            vals += self._noise_for(size)
        obs = float(vals.sum())
        self.total_queries += 1
        self.histogram[size] = self.histogram.get(size, 0) + 1
        return obs


def _check_oracle_graph(G: Graph, oracle) -> None:
    """Refuse an oracle built on another graph than G: its edge indices
    would name other edges. Identity is tested first, so the usual case
    costs one comparison."""
    if oracle.graph is not G and oracle.graph != G:
        raise ValueError("the oracle was built on another graph than the one given")


def make_oracle(G: Graph, w, noise: NoiseModel | str = "gaussian-per-edge", seed: int = 0) -> SamplingOracle:
    """Construct a seeded oracle over hidden true weights. The seed, an
    integer (a bool or float is refused, not truncated), is taken mod 2^64."""
    if isinstance(noise, str):
        noise = NoiseModel(kind=noise)
    w = as_weight_vector(G, w)
    _check_integers([seed], "oracle seeds")
    return SamplingOracle(graph=G, _w=w.copy(), noise=noise, seed=int(seed) & _SEED_MASK)
