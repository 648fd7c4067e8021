"""Undirected graph container and weighted density primitives.

Vertices are dense integer indices 0..n-1; original file tokens are kept in
``Graph.labels``. Edges are unordered pairs stored once as (u, v) with u < v,
and a weight vector is a length-m nonnegative float array aligned with
``Graph.edges``. ``edge_mask`` is the one place that finds E(S), the edges
with both ends in a vertex set S; ``induced_edges`` and ``density`` read it,
and so do the solvers, the arm family and the knockout weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

COMMENT_PREFIXES = ("#", "%")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with stable edge indexing.

    Attributes
    ----------
    n : number of vertices.
    m : number of edges.
    edges : tuple of (u, v) pairs, u < v, in insertion order; the position of
        a pair is its edge index.
    adjacency : per-vertex tuple of (neighbor, edge_index) pairs, in
        ascending edge-index order.
    labels : original vertex identifiers, one per index.
    self_loops_dropped, duplicates_dropped : counts recorded while building
        (nonzero only for inputs that contained such lines).
    """

    n: int
    m: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    labels: tuple[str, ...]
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @cached_property
    def ends(self) -> np.ndarray:
        """Read-only ``np.intp`` array of the edge endpoints interleaved in
        edge order, u0 v0 u1 v1 ..., built on first use; not a field, so
        graph equality ignores it."""
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1)
        ends.flags.writeable = False
        return ends

    @staticmethod
    def from_edges(
        edge_pairs: Iterable[tuple[int, int]],
        n: int | None = None,
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a graph from integer vertex pairs, dropping loops/duplicates.
        Labels, one distinct string per vertex, default to the indices."""
        pairs = [(int(u), int(v)) for u, v in edge_pairs]
        if n is None:
            n = 1 + max((max(u, v) for u, v in pairs), default=-1)
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        loops = 0
        dups = 0
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex index out of range: ({u}, {v}) with n={n}")
            if u == v:
                loops += 1
                continue
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                dups += 1
                continue
            seen.add((u, v))
            edges.append((u, v))
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for idx, (u, v) in enumerate(edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        if labels is None:
            labels = [str(i) for i in range(n)]
        elif len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != n:
            # a weight file names edges by label, so two vertices may not share one
            raise ValueError(f"repeated vertex label {next(x for x in labels if labels.count(x) > 1)!r}")
        if loops or dups:
            log.warning("dropped %d self-loops and %d duplicate edges", loops, dups)
        return Graph(
            n=n,
            m=len(edges),
            edges=tuple(edges),
            adjacency=tuple(tuple(a) for a in adj),
            labels=labels,
            self_loops_dropped=loops,
            duplicates_dropped=dups,
        )


def load_edge_list(path: str | Path) -> Graph:
    """Parse an edge-list file into a Graph.

    Each non-comment line is ``u v`` or ``u v w`` (the third token, if any,
    is ignored here; weights live in separate files). Vertex tokens may be
    arbitrary strings and are re-indexed densely in order of first
    appearance. Lines starting with '#' or '%' and blank lines are skipped.
    Self-loops and repeated pairs are dropped with a counted warning.
    """
    path = Path(path)
    token_to_idx: dict[str, int] = {}
    labels: list[str] = []
    pairs: list[tuple[int, int]] = []

    def intern(tok: str) -> int:
        if tok not in token_to_idx:
            token_to_idx[tok] = len(labels)
            labels.append(tok)
        return token_to_idx[tok]

    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            toks = line.split()
            if len(toks) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v' or 'u v w', got {len(toks)} tokens"
                )
            pairs.append((intern(toks[0]), intern(toks[1])))
    if not labels:
        raise ValueError(f"{path}: no edges found")
    return Graph.from_edges(pairs, n=len(labels), labels=labels)


def as_weight_vector(G: Graph, values) -> np.ndarray:
    """Validate and return a float64 weight vector aligned with G.edges."""
    w = np.asarray(values, dtype=np.float64)
    if w.shape != (G.m,):
        raise ValueError(f"weight vector has shape {w.shape}, expected ({G.m},)")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    return w


def load_weights(path: str | Path, G: Graph) -> np.ndarray:
    """Read a ``u v w`` weight file giving every edge of G one finite nonnegative weight."""
    path = Path(path)
    label_to_idx = {lab: i for i, lab in enumerate(G.labels)}
    pair_to_edge: dict[tuple[int, int], int] = {}
    for idx, (u, v) in enumerate(G.edges):
        pair_to_edge[(u, v)] = idx
    w = np.full(G.m, np.nan)
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u v w'")
            try:
                u = label_to_idx[toks[0]]
                v = label_to_idx[toks[1]]
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown vertex {exc.args[0]!r}") from None
            if u > v:
                u, v = v, u
            idx = pair_to_edge.get((u, v))
            if idx is None:
                raise ValueError(f"{path}:{lineno}: edge ({toks[0]}, {toks[1]}) not in graph")
            if not np.isnan(w[idx]):
                raise ValueError(f"{path}:{lineno}: duplicate weight for edge ({toks[0]}, {toks[1]})")
            try:
                val = float(toks[2])
            except ValueError:
                val = math.nan
            # NaN marks an edge not yet read, so the file may not supply one
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{path}:{lineno}: bad weight {toks[2]!r}")
            w[idx] = val
    missing = int(np.isnan(w).sum())
    if missing:
        raise ValueError(f"{path}: {missing} edges have no weight")
    return as_weight_vector(G, w)


def atomic_write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling ``.tmp`` file renamed over
    it, creating missing parent directories. A failed write leaves the
    target as it was and removes the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_weights(path: str | Path, G: Graph, w) -> None:
    """Write a weight file (one ``u v w`` line per edge, original labels)."""
    w = as_weight_vector(G, w)
    lines = (f"{G.labels[u]} {G.labels[v]} {float(w[idx])!r}\n" for idx, (u, v) in enumerate(G.edges))
    atomic_write(path, "".join(lines))


def _check_integers(items, what: str) -> None:
    """Refuse a bool or non-integer entry, which ``int()`` would truncate."""
    for kind in set(map(type, items)):
        if kind is not int and (not issubclass(kind, (int, np.integer)) or issubclass(kind, bool)):
            raise ValueError(f"{what} must be integers, not bools or floats")


def as_vertex_set(G: Graph, S: Iterable[int]) -> tuple[int, ...]:
    """Normalize a vertex collection to a sorted duplicate-free tuple.
    Bool and float entries are refused, not truncated."""
    items = S if isinstance(S, (list, tuple)) else list(S)
    _check_integers(items, "vertex indices")
    out = tuple(sorted({int(v) for v in items}))
    if out and (out[0] < 0 or out[-1] >= G.n):
        raise ValueError(f"vertex index out of range for n={G.n}")
    return out


def edge_mask(G: Graph, members) -> np.ndarray:
    """Boolean mask over ``G.edges`` of the edges with both ends in
    ``members``, a collection of valid vertex indices taken as given."""
    inside = np.zeros(G.n, dtype=bool)
    inside[np.asarray(members, dtype=np.intp)] = True
    both = inside[G.ends]
    return both[0::2] & both[1::2]


def induced_edges(G: Graph, S: Iterable[int]) -> list[int]:
    """Edge indices with both endpoints in S, in ascending index order."""
    return np.flatnonzero(edge_mask(G, as_vertex_set(G, S))).tolist()


def density(G: Graph, w, S: Iterable[int]) -> float:
    """Degree density w(E(S)) / |S| of a nonempty vertex set, summing the
    edges in ascending index order."""
    members = as_vertex_set(G, S)
    if not members:
        raise ValueError("density of the empty set is undefined")
    w = as_weight_vector(G, w)
    return float(w[edge_mask(G, members)].sum()) / len(members)


def star_edges(G: Graph, alive, v: int) -> list[int]:
    """Edge indices joining v to the other vertices set in the boolean mask
    ``alive``, ascending (the order of ``G.adjacency[v]``)."""
    if not alive[v]:
        raise ValueError(f"vertex {v} is not alive")
    return [idx for u, idx in G.adjacency[v] if alive[u]]
