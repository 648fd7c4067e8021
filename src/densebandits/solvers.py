"""Offline solvers for the maximum weighted degree-density subgraph problem.

The objective is f_w(S) = w(E(S)) / |S| over nonempty vertex sets S, where
w(E(S)) sums the weights of edges with both endpoints in S.

``exact_densest`` reduces the fractional objective to a sequence of s-t
min-cut tests (Goldberg 1984). For a guess g = p/q the gadget has source arcs
s->v of capacity q*M, sink arcs v->t of capacity q*M + 2p - q*d(v), and
both-way arcs of capacity q*w(uv) per edge; a source-side set S beats the
guess exactly when its cut is smaller than the empty cut n*q*M. Iterating the
guess on the best set found (Dinkelbach) converges to the optimum in a
handful of max-flow calls. All capacities are integers (weights are
pre-scaled and rounded), so the iteration and the optimality test are exact
on the rounded instance.

Three things keep the repeated solves cheap:

- Warm start. The iteration may start from any nonempty set, which a local
  search (add or drop one vertex while that raises the density) polishes
  first; a start that is then optimal costs a single max-flow call, which
  proves it optimal. Cold solves start from a greedy peel.
- Gadget reuse. The arc arrays depend only on the graph, so they are built
  once and kept in a one-entry cache keyed by the ``Graph`` value; each guess
  refills only the capacities. A forced vertex gets a source arc no cut can
  afford.
- Pre-saturation. Before the first Dinic phase the direct path s->v->t of
  every vertex carries min(q*M, q*M + 2p - q*d(v)), which leaves each vertex
  with a source arc of q*d(v) - 2p or a sink arc of 2p - q*d(v), not both,
  and removes M from the residual network altogether. One greedy pass then
  pushes what it can along the two-hop paths s->u->v->t, which leaves Dinic
  a few longer augmenting paths instead of dozens of short ones.

Ties are broken toward the smallest cardinality set, then lexicographically
smallest membership. At the optimal guess every maximizer is the source side
of some minimum cut. So is the empty set, so the residual closure of s holds
no vertex; the minimal maximizer containing a vertex u is the closure of
{s, u}, and the union of all maximizers is the set of vertices that cannot
reach t. When the union is strongly connected in the residual network, which
is the case exactly when the maximizer is unique, it is the answer, found
with one search each way; otherwise the closures of its vertices are
compared, which enumerates every minimum-cardinality maximizer. The
tie-break does not depend on the start or on which maximum flow was found:
Dinkelbach ends at the unique optimal p/q of the rounded instance, and the
sets read off the residual network (reachable from s, reaching t, and each
closure) are the minimum cuts' lattice, which is the same for every maximum
flow (Picard-Queyranne 1980).

An equivalent exact LP formulation (kept as a reference, not used): maximize
sum_e w_e y_e subject to y_e <= x_u and y_e <= x_v for each edge e = {u, v},
sum_v x_v = 1, x, y >= 0; the optimum equals max_S f_w(S) and an optimal S
can be recovered by thresholding x. The flow route needs no LP dependency
and is exact in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, as_vertex_set, as_weight_vector, density, star_edges

_SCALE_CAP = 2**42
_FLOW_HEADROOM = 2**61
_BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class DensestResult:
    """A maximizing vertex set, its density under the given weights, and
    the max-flow calls the solve took."""

    subset: tuple[int, ...]
    value: float
    flow_calls: int = 0


@dataclass(frozen=True)
class PeelingTrace:
    """Full record of one greedy peeling run.

    order[i] is the vertex removed at step i; densities[i] is the density of
    the surviving set *before* that removal, so densities[0] covers all of V
    and the n entries cover sizes n, n-1, ..., 1.
    """

    order: tuple[int, ...]
    densities: tuple[float, ...]
    best_subset: tuple[int, ...]
    best_value: float


def _weighted_degrees(G: Graph, w: np.ndarray) -> np.ndarray:
    # endpoints interleaved in edge order, so each vertex sums its edges in
    # ascending index order, as a per-edge loop would
    ends = np.asarray(G.edges, dtype=np.intp).reshape(-1)
    return np.bincount(ends, weights=np.repeat(w, 2), minlength=G.n)


def _integer_scale(G: Graph, w: np.ndarray) -> int:
    """Scale factor K so q*M-sized capacities keep max-flow values in int64."""
    max_dw = float(_weighted_degrees(G, w).max()) if G.n else 0.0
    if max_dw <= 0.0:
        return _SCALE_CAP
    K = int(min(_SCALE_CAP, _FLOW_HEADROOM / (4.0 * G.n * G.n * max_dw)))
    if K < 1:
        raise ValueError("weights too large for the integer-scaled flow solver")
    return K


def peeling_trace(G: Graph, w) -> PeelingTrace:
    """Greedy peeling: repeatedly drop the minimum weighted-degree vertex.

    Ties on the minimum go to the smallest vertex index. The best prefix is
    the earliest (largest) surviving set whose density is strictly greater
    than everything seen before, matching the phase order of the budgeted
    peeling algorithm so the two agree exactly when observations are exact.
    Its density is at least half the optimum.
    """
    w = as_weight_vector(G, w)
    alive = np.ones(G.n, dtype=bool)
    order: list[int] = []
    densities: list[float] = []
    best_value = -math.inf
    best_removed = 0
    degs = np.zeros(G.n)
    changed = range(G.n)
    for size in range(G.n, 0, -1):
        # star sums of the vertices whose star the last removal changed: the
        # budgeted peel queries the same star_edges lists and the sampling
        # oracle sums them the same way, so the noise-free budgeted peel
        # reproduces these values bit for bit
        for v in changed:
            idxs = star_edges(G, alive, v)
            degs[v] = float(w[idxs].sum()) if idxs else 0.0
        members = np.flatnonzero(alive)
        f = 0.5 * float(degs[members].sum()) / size
        densities.append(f)
        if f > best_value:
            best_value, best_removed = f, len(order)
        if size == 1:
            break
        v = int(members[np.argmin(degs[members])])
        order.append(v)
        alive[v] = False
        changed = [u for u, _ in G.adjacency[v] if alive[u]]
    removed = set(order[:best_removed])
    return PeelingTrace(
        order=tuple(order),
        densities=tuple(densities),
        best_subset=tuple(v for v in range(G.n) if v not in removed),
        best_value=float(best_value),
    )


def brute_force_densest(G: Graph, w) -> DensestResult:
    """Exhaustive maximizer over all 2^n - 1 nonempty subsets.

    Refuses graphs with more than 20 vertices. Ties break to the smallest
    cardinality, then lexicographically smallest member tuple.
    """
    if G.n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={_BRUTE_FORCE_MAX_N}, graph has n={G.n}")
    w = as_weight_vector(G, w)
    masks = np.arange(1, 2**G.n, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.float64)
    wsum = np.zeros(masks.shape[0])
    for idx, (u, v) in enumerate(G.edges):
        both = ((masks >> np.uint64(u)) & (masks >> np.uint64(v)) & np.uint64(1)).astype(bool)
        wsum[both] += w[idx]
    dens = wsum / sizes
    best = float(dens.max())
    cand_masks = np.flatnonzero(dens == best) + 1
    cand_sizes = np.bitwise_count(cand_masks.astype(np.uint64))
    cand_masks = cand_masks[cand_sizes == cand_sizes.min()]
    members = min(
        tuple(v for v in range(G.n) if (int(mask) >> v) & 1) for mask in cand_masks
    )
    return DensestResult(subset=members, value=best)


def _maxflow(to: list[int], adj: list[list[int]], cap: list[int], s: int, t: int) -> list[int]:
    """Dinic max flow, in place on ``cap``; returns the last BFS levels.

    Arcs come in pairs so ``a ^ 1`` is the reverse of arc ``a``; afterwards
    ``cap`` holds residual capacities, and level[v] >= 0 exactly when v is
    reachable from s. Capacities are Python ints: library flow routines
    either truncate to 32 bits or work in floating point, and the solver
    needs exact arithmetic on capacities of order 2^50.
    """
    nn = len(adj)
    while True:
        level = [-1] * nn
        level[s] = 0
        queue = [s]
        for u in queue:
            nxt = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
            if level[t] >= 0:
                break
        else:
            return level
        it = [0] * nn
        path: list[int] = []  # arcs from s to u
        u = s
        while True:
            if u == t:
                # bottleneck and the first arc it saturates, in one pass
                aug = cap[path[0]]
                cut = 0
                for i in range(1, len(path)):
                    c = cap[path[i]]
                    if c < aug:
                        aug, cut = c, i
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                del path[cut:]
                u = to[path[-1]] if path else s
                continue
            arcs = adj[u]
            want = level[u] + 1
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if cap[a] and level[to[a]] == want:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if u == s:
                    break
                level[u] = -1  # dead end for the rest of the phase
                path.pop()
                u = to[path[-1]] if path else s
                it[u] += 1


class _Gadget:
    """Arc arrays of the flow network of one graph.

    Node 0 is s, vertex v is node v + 1 and t is node n + 1. Arc 2v is s->v,
    arc 2n + 2v is v->t, and arc 4n + 2e carries edge e = (u, v) from u to v
    (its pair, v to u, is the other direction of the undirected edge); the
    pair of arc a is a ^ 1. The arcs v->s are left out of the adjacency: no
    s-t path and no closure outside that of s uses them; t lists the pairs
    of the sink arcs, for the search of the vertices that reach t. A vertex
    lists its sink arc first, so a search that can end at t does so at once.
    """

    def __init__(self, G: Graph):
        n = G.n
        self.n = n
        self.sink = t = n + 1
        self.to: list[int] = []
        for v in range(n):
            self.to += (v + 1, 0)
        for v in range(n):
            self.to += (t, v + 1)
        for u, v in G.edges:
            self.to += (v + 1, u + 1)
        self.adj: list[list[int]] = (
            [list(range(0, 2 * n, 2))]
            + [[2 * n + 2 * v] for v in range(n)]
            + [list(range(2 * n + 1, 4 * n, 2))]
        )
        for e, (u, v) in enumerate(G.edges):
            self.adj[u + 1].append(4 * n + 2 * e)
            self.adj[v + 1].append(4 * n + 2 * e + 1)


_gadget_cache: tuple[Graph, _Gadget] | None = None


def _gadget_for(G: Graph) -> _Gadget:
    """The gadget of G, rebuilt only when a different graph comes in.

    Keyed by value: an equal graph built anew reuses the arcs, and a new
    graph that happens to get a freed graph's id() does not.
    """
    global _gadget_cache
    if _gadget_cache is None or _gadget_cache[0] != G:
        _gadget_cache = (G, _Gadget(G))
    return _gadget_cache[1]


class _CutSolver:
    """Parametric min-cut machinery for one rounded instance.

    ``force`` keeps one vertex in every candidate set; ``flow_calls`` counts
    the max-flow runs. A vertex of zero weighted degree never joins a
    maximizer at a positive guess p/q: its sink arc keeps residual 2p, and
    nothing flows into it.
    """

    def __init__(self, G: Graph, what: np.ndarray, force: int | None = None):
        self.G = G
        self.gadget = _gadget_for(G)
        self.force = force
        c = what.tolist()
        deg = [0] * G.n
        for (u, v), cu in zip(G.edges, c):
            deg[u] += cu
            deg[v] += cu
        self.c = c
        self.deg = deg
        self.flow_calls = 0

    def weight_of(self, members) -> int:
        inside = set(members)
        c, adjacency = self.c, self.G.adjacency
        return sum(c[idx] for u in members for v, idx in adjacency[u] if v > u and v in inside)

    def _capacities(self, p: int, q: int) -> list[int]:
        """Residual capacities at guess p/q once s->v->t and then, greedily
        in edge order, s->u->v->t paths are saturated. Arcs into s and out
        of t start empty: no s-t path or closure needs them."""
        n = self.gadget.n
        r = [2 * p - q * d for d in self.deg]
        src = [-x if x < 0 else 0 for x in r]
        snk = [x if x > 0 else 0 for x in r]
        qc = [q * c for c in self.c]
        if self.force is not None:
            snk[self.force] = 0
            src[self.force] = 1 + sum(src) + sum(snk) + 2 * sum(qc)  # uncuttable
        fwd, bwd = qc, qc.copy()
        for e, (u, v) in enumerate(self.G.edges):
            c = qc[e]
            if not c:
                continue
            f = min(src[u], c, snk[v])
            if f:
                src[u] -= f
                snk[v] -= f
                fwd[e] = c - f
                bwd[e] = c + f
            f = min(src[v], bwd[e], snk[u])
            if f:
                src[v] -= f
                snk[u] -= f
                bwd[e] -= f
                fwd[e] += f
        cap = [0] * len(self.gadget.to)
        cap[0 : 2 * n : 2] = src
        cap[2 * n : 4 * n : 2] = snk
        cap[4 * n :: 2] = fwd
        cap[4 * n + 1 :: 2] = bwd
        return cap

    def solve(self, start=None, tie_break: bool = True) -> list[int]:
        """Dinkelbach iteration from ``start`` (greedy peel when None).

        With ``tie_break`` the canonical maximizer is returned, otherwise the
        union of all maximizers; neither depends on the start.
        """
        if not any(self.c):  # every set has density 0; no max-flow call
            return [self.force if self.force is not None else 0]
        start = set(_greedy_start(self.G, np.asarray(self.c, dtype=np.float64)) if start is None else start)
        if self.force is not None:
            start.add(self.force)
        p, q = self._polish(start)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        gadget = self.gadget
        for _ in range(200):
            cap = self._capacities(p, q)
            level = _maxflow(gadget.to, gadget.adj, cap, 0, gadget.sink)
            self.flow_calls += 1
            members = [v for v in range(self.G.n) if level[v + 1] >= 0]
            if members:
                weight = self.weight_of(members)
                if q * weight > p * len(members):
                    p, q = weight, len(members)
                    g = math.gcd(p, q)
                    p, q = p // g, q // g
                    continue
            reach_t = set(self._search(cap, gadget.sink, back=True))
            if not tie_break:
                return [v for v in range(self.G.n) if v + 1 not in reach_t]
            return self._canonical(cap, reach_t, p, q)
        raise RuntimeError("density iteration failed to converge")

    def _polish(self, members) -> tuple[int, int]:
        """Local search from ``members``: add or drop the vertex that raises
        the density most, while one does; returns the weight and size of the
        set it ends at.

        An optimum under nearby weights is usually one move from the new
        optimum, so the first max-flow call can prove it optimal.
        """
        c, adjacency = self.c, self.G.adjacency
        inside = [False] * self.G.n
        into = [0] * self.G.n  # weight of the edges from each vertex into the set
        for u in members:
            inside[u] = True
            for x, idx in adjacency[u]:
                into[x] += c[idx]
        weight = sum(into[u] for u in members) // 2
        size = len(members)
        while True:
            move = None
            num, den = weight, size
            for v in range(self.G.n):
                if not inside[v]:
                    cand = (weight + into[v], size + 1)
                elif size > 1 and v != self.force:
                    cand = (weight - into[v], size - 1)
                else:
                    continue
                if cand[0] * den > num * cand[1]:
                    move, (num, den) = v, cand
            if move is None:
                return weight, size
            sign = -1 if inside[move] else 1
            inside[move] = not inside[move]
            for x, idx in adjacency[move]:
                into[x] += sign * c[idx]
            weight, size = num, den

    def _search(self, cap: list[int], root: int, back: bool = False, within=None) -> list[int]:
        """Nodes that ``root`` reaches in the residual network, or with
        ``back`` the nodes that reach ``root``; only through the nodes
        ``within`` when that is given."""
        to, adj = self.gadget.to, self.gadget.adj
        flip = 1 if back else 0
        seen = {root}
        queue = [root]
        for u in queue:
            for a in adj[u]:
                v = to[a]
                if cap[a ^ flip] and v not in seen and (within is None or v in within):
                    seen.add(v)
                    queue.append(v)
        return queue

    def _canonical(self, cap, reach_t, p: int, q: int) -> list[int]:
        """Smallest-cardinality, then lexicographic, maximizer extraction.

        Runs at the optimal guess without a forced vertex, where the closure
        of s holds no vertex. The union of all maximizers is closed, so a
        vertex of it that reaches all of it and is reached from all of it
        makes it strongly connected and the only candidate. Otherwise each
        vertex of the union gives one candidate: its residual closure.
        """
        union = [v + 1 for v in range(self.G.n) if v + 1 not in reach_t]
        root, size = union[0], len(union)
        forward = self._search(cap, root)
        if len(forward) == size and len(self._search(cap, root, True, set(union))) == size:
            members = [i - 1 for i in union]
        else:
            closures = (sorted(x - 1 for x in self._search(cap, i)) for i in union)
            members = min((len(c), c) for c in closures)[1]
        assert q * self.weight_of(members) == p * len(members)
        return members


def _greedy_start(G: Graph, w: np.ndarray) -> list[int]:
    """Densest prefix of a greedy peel (a cold start)."""
    degs = _weighted_degrees(G, w)
    num = 0.5 * float(degs.sum())
    order: list[int] = []
    best_num, best_den, best_removed = -1.0, 1, 0
    for size in range(G.n, 0, -1):
        if num * best_den > best_num * size:
            best_num, best_den, best_removed = num, size, len(order)
        if size == 1:
            break
        v = int(np.argmin(degs))
        num -= float(degs[v])
        degs[v] = math.inf
        order.append(v)
        for u, idx in G.adjacency[v]:
            if degs[u] != math.inf:
                degs[u] -= w[idx]
    removed = set(order[:best_removed])
    return [v for v in range(G.n) if v not in removed]


def _rounded(G: Graph, w: np.ndarray) -> np.ndarray:
    # shift by 2^e, the least e >= 0 with max(w) * 2^e >= 1/2, so that small
    # weights keep as many bits as weights near 1; the shift is exact, and
    # e = 0 once max(w) >= 1/2
    e = max(0, -math.frexp(float(w.max(initial=0.0)))[1])
    shifted = np.ldexp(w, e)
    return np.rint(shifted * _integer_scale(G, shifted)).astype(np.int64)


def exact_densest(G: Graph, w, start=None) -> DensestResult:
    """Globally optimal density subset.

    Weights are scaled to integers before solving, with the scale chosen so
    the densest-value error is far below 1e-9 of the largest weight on
    graphs of a few thousand vertices, however small the weights are. The
    reported value is the true (unrounded) density of the returned set.
    All-zero weights give ({0}, 0.0).

    ``start``, a nonempty vertex set, seeds the density iteration in place
    of a greedy peel; a good start (such as the optimum under nearby
    weights) saves max-flow calls. The result does not depend on it.
    """
    w = as_weight_vector(G, w)
    if start is not None:
        start = as_vertex_set(G, start)
        if not start:
            raise ValueError("start set must be nonempty")
    solver = _CutSolver(G, _rounded(G, w))
    subset = tuple(solver.solve(start, tie_break=True))
    return DensestResult(subset=subset, value=density(G, w, subset), flow_calls=solver.flow_calls)


def second_best_density(G: Graph, w, best) -> float:
    """Best density over all nonempty sets different from ``best``.

    Runs one constrained solve per vertex v: over the sets holding v if v
    is not in ``best``, else over the sets without v, on the weights with
    v's edges zeroed, under which v joins no maximizer (see ``_CutSolver``)
    or, when no weight is left, the answer {0} has density 0 like every set
    without v. Every set other than ``best`` is feasible for one of these
    solves, and none returns a set denser than the best other set, so the
    max over them is the second-best value. Each solve is warm-started from
    its nearest feasible neighbour of ``best`` (best - {v} or best + {v}),
    all of them share one flow gadget, and each returns the union of its
    maximizers, so the value depends on neither the starts nor the flows
    found.
    """
    w = as_weight_vector(G, w)
    best = as_vertex_set(G, best)
    if G.n < 2:
        raise ValueError("second-best density needs at least two vertices")
    what = _rounded(G, w)
    best_members = set(best)
    runner_value = -math.inf
    for v in range(G.n):
        if v in best_members:
            without_v = what.copy()
            without_v[[idx for _, idx in G.adjacency[v]]] = 0
            solver = _CutSolver(G, without_v)
            cand = solver.solve(best_members - {v} or None, tie_break=False)
        else:
            solver = _CutSolver(G, what, force=v)
            cand = solver.solve(best_members | {v}, tie_break=False)
        runner_value = max(runner_value, density(G, w, cand))
    return runner_value
