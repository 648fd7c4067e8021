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

Five things keep the repeated solves cheap:

- Checked once. ``exact_densest`` validates its weights and hands them to
  a private core, which DS-Lin's rounds call directly with their own
  clipped estimate and last incumbent as the start. The core reads the
  reported value and the tie-break's integer weight check from one
  ``graph.edge_mask``, which also gives Dinkelbach the weight of each
  improving cut.
- Warm start. The core's iteration may start from any nonempty set, which
  a local search (add or drop one vertex while that raises the density)
  polishes first; a start that is then optimal costs a single max-flow
  call, which proves it optimal. Cold solves start from a greedy peel.
- Gadget reuse. The arc arrays depend only on the graph, so they are built
  once and kept in a one-entry cache keyed by the ``Graph`` value; each
  guess refills only the capacities, reading the edge endpoints from
  ``Graph.ends``. A forced vertex gets a source arc no cut can afford.
- Warm flow. The cache also keeps the edge flows of the last max flow of an
  ``exact_densest`` solve on that graph, with the capacities they were found
  at. The next such max flow starts from them, each scaled to its edge's new
  capacity, f * (q*c) / (q0*c0), and clipped to +-q*c. Under weights that
  barely move, as in DS-Lin's rounds, that flow is nearly maximum.
  ``second_best_density``'s constrained solves start from the zero flow and
  neither read nor store it.
- Pre-saturation. Before the first Dinic phase the direct path s->v->t of
  every vertex carries what balances the vertex: with r = 2p - q*d(v) + (the
  starting flow's net outflow of v), that leaves a source arc of -r or a
  sink arc of r, not both, and removes M from the residual network
  altogether. One greedy pass then pushes what it can along the two-hop
  paths s->u->v->t, which leaves Dinic a few longer augmenting paths instead
  of dozens of short ones. From a warm flow, which leaves little to route,
  the pass also tries the three-hop paths s->u->v->x->t, which in DS-Lin's
  rounds leaves Dinic little or nothing to route.

Ties are broken toward the smallest cardinality set, then lexicographically
smallest membership. At the optimal guess every maximizer is the source side
of some minimum cut. So is the empty set, so the residual closure of s holds
no vertex; the minimal maximizer containing a vertex u is the closure of
{s, u}, and the union of all maximizers is the set of vertices that cannot
reach t. The tie-break has two tiers. If one search along the arcs with
residual capacity both ways finds the whole union, the union is strongly
connected and the only maximizer. Otherwise the closures of its vertices are
compared, which enumerates every minimum-cardinality maximizer. The search
for the vertices that reach t ends once it has found all n - k of them, k
the size of a set known to attain the optimum, since that set lies in the
union. The tie-break does not depend on the start or on which maximum flow
was found: Dinkelbach ends at the unique optimal p/q of the rounded
instance, and the sets read off the residual network (reachable from s,
reaching t, and each closure) are the minimum cuts' lattice, which is the
same for every maximum flow (Picard-Queyranne 1980). So neither the answer
nor the number of max-flow calls depends on the flow a max flow starts from.

An equivalent exact LP formulation (kept as a reference, not used): maximize
sum_e w_e y_e subject to y_e <= x_u and y_e <= x_v for each edge e = {u, v},
sum_v x_v = 1, x, y >= 0; the optimum equals max_S f_w(S) and an optimal S
can be recovered by thresholding x. The flow route needs no LP dependency
and is exact in integer arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, as_vertex_set, as_weight_vector, edge_mask, star_edges

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
    return np.bincount(G.ends, weights=np.repeat(w, 2), minlength=G.n)


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
    """Dinic max flow, in place on ``cap``; returns the nodes reachable from
    s in the residual network, s first.

    Arcs come in pairs so ``a ^ 1`` is the reverse of arc ``a``; afterwards
    ``cap`` holds residual capacities. Capacities are Python ints: library
    flow routines either truncate to 32 bits or work in floating point, and
    the solver needs exact arithmetic on capacities of order 2^50.
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
            return queue
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
    """Arc arrays of the flow network of one graph, and the last warm flow.

    Node 0 is s, vertex v is node v + 1 and t is node n + 1. Arc 2v is s->v,
    arc 2n + 2v is v->t, and arc 4n + 2e carries edge e = (u, v) from u to v
    (its pair, v to u, is the other direction of the undirected edge); the
    pair of arc a is a ^ 1. The arcs v->s are left out of the adjacency: no
    s-t path and no closure outside that of s uses them; t lists the pairs
    of the sink arcs, for the search of the vertices that reach t. A vertex
    lists its sink arc first, so a search that can end at t does so at once.

    The tails of the edge arcs, u0 v0 u1 v1 ..., are ``G.ends``; the
    gadget keeps no endpoint arrays of its own. ``two_hop[u]`` lists each
    neighbour v of u with its sink arc and the arc u->v. ``flow`` is the
    residual capacity of each edge arc u->v, cap[4n::2], at the end of the
    last warm max flow (None before the first), and ``flow_caps`` the
    capacities q*c it was found at: the flow on edge e is flow_caps[e] -
    flow[e].
    """

    def __init__(self, G: Graph):
        n = G.n
        self.G = G
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
        self.two_hop = [
            [(v, 2 * n + 2 * v, 4 * n + 2 * e + (u > v)) for v, e in nbrs] for u, nbrs in enumerate(G.adjacency)
        ]
        self.flow: list[int] | None = None
        self.flow_caps: np.ndarray | None = None
        self._inside_of: list[int] | None = None
        self._inside: np.ndarray | None = None

    def inside(self, members: list[int]) -> np.ndarray:
        """Read-only ``graph.edge_mask`` of ``members``: ``w[mask].sum()``
        sums the edges ``graph.density`` sums, in the same order. The last
        one is kept, since DS-Lin's incumbent rarely changes."""
        if members != self._inside_of:
            self._inside_of, self._inside = list(members), edge_mask(self.G, members)
            self._inside.flags.writeable = False
        return self._inside


_gadget_cache: tuple[Graph, _Gadget] | None = None


def _gadget_for(G: Graph) -> _Gadget:
    """The gadget of G, rebuilt only when a different graph comes in.

    Keyed by value: an equal graph built anew reuses the arcs and the warm
    flow, and a new graph that happens to get a freed graph's id() does not.
    An equal graph becomes the key, so its later calls skip the comparison.
    """
    global _gadget_cache
    if _gadget_cache is None or _gadget_cache[0] is not G:
        gadget = _gadget_cache[1] if _gadget_cache is not None and _gadget_cache[0] == G else _Gadget(G)
        _gadget_cache = (G, gadget)
    return _gadget_cache[1]


class _CutSolver:
    """Parametric min-cut machinery for one rounded instance.

    ``force`` keeps one vertex in every candidate set; ``flow_calls`` counts
    the max-flow runs. A vertex of zero weighted degree never joins a
    maximizer at a positive guess p/q: its sink arc keeps residual 2p, and
    nothing flows into it. A ``warm`` solver starts each max flow from the
    gadget's stored flow and stores the one it finds; any other starts from
    the zero flow and leaves the stored one alone.
    """

    def __init__(self, gadget: _Gadget, what: np.ndarray, force: int | None = None, warm: bool = False):
        self.G = gadget.G
        self.gadget = gadget
        self.force = force
        self.warm = warm
        self.what = what
        self.c = what.tolist()
        self.flow_calls = 0

    def _capacities(self, p: int, q: int) -> tuple[list[int], np.ndarray]:
        """Residual capacities at guess p/q around a starting flow.

        A warm solver starts from the stored flow scaled to the new edge
        capacities, f * (q*c) / (q0*c0) clipped to +-q*c, any other from the
        zero flow. Every source and sink arc then carries what keeps its
        vertex balanced, which leaves vertex v a source arc of -r or a sink
        arc of r, not both, for r = 2p - q*d(v) + (net flow out of v): the
        direct paths s->v->t are saturated and M leaves the residual
        network. A greedy pass, source vertex by source vertex, then
        saturates what it can of the s->u->v->t paths and, from a stored
        flow, where little is left to route, of the s->u->v->x->t paths
        too. Arcs into s and out of t start empty: no s-t path or closure
        needs them. Returns the residual capacities and the edge
        capacities q*c.
        """
        gadget = self.gadget
        n = gadget.n
        qc = q * self.what
        arcs = np.empty(2 * len(qc), dtype=np.int64)
        warm = self.warm and gadget.flow is not None
        if warm:
            caps0 = gadget.flow_caps
            f = ((caps0 - np.array(gadget.flow, dtype=np.int64)) / np.maximum(caps0, 1) * qc).astype(np.int64)
            np.minimum(f, qc, out=f)
            np.maximum(f, -qc, out=f)
            np.subtract(qc, f, out=arcs[0::2])
            np.add(qc, f, out=arcs[1::2])
        else:
            arcs[0::2] = qc
            arcs[1::2] = qc
        r = np.full(n, 2 * p, dtype=np.int64)
        np.subtract.at(r, self.G.ends, arcs)  # each arc's residual from its tail
        cap = [0] * (4 * n) + arcs.tolist()
        sources = []
        for v, x in enumerate(r.tolist()):
            if x < 0:
                cap[2 * v] = -x
                sources.append(v)
            else:
                cap[2 * n + 2 * v] = x
        if self.force is not None:
            x = self.force
            cap[2 * n + 2 * x] = 0
            cap[2 * x] = 1 + sum(cap[: 4 * n]) + 2 * int(qc.sum())  # uncuttable
            if x not in sources:
                bisect.insort(sources, x)
        two_hop = gadget.two_hop
        for u in sources:
            left = cap[2 * u]
            for _, tv, a in two_hop[u]:
                if cap[tv] and cap[a]:
                    f = min(left, cap[a], cap[tv])
                    left -= f
                    cap[tv] -= f
                    cap[a] -= f
                    cap[a ^ 1] += f
                    if not left:
                        break
            if left and warm:
                for v, _, a in two_hop[u]:
                    if not cap[a]:
                        continue
                    for _, tx, b in two_hop[v]:
                        if cap[tx] and cap[b]:
                            f = min(left, cap[a], cap[b], cap[tx])
                            left -= f
                            cap[tx] -= f
                            cap[b] -= f
                            cap[b ^ 1] += f
                            cap[a] -= f
                            cap[a ^ 1] += f
                            if not (left and cap[a]):
                                break
                    if not left:
                        break
            cap[2 * u] = left
        return cap, qc

    def solve(self, start=None, tie_break: bool = True) -> tuple[list[int], np.ndarray]:
        """Dinkelbach iteration from ``start`` (greedy peel when None),
        which holds the forced vertex if there is one.

        Returns the canonical maximizer with ``tie_break``, otherwise the
        union of all maximizers, and its edge mask (``_Gadget.inside``);
        neither depends on the start.
        """
        gadget = self.gadget
        if not any(self.c):  # every set has density 0; no max-flow call
            members = [self.force if self.force is not None else 0]
            return members, gadget.inside(members)
        if start is None:
            start = _greedy_start(gadget, self.what.astype(np.float64))
        p, size = self._polish(start)
        g = math.gcd(p, size)
        p, q = p // g, size // g
        for _ in range(200):
            cap, qc = self._capacities(p, q)
            reach_s = _maxflow(gadget.to, gadget.adj, cap, 0, gadget.sink)
            self.flow_calls += 1
            if self.warm:
                gadget.flow, gadget.flow_caps = cap[4 * gadget.n :: 2], qc
            if len(reach_s) > 1:
                members = [x - 1 for x in reach_s[1:]]
                weight = int(self.what[edge_mask(self.G, members)].sum())
                if q * weight > p * len(members):
                    size = len(members)
                    g = math.gcd(weight, size)
                    p, q = weight // g, size // g
                    continue
            # p/q is optimal and a set of ``size`` vertices attains it, so
            # at most n - size vertices reach t: once that many are found,
            # the union of the maximizers is that set
            reach_t = self._search(cap, gadget.sink, back=True, stop=gadget.n - size + 1)[1]
            union = [x for x in range(1, gadget.sink) if not reach_t[x]]
            if not tie_break:
                members = [x - 1 for x in union]
                return members, gadget.inside(members)
            members = self._canonical(cap, union)
            inside = gadget.inside(members)
            # the tie-break picks a maximizer: its rounded density is p/q
            assert q * int(self.what[inside].sum()) == p * len(members)
            return members, inside
        raise RuntimeError("density iteration failed to converge")

    def _polish(self, members) -> tuple[int, int]:
        """Local search from ``members``, distinct vertices: add or drop the
        vertex that raises the density most, while one does; returns the
        weight and size of the set it ends at.

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
            # adding a vertex raises the density exactly when size * into
            # exceeds the weight, and dropping one when it falls short; the
            # best move is the first of the densest among those
            better = [
                v
                for v, (x, ins) in enumerate(zip(into, inside))
                if (size * x < weight if ins else size * x > weight)
            ]
            move = None
            num, den = weight, size
            for v in better:
                if not inside[v]:
                    cw, cs = weight + into[v], size + 1
                elif size > 1 and v != self.force:
                    cw, cs = weight - into[v], size - 1
                else:
                    continue
                if cw * den > num * cs:
                    move, num, den = v, cw, cs
            if move is None:
                return weight, size
            sign = -1 if inside[move] else 1
            inside[move] = not inside[move]
            for x, idx in adjacency[move]:
                into[x] += sign * c[idx]
            weight, size = num, den

    def _search(
        self,
        cap: list[int],
        root: int,
        back: bool = False,
        stop: int | None = None,
        both: bool = False,
    ) -> tuple[list[int], list[bool]]:
        """Nodes that ``root`` reaches in the residual network, or with
        ``back`` the nodes that reach ``root``, in search order and as flags
        by node. With ``both`` the search follows only the arcs with
        residual capacity both ways, so each node it finds also reaches
        ``root``. The search ends early once it has found ``stop`` nodes,
        root included."""
        to, adj = self.gadget.to, self.gadget.adj
        flip = 1 if back else 0
        also = 1 if both else flip  # the second arc test repeats the first unless ``both``
        seen = [False] * len(adj)
        seen[root] = True
        queue = [root]
        for u in queue:
            for a in adj[u]:
                v = to[a]
                if not seen[v] and cap[a ^ flip] and cap[a ^ also]:
                    seen[v] = True
                    queue.append(v)
            if len(queue) == stop:
                break
        return queue, seen

    def _canonical(self, cap, union) -> list[int]:
        """Smallest-cardinality, then lexicographic, maximizer extraction.

        Runs at the optimal guess without a forced vertex, where the closure
        of s holds no vertex; ``union`` lists the nodes of the vertices that
        cannot reach t. Two tiers: if one search along the arcs with
        residual both ways finds all of the union, it is strongly connected
        and the only candidate. Otherwise each vertex of the union gives one
        candidate, its residual closure; that enumeration is exact, and it
        too returns the union when the union is strongly connected.
        """
        root = union[0]
        if len(self._search(cap, root, both=True)[0]) == len(union):
            members = [i - 1 for i in union]
        else:
            closures = (sorted(x - 1 for x in self._search(cap, i)[0]) for i in union)
            members = min((len(c), c) for c in closures)[1]
        return members


def _greedy_start(gadget: _Gadget, w: np.ndarray) -> list[int]:
    """Densest prefix of a greedy peel (a cold start)."""
    G = gadget.G
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
    # e = 0 once max(w) >= 1/2. The scale K keeps q*M-sized capacities and
    # max-flow values in int64
    e = max(0, -math.frexp(float(w.max(initial=0.0)))[1])
    shifted = np.ldexp(w, e) if e else w
    n = G.n
    max_dw = float(_weighted_degrees(G, shifted).max())
    K = _SCALE_CAP if max_dw <= 0.0 else int(min(_SCALE_CAP, _FLOW_HEADROOM / (4.0 * n * n * max_dw)))
    if K < 1:
        raise ValueError("weights too large for the integer-scaled flow solver")
    return np.rint(shifted * K).astype(np.int64)


def exact_densest(G: Graph, w) -> DensestResult:
    """Globally optimal density subset.

    Weights are scaled to integers before solving, with the scale chosen so
    the densest-value error is far below 1e-9 of the largest weight on
    graphs of a few thousand vertices, however small the weights are. The
    reported value is the true (unrounded) density of the returned set.
    All-zero weights give ({0}, 0.0). Each max flow starts from the last
    one an ``exact_densest`` call found on the same graph, which changes
    its cost, not the result or ``flow_calls``.
    """
    return _densest(G, as_weight_vector(G, w), None)


def _densest(G: Graph, w: np.ndarray, start: tuple[int, ...] | None) -> DensestResult:
    """``exact_densest`` on weights it would accept unchanged (finite,
    nonnegative, float64, length m), from ``start``: None for a greedy
    peel, or nonempty distinct valid vertices, taken as given. A good start,
    such as the optimum under nearby weights, saves max-flow calls; the
    result does not depend on it. DS-Lin passes its clipped estimate and
    last incumbent, which meet this contract by construction."""
    gadget = _gadget_for(G)
    solver = _CutSolver(gadget, _rounded(G, w), warm=True)
    subset, inside = solver.solve(start, tie_break=True)
    value = float(w[inside].sum()) / len(subset)
    return DensestResult(subset=tuple(subset), value=value, flow_calls=solver.flow_calls)


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
    gadget = _gadget_for(G)
    what = _rounded(G, w)
    best_members = set(best)
    runner_value = -math.inf
    for v in range(G.n):
        if v in best_members:
            without_v = what.copy()
            without_v[[idx for _, idx in G.adjacency[v]]] = 0
            solver = _CutSolver(gadget, without_v)
            cand, inside = solver.solve(best_members - {v} or None, tie_break=False)
        else:
            solver = _CutSolver(gadget, what, force=v)
            cand, inside = solver.solve(best_members | {v}, tie_break=False)
        runner_value = max(runner_value, float(w[inside].sum()) / len(cand))
    return runner_value
