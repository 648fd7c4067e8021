"""Reference answers computed without the densebandits package.

Everything here works from an edge list (pairs of vertex indices, the edge's
position being its index) and a weight vector aligned with it:

- ``density``: f_w(S) = w(E(S)) / |S|;
- ``lp_densest``: the optimum of Charikar's LP relaxation (2000), which equals
  the densest density, solved with scipy's HiGHS;
- ``brute_force``: enumeration of every nonempty subset, with the
  smallest-set-then-lexicographic tie-break and the second-best value;
- ``greedy_peel``: the peel that noise-free DS-SR must reproduce.

The ``check_*`` functions compare a program answer with a reference and
return a list of problems, empty when the answer passes, so that the
self-test can plant wrong answers and watch each one be rejected.
"""

from __future__ import annotations

import math

import numpy as np

# HiGHS solves to about 1e-9 relative with the tolerances below; the program
# reports unrounded densities, so 1e-6 leaves room without hiding a wrong set.
LP_RTOL = 1e-6
VALUE_RTOL = 1e-9


def _edge_array(edges) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def density(edges, w, S) -> float:
    """Degree density of the nonempty vertex set S."""
    members = sorted(set(int(v) for v in S))
    if not members:
        raise ValueError("density of the empty set is undefined")
    E = _edge_array(edges)
    inside = np.zeros(max(members[-1], int(E.max(initial=0))) + 1, dtype=bool)
    inside[members] = True
    both = inside[E[:, 0]] & inside[E[:, 1]]
    return math.fsum(np.asarray(w, dtype=np.float64)[both]) / len(members)


def lp_densest(n: int, edges, w) -> float:
    """max sum_e w_e y_e  s.t.  y_e <= x_u, y_e <= x_v, sum_v x_v = 1, x, y >= 0."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    E = _edge_array(edges)
    m = E.shape[0]
    w = np.asarray(w, dtype=np.float64)
    ys = np.arange(m)
    rows = np.concatenate([ys, ys, m + ys, m + ys])
    cols = np.concatenate([ys, m + E[:, 0], ys, m + E[:, 1]])
    vals = np.concatenate([np.ones(m), -np.ones(m), np.ones(m), -np.ones(m)])
    A_ub = csr_matrix((vals, (rows, cols)), shape=(2 * m, m + n))
    A_eq = np.concatenate([np.zeros(m), np.ones(n)])[None, :]
    res = linprog(
        np.concatenate([-w, np.zeros(n)]),
        A_ub=A_ub,
        b_ub=np.zeros(2 * m),
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def brute_force(n: int, edges, w):
    """(best set, best value, second-best value) over all nonempty subsets.

    Integer weights are compared exactly, so their ties are real ties; other
    weights count as tied within 1e-12 relative.
    """
    w = np.asarray(w, dtype=np.float64)
    E = _edge_array(edges)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    both = (inside[:, E[:, 0]] & inside[:, E[:, 1]]).astype(np.float64)
    dens = (both @ w) / inside.sum(axis=1)
    best = float(dens.max())
    tol = 0.0 if np.all(w == np.round(w)) else 1e-12 * abs(best)
    tied = np.flatnonzero(dens >= best - tol)
    sizes = inside[tied].sum(axis=1)
    best_set = min(
        tuple(int(v) for v in np.flatnonzero(inside[i])) for i in tied[sizes == sizes.min()]
    )
    best_mask = sum(1 << v for v in best_set)
    others = np.delete(dens, best_mask - 1)
    return best_set, best, float(others.max()) if others.size else -math.inf


def greedy_peel(n: int, edges, w):
    """Removal order and best prefix of the budgeted peel with exact sums.

    Star sums run over ascending edge indices, evictions take the smallest
    index among the minimal degrees, and the best prefix is the first
    strictly better one, so a noise-free DS-SR run must match it exactly.
    """
    w = np.asarray(w, dtype=np.float64)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    alive = np.ones(n, dtype=bool)
    est = np.zeros(n)
    order: list[int] = []
    best, best_set = -math.inf, tuple(range(n))
    for size in range(n, 1, -1):
        members = np.flatnonzero(alive)
        for v in members:
            idxs = sorted(i for u, i in adj[v] if alive[u])
            est[v] = float(w[idxs].sum()) if idxs else 0.0
        f = 0.5 * float(est[members].sum()) / size
        if f > best:
            best, best_set = f, tuple(int(v) for v in members)
        evict = int(members[np.argmin(est[members])])
        order.append(evict)
        alive[evict] = False
    return tuple(order), best_set


def best_neighbour_density(n: int, edges, w, S) -> float:
    """Largest density among S minus one member and S plus one non-member."""
    S = set(int(v) for v in S)
    cands = [S - {v} for v in S if len(S) > 1] + [S | {v} for v in range(n) if v not in S]
    return max(density(edges, w, c) for c in cands)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_optimum(value: float, set_density: float, opt: float) -> list[str]:
    """The reported value is the optimum and the density of the reported set."""
    out = []
    if not _close(value, opt, LP_RTOL):
        out.append(f"value {value!r} differs from the LP optimum {opt!r}")
    if not _close(set_density, value, VALUE_RTOL):
        out.append(f"returned set has density {set_density!r}, reported {value!r}")
    return out


def check_small(subset, value: float, brute) -> list[str]:
    """Value and tie-break of an exact answer against brute force."""
    best_set, best, _ = brute
    out = []
    if not _close(value, best, VALUE_RTOL):
        out.append(f"value {value!r} differs from brute force {best!r}")
    if tuple(subset) != best_set:
        out.append(f"set {tuple(subset)} is not the canonical maximizer {best_set}")
    return out


def check_second_small(second: float, brute) -> list[str]:
    if not _close(second, brute[2], VALUE_RTOL):
        return [f"second-best {second!r} differs from brute force {brute[2]!r}"]
    return []


def check_second_range(second: float, neighbour: float, opt: float) -> list[str]:
    """A second-best value lies between the best neighbouring set and OPT."""
    out = []
    if second < neighbour - VALUE_RTOL * max(1.0, abs(neighbour)):
        out.append(f"second-best {second!r} below the best neighbouring set {neighbour!r}")
    if second > opt + LP_RTOL * max(1.0, abs(opt)):
        out.append(f"second-best {second!r} above the optimum {opt!r}")
    return out


def check_quality(quality: float, opt: float) -> list[str]:
    if quality > opt + LP_RTOL * max(1.0, abs(opt)):
        return [f"quality {quality!r} exceeds OPT {opt!r}"]
    return []


def check_budget(queries: int, reported: int, T: int) -> list[str]:
    out = []
    if queries > T:
        out.append(f"{queries} queries exceed the budget T={T}")
    if reported != queries:
        out.append(f"run reports {reported} queries, the oracle counted {queries}")
    return out


def check_mean_quality(qualities, opt: float, share: float = 0.95) -> list[str]:
    mean = float(np.mean(qualities))
    if mean < share * opt:
        return [f"mean quality {mean!r} below {share} * OPT = {share * opt!r}"]
    return []


def check_peel(order, subset, reference) -> list[str]:
    ref_order, ref_subset = reference
    out = []
    if tuple(order) != tuple(ref_order):
        out.append("noise-free removal order differs from the greedy peel")
    if tuple(subset) != tuple(ref_subset):
        out.append(f"noise-free output {tuple(subset)} differs from the peel's {ref_subset}")
    return out


def check_lp_optimal(est_density: float, est_opt: float) -> list[str]:
    """The incumbent is optimal for the final estimate."""
    if est_density < est_opt - LP_RTOL * max(1.0, abs(est_opt)):
        return [f"incumbent density {est_density!r} under the estimate is below its LP optimum {est_opt!r}"]
    return []


def check_rounds(rounds: int, queries: int, cap: int) -> list[str]:
    out = []
    if rounds > cap:
        out.append(f"{rounds} rounds exceed the cap {cap}")
    if queries != rounds:
        out.append(f"{queries} oracle queries for {rounds} rounds")
    return out


def check_beats(ours, baseline) -> list[str]:
    a, b = float(np.mean(ours)), float(np.mean(baseline))
    if not a > b:
        return [f"mean quality {a!r} does not beat the baseline's {b!r}"]
    return []


def check_trace(untraced, traced, counted_queries: int, oracle_queries: int) -> list[str]:
    """The traced replay changed no output and saw every oracle query."""
    out = []
    if len(untraced) != len(traced):
        out.append(f"traced run made {len(traced)} operations, untraced {len(untraced)}")
    diff = sum(a != b for a, b in zip(untraced, traced))
    if diff:
        out.append(f"{diff} traced outputs differ from the untraced run")
    if counted_queries != oracle_queries:
        out.append(f"wrappers counted {counted_queries} queries, oracles {oracle_queries}")
    return out


def parse_edge_list(path):
    """Vertex labels in first-seen order and the undirected edge set by label."""
    labels: dict[str, int] = {}
    pairs = set()
    with open(path) as fh:
        for line in fh:
            toks = line.split()
            if not toks or toks[0].startswith(("#", "%")):
                continue
            for tok in toks[:2]:
                labels.setdefault(tok, len(labels))
            if toks[0] != toks[1]:
                pairs.add(frozenset(toks[:2]))
    return list(labels), pairs


def check_parse(path, labels, edges) -> list[str]:
    """The program's graph holds the file's vertices and edges."""
    ref_labels, ref_pairs = parse_edge_list(path)
    got = {frozenset((labels[u], labels[v])) for u, v in edges}
    out = []
    if list(labels) != ref_labels:
        out.append(f"{path}: vertex labels differ from the file")
    if got != ref_pairs or len(edges) != len(ref_pairs):
        out.append(f"{path}: edge set differs from the file")
    return out
