"""Fixed-budget densest-subgraph identification by successive vertex rejects.

The total query budget T is split across n-1 phases; phase t issues star
queries (all edges joining a vertex to the current survivors) to refresh
empirical weighted degrees, then evicts the vertex with the smallest
estimate. Observations are reused across phases. An eviction changes the
stars of the evicted vertex's surviving neighbors only: these discard their
history and take T_prime(t) fresh observations, while every other survivor
tops its history up with tau_t. Before phase 1 every star counts as
changed. The output is the surviving prefix with the best empirical quality.

Budget bookkeeping follows the harmonic schedule

    T_tilde(t) = ceil((T - overhead) / (H(n-1) * (n - t))),
    T_prime(t) = ceil(T_tilde(t) / (2 * (n - t + 1))),
    tau(t)     = T_prime(t) - T_prime(t-1),

with overhead = (n+1)(n+2)/2 and H the harmonic sum, which keeps the total
number of oracle calls at or below T on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, star_edges
from .oracle import SamplingOracle


@dataclass(frozen=True)
class BudgetSchedule:
    """Precomputed per-phase sampling quotas for a run of n-1 phases:
    ``T_prime[t-1]`` fresh observations for a changed star in phase t and
    ``tau[t-1]`` top-up observations for an unchanged one."""

    T_prime: tuple[int, ...]
    tau: tuple[int, ...]


@dataclass
class PeelingState:
    """Mutable survivor set plus per-vertex empirical degree estimates."""

    G: Graph
    oracle: SamplingOracle
    alive: np.ndarray
    est: np.ndarray
    counts: np.ndarray


@dataclass
class DssrDiagnostics:
    """One run's record. ``total_queries`` and the cumulative columns of
    ``phase_rows`` (queries and single-edge queries so far) count this run's
    queries only, even on an oracle that served earlier runs; the query-size
    histogram is the oracle's own."""

    removal_order: list[int] = field(default_factory=list)
    fhat_trace: list[float] = field(default_factory=list)
    phase_rows: list[tuple[int, int, float, int, int]] = field(default_factory=list)
    total_queries: int = 0


def build_schedule(T: int, n: int) -> BudgetSchedule:
    """Quotas for budget T on n vertices; rejects T at or below the overhead."""
    if n < 2:
        raise ValueError("need at least two vertices to run a peeling phase")
    overhead = (n + 1) * (n + 2) // 2
    if T <= overhead:
        raise ValueError(
            f"budget T={T} too small: the schedule needs T > {overhead} "
            f"(minimum feasible T is {overhead + 1})"
        )
    harmonic = sum(1.0 / i for i in range(1, n))
    spend = T - overhead
    T_prime: list[int] = []
    tau: list[int] = []
    prev = 0
    for t in range(1, n):
        tt = math.ceil(spend / (harmonic * (n - t)))
        tp = math.ceil(tt / (2 * (n - t + 1)))
        T_prime.append(tp)
        step = tp - prev
        if step < 0:
            raise AssertionError("per-phase quota decreased; schedule is inconsistent")
        tau.append(step)
        prev = tp
    return BudgetSchedule(T_prime=tuple(T_prime), tau=tuple(tau))


def _fresh_mean(oracle: SamplingOracle, star: list[int], k: int) -> float:
    obs = [oracle.sample_edges(star) for _ in range(k)]
    first = obs[0]
    if all(o == first for o in obs):
        # mean of identical values is that value; fsum(k*x)/k can be an
        # ulp off, which would perturb tie-breaks in the noise-free regime
        return first
    return math.fsum(obs) / k


def sample_phase_vertex(state: PeelingState, schedule: BudgetSchedule, t: int, v: int, changed: bool) -> None:
    """Refresh the degree estimate of surviving vertex v in phase t.

    ``changed`` says whether v's star changed since v was last sampled. A
    changed star drops its history and draws T_prime(t) fresh observations,
    an unchanged one draws tau_t; both merge into the carried estimate by
    count-weighted average. A vertex with no surviving neighbors gets an
    exact zero without queries. A call with nothing to draw returns before
    the star is built: a vertex left without neighbors was zeroed in the
    phase its last neighbor went.
    """
    if not state.alive[v]:
        raise ValueError(f"vertex {v} was already removed")
    k = schedule.T_prime[t - 1] if changed else schedule.tau[t - 1]
    if k == 0:
        return
    star = star_edges(state.G, state.alive, v)
    if not star:
        state.est[v] = 0.0
        state.counts[v] = 0
        return
    fresh = _fresh_mean(state.oracle, star, k)
    c = 0 if changed else int(state.counts[v])
    if c == 0 or fresh == state.est[v]:
        # exact: averaging equal values (or an empty history) must not
        # round, or noise-free ties would resolve against greedy peeling
        state.est[v] = fresh
    else:
        state.est[v] = (c * state.est[v] + k * fresh) / (c + k)
    state.counts[v] = c + k


def run_dssr(G: Graph, oracle: SamplingOracle, T: int) -> tuple[tuple[int, ...], DssrDiagnostics]:
    """Run the full budgeted peel; returns the best empirical prefix.

    Each phase samples every survivor in ascending order; a star counts as
    changed in phase 1 and when it neighbors the vertex just evicted, the
    rule by which ``solvers.peeling_trace`` re-sums stars. Ties: the
    eviction takes the smallest vertex index among the minimal estimates,
    and the returned prefix is the earliest (largest) one, so a noise-free
    run reproduces greedy peeling exactly.
    """
    schedule = build_schedule(T, G.n)
    state = PeelingState(
        G=G,
        oracle=oracle,
        alive=np.ones(G.n, dtype=bool),
        est=np.zeros(G.n),
        counts=np.zeros(G.n, dtype=np.int64),
    )
    diag = DssrDiagnostics()
    # the oracle's counters may carry earlier runs; report this run's share
    start_total = oracle.total_queries
    start_single = oracle.histogram.get(1, 0)
    best_f = -math.inf
    best_set: tuple[int, ...] = tuple(range(G.n))
    changed = set(range(G.n))
    for t in range(1, G.n):
        members = np.flatnonzero(state.alive)
        for v in members.tolist():
            sample_phase_vertex(state, schedule, t, v, v in changed)
        fhat = 0.5 * float(state.est[members].sum()) / members.size
        diag.fhat_trace.append(fhat)
        diag.phase_rows.append(
            (
                t,
                int(members.size),
                fhat,
                oracle.total_queries - start_total,
                oracle.histogram.get(1, 0) - start_single,
            )
        )
        if fhat > best_f:
            best_f = fhat
            best_set = tuple(int(x) for x in members)
        evict = int(members[np.argmin(state.est[members])])
        diag.removal_order.append(evict)
        state.alive[evict] = False
        changed = {u for u, _ in G.adjacency[evict] if state.alive[u]}
    used = oracle.total_queries - start_total
    if used > T:
        raise RuntimeError(f"budget violated: issued {used} queries with T={T}")
    diag.total_queries = used
    return best_set, diag
