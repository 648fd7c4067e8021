"""Fixed-confidence subset-query bandit for densest subgraph discovery.

Arms are vertex subsets; pulling an arm observes a noisy sum of the weights
of its induced edges. A ridge least-squares estimate of the per-edge weight
vector is maintained incrementally (rank-1 Sherman-Morrison updates of the
inverse design matrix, matrix-determinant-lemma updates of the
log-determinant). Each round solves the densest-subgraph problem exactly
under the current estimate and tests an ellipsoidal stopping condition: stop
once the incumbent's pessimistic density beats every rival's optimistic
density up to the slack epsilon.

The confidence radius is

    C_t = R' * sqrt(log det A_t - m log(lambda) - 2 log(delta))
          + sqrt(lambda) * L,     R' = sqrt(max_a |F_a|) * R,

the self-normalised bound of Abbasi-Yadkori, Pal and Szepesvari (2011,
Thm 2): an arm's observation sums the N(0, R^2) noise of the |F_a| edges it
induces, so it is sqrt(|F_a|) * R-sub-Gaussian, and R' covers the largest
arm. The incumbent's pessimistic density is read from the unclipped ridge
estimate, the centre of the ellipsoid, and the rival-side spread is bounded
by the box maximum of ||x||_{A^-1} over x in [-1, 1]^m (computed exactly by
vertex enumeration for small m, and by the entrywise-absolute-sum relaxation
otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, edge_mask, induced_edges
from .oracle import _check_oracle_graph
from .solvers import _densest, second_best_density

_EXACT_QP_LIMIT = 22
_RANK_TOL = 1e-8
_REFRESH_EVERY = 256

STOP_MODES = ("conservative", "exact-second-best")


@dataclass(frozen=True)
class ArmFamily:
    """Queryable vertex subsets. An arm is a plain vertex set of the graph;
    a run reads the edges it induces from the graph with ``induced_edges``,
    which refuses an arm that is not a vertex set of the graph.
    ``generate_arm_family``'s arms have at least its ``k`` vertices and a
    nonempty induced edge set, and their edge indicators span R^m so the
    weight vector is identifiable.
    """

    arms: tuple[tuple[int, ...], ...]


def _arm_edges(G: Graph, family: ArmFamily) -> tuple[np.ndarray, ...]:
    """Each arm's induced edges as a read-only ascending ``np.intp`` array,
    the form the oracle checks fastest."""
    edges = tuple(np.array(induced_edges(G, arm), dtype=np.intp) for arm in family.arms)
    for idx in edges:
        idx.flags.writeable = False
    return edges


@dataclass(frozen=True)
class DsLinParams:
    """Hyperparameters: slack epsilon > 0, failure rate delta in (0, 1),
    ridge lambda > 0, per-edge noise scale R >= 0, and the weight-norm bound
    L >= 0 (None: ``default_weight_norm_bound``). Every value must be
    finite; a refusal names the field as its config key."""

    epsilon: float = 0.1
    delta: float = 0.1
    lam: float = 1.0
    R: float = 1.0
    L: float | None = None

    def __post_init__(self):
        named = {"epsilon": self.epsilon, "delta": self.delta, "lambda": self.lam, "R": self.R, "L": self.L}
        for name, x in named.items():
            if x is not None and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if not (self.lam > 0):
            raise ValueError("lambda must be positive")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if self.L is not None and self.L < 0:
            raise ValueError("L must be nonnegative")


@dataclass
class DesignState:
    """Mutable ridge-regression state shared by one run."""

    G: Graph
    params: DsLinParams
    L: float
    Rprime: float
    t: int
    A_inv: np.ndarray
    logdetA: float
    b: np.ndarray
    counts: np.ndarray
    chi: np.ndarray
    edges: tuple[np.ndarray, ...]  # each arm's ``_arm_edges`` array, chi's rows as the oracle is asked
    # update's m x m scratch for the Sherman-Morrison correction
    _outer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._outer = np.empty_like(self.A_inv)


@dataclass
class DsLinDiagnostics:
    iterations: int = 0
    flow_calls: int = 0  # max-flow runs of the per-round exact solves
    stopped: bool = False  # False: the run reached max_iters
    ct_trace: list[float] = field(default_factory=list)
    # lhs - rhs of each stop test; the run stops at the first entry >= 0
    margin_trace: list[float] = field(default_factory=list)
    incumbent_density_trace: list[float] = field(default_factory=list)
    est_err_trace: list[float] | None = None
    state: DesignState | None = None


def generate_arm_family(G: Graph, k: int, seed: int) -> ArmFamily:
    """Random rank-spanning family: sizes uniform on [k, n], members uniform,
    an arm kept only when it raises the span of the stacked indicators.
    Stops with exactly m arms; errors out after 1000 m + 10^4 attempts, and
    at once on a graph without edges.

    The accepted indicators are kept orthonormalised in the rows of one
    m x m array. A candidate is projected off them by classical Gram-Schmidt
    applied twice, which keeps the rows orthonormal to working precision,
    and kept when its residual norm exceeds the 1e-8 rank cut. A kept arm
    is stored as its ascending vertex tuple."""
    if not (2 < k <= G.n):
        raise ValueError(f"need 2 < k <= n, got k={k}, n={G.n}")
    if G.m == 0:
        raise ValueError("the graph has no edges, so no arm has an edge to observe")
    rng = np.random.default_rng(seed)
    max_attempts = 1000 * G.m + 10000
    Q = np.empty((G.m, G.m))
    arms: list[tuple[int, ...]] = []
    for _ in range(max_attempts):
        rank = len(arms)
        if rank == G.m:
            break
        size = int(rng.integers(k, G.n + 1))
        members = rng.choice(G.n, size=size, replace=False)
        es = np.flatnonzero(edge_mask(G, members))
        if not es.size:
            continue
        r = np.zeros(G.m)
        r[es] = 1.0
        B = Q[:rank]
        r -= B.T @ (B @ r)
        r -= B.T @ (B @ r)
        nrm = float(np.linalg.norm(r))
        if nrm <= _RANK_TOL:
            continue
        Q[rank] = r / nrm
        arms.append(tuple(sorted(members.tolist())))
    if len(arms) != G.m:
        raise ValueError(
            f"could not span all {G.m} edges with random size-[{k},{G.n}] arms "
            f"after {max_attempts} attempts"
        )
    return ArmFamily(arms=tuple(arms))


def default_weight_norm_bound(G: Graph) -> float:
    """Fallback L when no tighter bound is known: sqrt(m) * 100, where 100
    bounds every knockout weight."""
    return math.sqrt(G.m) * 100.0


def init_state(G: Graph, family: ArmFamily, params: DsLinParams) -> DesignState:
    m = G.m
    L = params.L if params.L is not None else default_weight_norm_bound(G)
    edges = _arm_edges(G, family)
    chi = np.zeros((len(edges), m))
    for arm, idx in enumerate(edges):
        chi[arm, idx] = 1.0
    return DesignState(
        G=G,
        params=params,
        L=float(L),
        Rprime=math.sqrt(max(idx.size for idx in edges)) * params.R,
        t=0,
        A_inv=np.eye(m) / params.lam,
        logdetA=m * math.log(params.lam),
        b=np.zeros(m),
        counts=np.zeros(len(family.arms), dtype=np.int64),
        chi=chi,
        edges=edges,
    )


def select_arm(state: DesignState) -> int:
    """The least-pulled arm, the lowest index among ties: uniform
    allocation, so after the m initialization pulls the arms take turns."""
    return int(state.counts.argmin())


def design_matrix(state: DesignState) -> np.ndarray:
    """The design matrix A = lambda I + chi^T diag(counts) chi, rebuilt
    from the pull counts; exact whenever lambda is an integer."""
    return state.params.lam * np.eye(state.G.m) + (state.chi.T * state.counts) @ state.chi


def update(state: DesignState, arm: int, reward: float) -> None:
    """Rank-1 update after observing ``reward`` on ``arm``.

    The log-determinant is advanced before the inverse (the determinant
    lemma needs the old inverse); the inverse then gets the Sherman-Morrison
    correction u u^T / (1 + s), formed in the state's scratch buffer. Every
    256 rounds both are re-derived densely from the rebuilt design matrix
    as a drift check.
    """
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    chi = state.chi[arm]
    u = state.A_inv @ chi
    s = float(chi @ u)
    state.logdetA += math.log1p(s)
    # u_j * u_i, bit for bit u_i * u_j; numpy runs this order faster
    outer = np.multiply(u, u[:, None], out=state._outer)
    outer /= 1.0 + s
    state.A_inv -= outer
    state.b += chi * reward
    state.counts[arm] += 1
    state.t += 1
    if state.t % _REFRESH_EVERY == 0:
        A = design_matrix(state)
        fresh = np.linalg.inv(A)
        if not np.allclose(state.A_inv @ A, np.eye(state.G.m), atol=1e-8):
            raise RuntimeError("incremental inverse drifted beyond 1e-8")
        state.A_inv = fresh
        sign, logdet = np.linalg.slogdet(A)
        if sign <= 0 or abs(logdet - state.logdetA) > 1e-6:
            raise RuntimeError("incremental log-determinant drifted beyond 1e-6")
        state.logdetA = logdet


def estimate(state: DesignState) -> np.ndarray:
    """Ridge estimate A^-1 b with negative entries clipped to zero."""
    theta = state.A_inv @ state.b
    return np.maximum(theta, 0.0, out=theta)


def confidence_radius(state: DesignState) -> float:
    m = state.G.m
    inner = state.logdetA - m * math.log(state.params.lam) - 2.0 * math.log(state.params.delta)
    if inner < -1e-9:
        raise RuntimeError("log det A fell below its lambda^m floor")
    return state.Rprime * math.sqrt(max(inner, 0.0)) + math.sqrt(state.params.lam) * state.L


def _box_qp_bound(Q: np.ndarray, exact_limit: int = _EXACT_QP_LIMIT) -> tuple[float, str]:
    m = Q.shape[0]
    if m <= exact_limit:
        best = 0.0
        total = 1 << (m - 1)
        chunk = 1 << 14
        for lo in range(0, total, chunk):
            ks = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
            X = np.ones((ks.size, m))
            for j in range(m - 1):
                X[:, j + 1] = np.where((ks >> np.uint64(j)) & np.uint64(1), 1.0, -1.0)
            vals = np.einsum("ij,jk,ik->i", X, Q, X)
            best = max(best, float(vals.max()))
        return math.sqrt(max(best, 0.0)), "exact"
    return math.sqrt(float(np.abs(Q).sum())), "relaxed"


def qp_upper_bound(A_inv: np.ndarray, exact_limit: int = _EXACT_QP_LIMIT) -> tuple[float, str]:
    """Upper bound on max ||x||_{A_inv} over the unit box [-1, 1]^m.

    Exact for m <= exact_limit: the quadratic form is convex, so the box
    maximum sits at a vertex, and x/-x coincide, leaving 2^(m-1) sign
    patterns to enumerate. Otherwise returns sqrt(sum |A_inv|), an upper
    bound since each q_ij x_i x_j <= |q_ij| on the box.
    """
    Q = np.asarray(A_inv, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("A_inv must be square")
    if not np.allclose(Q, Q.T, atol=1e-8):
        raise ValueError("A_inv must be symmetric")
    if float(np.linalg.eigvalsh(Q).min()) < -1e-8:
        raise ValueError("A_inv must be positive semidefinite")
    return _box_qp_bound(Q, exact_limit)


def check_stop(
    state: DesignState,
    C: float,
    size: int,
    chi_hat: np.ndarray,
    width: float,
    U: float,
    rival: float,
) -> float:
    """Margin lhs - rhs of the ellipsoidal stop test at radius ``C``; the
    run stops once it is >= 0.

    The lhs is the incumbent's pessimistic density: its edge indicator
    ``chi_hat`` read against the unclipped ridge estimate A^-1 b, the centre
    of the confidence ellipsoid, less C * width, over its ``size`` vertices.
    Clipping is not a contraction in the A-norm, so a density read from the
    clipped estimate is not covered by C. The rhs is ``rival`` + C * U / 2 -
    epsilon, where ``rival`` is the exact second-best density under the
    clipped estimate or, conservatively, the incumbent's own: the clipped
    estimate is entrywise at least A^-1 b, so f_theta(S) <= f_clip(S) <=
    f_clip(Shat) for every S.
    """
    lhs = (float(chi_hat @ (state.A_inv @ state.b)) - C * width) / size
    rhs = rival + C * U / 2.0 - state.params.epsilon
    return lhs - rhs


def run_dslin(
    G: Graph,
    family: ArmFamily,
    oracle,
    params: DsLinParams,
    max_iters: int,
    stop_mode: str = "conservative",
    w_true=None,
) -> tuple[tuple[int, ...], DsLinDiagnostics]:
    """Full fixed-confidence run: m initialization pulls (one per spanning
    arm, design and response both updated), then select/sample/estimate/solve
    rounds until the stopping test fires or ``max_iters`` total rounds pass.

    Each exact solve after the first starts from the previous incumbent,
    and its max flow from the previous solve's, which changes its cost, not
    its answer.

    Returns the final incumbent (exact densest set under the last estimate)
    and diagnostics with per-round traces.
    """
    if stop_mode not in STOP_MODES:
        raise ValueError(f"stop_mode must be one of {STOP_MODES}")
    _check_oracle_graph(G, oracle)
    m = G.m
    if max_iters < m:
        raise ValueError(f"max_iters={max_iters} is below the m={m} initialization rounds")
    state = init_state(G, family, params)
    diag = DsLinDiagnostics(est_err_trace=[] if w_true is not None else None, state=state)
    for arm in range(m):
        reward = oracle.sample_edges(state.edges[arm])
        update(state, arm, reward)

    incumbent: tuple[int, ...] | None = None
    while True:
        what = estimate(state)
        # the estimate moves little per round, so the last incumbent is
        # usually still optimal and one max-flow call confirms it
        res = _densest(G, what, incumbent)
        if res.subset != incumbent:
            incumbent = res.subset
            chi_hat = edge_mask(G, incumbent).astype(np.float64)
        diag.flow_calls += res.flow_calls
        C = confidence_radius(state)
        diag.ct_trace.append(C)
        diag.incumbent_density_trace.append(res.value)
        if w_true is not None:
            diag.est_err_trace.append(float(np.abs(w_true - what).sum()) / m)
        if state.t >= max_iters:
            break
        width = math.sqrt(max(float(chi_hat @ state.A_inv @ chi_hat), 0.0))
        U, _ = _box_qp_bound(state.A_inv)
        rival = res.value
        if stop_mode == "exact-second-best":
            rival = second_best_density(G, what, incumbent)
        margin = check_stop(state, C, len(incumbent), chi_hat, width, U, rival)
        diag.margin_trace.append(margin)
        if margin >= 0.0:
            diag.stopped = True
            break
        arm = select_arm(state)
        reward = oracle.sample_edges(state.edges[arm])
        update(state, arm, reward)

    diag.iterations = state.t
    return incumbent, diag
