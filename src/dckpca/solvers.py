"""The two dual solvers: exact subspace steps on the square-loss dual and
Anderson-accelerated DCA for Moreau-envelope objectives.

On the square loss the dual's minimum over a subspace is the Rayleigh-Ritz
solution on it, so each step minimizes exactly over span[X, R, P] (current
Ritz vectors, residual, previous step): one product of G with at most 2s
columns dominates an iteration.

Both solvers share one entry (``_solve``: checks, init, one reseed, report)
and one stopping rule (``_stop``, on the fixed-point residual of
T(H) = prox_{Psi*}(grad pi(H))); they return ``(H, report)``.
"""

import json
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dual_core import check_floor, grad_pi, optimal_dual_cost, sym_eig_small
from .errors import KpcaError, SingularMatrixError
from .kernels import GramMatrix, gram_product
from .objectives import HUBER_KINDS, ObjectiveSpec, prox_psi_star, psi_star_value

SUBSPACE_DEFAULT_MAX_ITERS = 500
DCA_DEFAULT_MAX_ITERS = 1000
# Differences of the DCA map kept for its Anderson step. Depth 5 took no fewer
# products with G on twelve robust-libsvm inputs (501 against 495).
ANDERSON_DEPTH = 3
REPORT_VERSION = "dckpca/2"


@dataclass
class SolveConfig:
    """Shared solver knobs. A solve stops at fixed-point residual r**2 <= tol,
    or at eta < tol given ``benchmark_eigs`` (exact top-s eigenvalues of G);
    see ``_stop``. ``max_iters`` of None picks the solver default (500 for
    the square-loss subspace solver, 1000 for DCA)."""

    tol: float = 1e-6
    max_iters: int | None = None
    seed: int = 0
    benchmark_eigs: object = None

    def __post_init__(self):
        if not self.tol > 0:
            raise KpcaError("tol must be positive")


@dataclass
class SolveReport:
    """What a solve did: ``products`` counts products with G, ``rejected`` the
    Anderson candidates DCA turned down (0 for the subspace solver)."""

    iterations: int
    cost_trace: list
    eta_trace: list | None
    wall_seconds: float
    termination: str
    products: int
    rejected: int
    presolve: "SolveReport | None" = None

    def to_dict(self) -> dict:
        """JSON-ready fields; an ``xmax`` pre-solve's report nests as "presolve"."""
        clean = lambda xs: [x if math.isfinite(x) else None for x in xs]
        out = {
            "spec_version": REPORT_VERSION,
            "iterations": self.iterations,
            "cost_trace": clean(self.cost_trace),
            "eta_trace": None if self.eta_trace is None else clean(self.eta_trace),
            "wall_seconds": self.wall_seconds,
            "termination": self.termination,
            "products": self.products,
            "rejected": self.rejected,
        }
        if self.presolve is not None:
            out["presolve"] = self.presolve.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _sym(M):
    return 0.5 * (M + M.T)


def _pi_from(dec):
    return float(np.sum(np.sqrt(np.maximum(dec.lam, 0.0))))


class _Trace:
    """What ``_stop`` reads: the cost of every iterate (iterations =
    len(costs) - 1), eta in benchmark mode, and the run's tol and cap; and
    the loop's counts of G-products and rejected Anderson candidates."""

    def __init__(self, tol, max_iters, d_opt):
        self.tol = tol
        self.max_iters = max_iters
        self.d_opt = d_opt
        self.costs = []
        self.etas = None if d_opt is None else []
        self.products = 0
        self.rejected = 0

    def record(self, cost, square_cost):
        self.costs.append(cost)
        if self.etas is not None:
            self.etas.append(abs(square_cost - self.d_opt) / abs(self.d_opt))

    def amend(self, cost):
        """Overwrite the last (square-loss) cost: no iteration is counted."""
        self.costs.pop()
        if self.etas is not None:
            self.etas.pop()
        self.record(cost, cost)


def _stop(trace, residual):
    """The one stopping rule of both solvers: the termination reason, or None.

    "tolerance": r**2 <= tol for the fixed-point residual r = ||H - T(H)|| /
    ||H|| of the current iterate H, so the H a solve returns is the one that
    met it; squared, since a DCA step from H lowers the cost by at least
    0.5 ||H - T(H)||^2, so tol stays a relative cost change. In benchmark mode
    eta < tol instead, and a zero residual (no descent step) is "gradient".
    "max_iters": the iteration cap.
    """
    if trace.etas is None:
        if residual ** 2 <= trace.tol:
            return "tolerance"
    elif trace.etas[-1] < trace.tol:
        return "tolerance"
    elif residual == 0.0:
        return "gradient"
    if len(trace.costs) - 1 >= trace.max_iters:
        return "max_iters"
    return None


def _solve(G, s, cfg, h0, default_max_iters, loop):
    """Shared entry of both solvers: checks s, h0 and ``benchmark_eigs``,
    runs ``loop(G, H0, trace) -> (H, termination)`` and returns (H, report).

    H0 is ``h0`` when given (e.g. a warm start), else i.i.d. standard normal
    entries drawn from the config seed. A random init that fails the floor
    check is redrawn once from seed + 1: for positive semidefinite G a
    singular H'GH at a Gaussian init is a measure-zero event. For indefinite
    G, H'GH can be indefinite on a set of positive measure; the reseed then
    fails too, and its error carries both inits' messages.

    ``G`` is a GramMatrix, whose products run in its own precision
    (``gram_product``), or an array, taken as float64.
    """
    if not isinstance(G, GramMatrix):
        G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if s < 1:
        raise KpcaError("s must be >= 1")
    if h0 is not None:
        h0 = np.array(h0, dtype=float)
        if h0.shape != (n, s):
            raise KpcaError(f"h0 must be an n x s = {n} x {s} matrix, got shape {h0.shape}")
        if not np.all(np.isfinite(h0)):
            raise KpcaError("h0 contains non-finite entries")
    d_opt = None
    if cfg.benchmark_eigs is not None:
        eigs = np.asarray(cfg.benchmark_eigs, dtype=float)
        if eigs.shape != (s,):
            raise KpcaError(f"benchmark_eigs must hold exactly s={s} values")
        d_opt = optimal_dual_cost(eigs)
        if d_opt == 0.0:
            raise KpcaError("degenerate Gram: optimal dual cost is zero")
    max_iters = cfg.max_iters if cfg.max_iters is not None else default_max_iters

    def attempt(H):
        t0 = time.perf_counter()
        trace = _Trace(cfg.tol, max_iters, d_opt)
        H, termination = loop(G, H, trace)
        return H, SolveReport(len(trace.costs) - 1, trace.costs, trace.etas,
                              time.perf_counter() - t0, termination,
                              trace.products, trace.rejected)

    if h0 is not None:
        return attempt(h0)
    draw = lambda seed: np.random.default_rng(seed).standard_normal((n, s))
    try:
        return attempt(draw(cfg.seed))
    except SingularMatrixError as first:
        try:
            return attempt(draw(cfg.seed + 1))
        except SingularMatrixError as second:
            raise SingularMatrixError(
                f"init from seed {cfg.seed}: {first}; "
                f"reseed {cfg.seed + 1}: {second}") from first


def lbfgs_solve(G, s: int, config: SolveConfig | None = None, h0=None):
    """Minimize the square-loss dual 0.5 Tr(H'H) - Tr sqrt(H'GH) by exact
    steps over subspaces (LOBPCG, Knyazev 2001, with the basis of Hetmaniuk &
    Lehoucq 2006). The name is historical: no L-BFGS runs.

    The dual's minimum over all H with columns in a subspace S is the
    Rayleigh-Ritz solution on S, H = X diag(theta)^(1/2) from the top-s Ritz
    pairs (theta, X). The first step takes S = span[H0, GH0]; each later one
    S = span[X, R, P], with the residual R = GX - X diag(theta) and P the
    previous step's component outside X. Each basis contains the last X, so
    the cost -0.5 sum(theta) never rises. Stops by ``_stop`` on the residual
    ||grad|| / ||H|| = ||R diag(theta)^(-1/2)|| / sqrt(sum(theta)); every exit
    returns the Ritz form (H'GH = diag(theta^2), theta decreasing).

    H0 has i.i.d. standard normal entries drawn from the config seed (``h0``
    overrides, e.g. for warm starts). Returns (H, report).
    """
    return _solve(G, s, config or SolveConfig(), h0, SUBSPACE_DEFAULT_MAX_ITERS,
                  _subspace_loop)


def _subspace_loop(G, H, trace):
    s = H.shape[1]
    GH = gram_product(G, H)
    trace.products += 1
    gpi, dec = grad_pi(G, H, gh=GH, singular_hint=_rank_hint(s))
    cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
    trace.record(cost, cost)
    termination = _stop(trace, float(np.linalg.norm(H - gpi) / np.linalg.norm(H)))
    X = GX = np.empty((H.shape[0], 0))
    X, GX, theta, P = _ritz_step(G, X, GX, np.hstack([H, GH]), s)
    trace.products += 1
    if termination is not None:
        # stopped at the init: return the Ritz form on span[H0, GH0] instead
        trace.amend(-0.5 * float(np.sum(theta)))
        return X * np.sqrt(theta), termination
    while True:
        cost = -0.5 * float(np.sum(theta))
        trace.record(cost, cost)
        R = GX - X * theta
        residual = float(np.linalg.norm(R / np.sqrt(theta)) / np.sqrt(np.sum(theta)))
        termination = _stop(trace, residual)
        if termination is not None:
            return X * np.sqrt(theta), termination
        X, GX, theta, P = _ritz_step(G, X, GX, np.hstack([R, P]), s)
        trace.products += 1


def _ritz_step(G, X, GX, block, s):
    """Top-s Ritz pairs (theta, X) of G on span[X, block], given X with
    orthonormal columns and GX = G X.

    The block's columns are scaled to unit norm, orthogonalized against X
    (two Gram-Schmidt passes) and orthonormalized by QR, dropping columns
    whose QR diagonal is below 1e-12 of the largest. Unit columns make the
    drop test scale-free, and the QR amplifies what is left of X in a nearly
    dependent column, so all of this runs twice. G is applied to the result,
    one product of n x (at most 2s) columns. Returns the new X, GX, theta
    (checked by ``check_floor`` as the spectrum theta^2 of H'GH) and P, the
    new X's component in the block.
    """
    Q = block / np.maximum(np.linalg.norm(block, axis=0), np.finfo(float).tiny)
    for _ in range(2):
        for _ in range(2):
            Q = Q - X @ (X.T @ Q)
        Q, T = np.linalg.qr(Q)
        d = np.abs(np.diag(T))
        Q = Q[:, d > 1e-12 * d.max(initial=0.0)]
    S, GS = np.hstack([X, Q]), np.hstack([GX, gram_product(G, Q)])
    w, W = np.linalg.eigh(_sym(S.T @ GS))
    top = np.argsort(-w, kind="stable")[:s]
    theta, W = w[top], W[:, top]
    check_floor(np.sign(theta) * theta ** 2)
    return S @ W, GS @ W, theta, Q @ W[X.shape[1]:]


def _rank_hint(s):
    return f"s={s} likely exceeds the numerical rank of G"


def dca_solve(G, s: int, objective: ObjectiveSpec, config: SolveConfig | None = None,
              h0=None):
    """Difference-of-convex iteration for Moreau-envelope objectives: drives
    the DCA map T(H) = prox_{Psi*}(grad pi(H)) to a fixed point by safeguarded
    type-II Anderson acceleration (Walker & Ni 2011; the cost safeguard after
    Zhang, O'Donoghue & Boyd 2020).

    At each iterate H the loop forms T = T(H) and g = T - H and stops by
    ``_stop`` on r = ||g|| / ||H||, so the returned H is itself within tol (at
    most 1000 iterations by default). Differences of successive g and of
    successive T (at most ANDERSON_DEPTH of each; the init never enters them)
    give the candidate H_a = T - dT gamma, gamma the least-squares solution of
    min ||g - dR gamma||. Huber candidates are projected onto the ball. H_a is
    the next iterate only if H_a'G H_a passes the floor check and its cost is
    at most F(H) - 0.5 ||g||^2, the decrease a plain DCA step guarantees;
    otherwise the next iterate is T and the differences are dropped. The cost
    never increases. An accepted step costs one product with G and a rejected
    one two; the report counts both.

    A singular H'GH names the rank at the init, and for Huber objectives kappa
    after it. Returns (H, report).
    """
    if not objective.resolved:
        raise KpcaError("resolve the kappa_max fraction before solving")
    huber = objective.kind in HUBER_KINDS
    hint = None
    if huber:
        hint = (f"kappa={objective.kappa:g} is likely too small "
                "(the prox collapses iterates toward rank deficiency)")

    def evaluate(H, GH):
        dec = sym_eig_small(_sym(H.T @ GH))
        square_cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
        return dec, square_cost, square_cost + psi_star_value(objective, H)

    def loop(G, H, trace):
        GH = gram_product(G, H)
        trace.products += 1
        dec, square_cost, cost = evaluate(H, GH)
        dR, dT = deque(maxlen=ANDERSON_DEPTH), deque(maxlen=ANDERSON_DEPTH)
        last = None
        while True:
            trace.record(cost, square_cost)
            init = len(trace.costs) == 1
            check_floor(dec.lam, singular_hint=_rank_hint(s) if init else hint)
            T = prox_psi_star(objective, GH @ dec.apply(lambda lam: 1.0 / np.sqrt(lam)))
            g = T - H
            g_sq = float(np.vdot(g, g))
            termination = _stop(trace, math.sqrt(g_sq) / float(np.linalg.norm(H)))
            if termination is not None:
                return H, termination
            if last is not None:
                dR.append(g - last[0])
                dT.append(T - last[1])
            last = None if init else (g, T)
            if dR:
                H_a = _anderson_candidate(dR, dT, g, T)
                if huber:
                    H_a = prox_psi_star(objective, H_a)
                GH_a = gram_product(G, H_a)
                trace.products += 1
                dec_a, square_a, cost_a = evaluate(H_a, GH_a)
                if _above_floor(dec_a.lam) and cost_a <= cost - 0.5 * g_sq:
                    H, GH, dec, square_cost, cost = H_a, GH_a, dec_a, square_a, cost_a
                    continue
                trace.rejected += 1
                dR.clear()
                dT.clear()
                last = None
            H, GH = T, gram_product(G, T)
            trace.products += 1
            dec, square_cost, cost = evaluate(H, GH)

    return _solve(G, s, config or SolveConfig(), h0, DCA_DEFAULT_MAX_ITERS, loop)


def _anderson_candidate(dR, dT, g, T):
    """T - sum_j gamma_j dT_j with gamma = argmin ||g - sum_j gamma_j dR_j||,
    solved on the normal equations: the differences are never stacked."""
    A = np.array([[np.vdot(a, b) for b in dR] for a in dR])
    gamma = np.linalg.lstsq(A, np.array([np.vdot(a, g) for a in dR]), rcond=None)[0]
    H = T.copy()
    for c, d in zip(gamma, dT):
        H -= c * d
    return H


def _above_floor(lam):
    try:
        check_floor(lam)
    except SingularMatrixError:
        return False
    return True
