"""The two dual solvers: exact subspace steps on the square-loss dual and
Anderson-accelerated DCA for Moreau-envelope objectives.

On the square loss the dual's minimum over a subspace is the Rayleigh-Ritz
solution on it, so each step minimizes exactly over span[X, P, R] (current
Ritz vectors, previous step, residual): one product of G with at most s
columns, those of the residual, dominates an iteration.

Both solvers share one entry (``_solve``: checks, init, one reseed, report),
one evaluation of an iterate (``_evaluate``) and one stopping rule (``_stop``,
on the fixed-point residual of T(H) = prox_{Psi*}(grad pi(H))).
"""

import json
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

# grad_pi is not called here; perfbench's tracer wraps it under this module
from .dual_core import (check_components, check_floor, grad_pi, optimal_dual_cost,
                        sym_eig_small)
from .errors import KpcaError, SingularMatrixError
from .kernels import FLOAT32_MIN_DELTA, GramMatrix, gram_product, product_rounding
from .objectives import HUBER_KINDS, ObjectiveSpec, prox_psi_star, psi_star_value

# Differences of the DCA map kept for its Anderson step. Depth 5 took no fewer
# products with G on twelve robust-libsvm inputs (501 against 495).
ANDERSON_DEPTH = 3
REPORT_VERSION = "dckpca/3"


@dataclass
class SolveConfig:
    """Shared solver knobs. A solve stops at fixed-point residual r**2 <= tol,
    or at eta < tol given ``benchmark_eigs`` (exact top-s eigenvalues of G),
    see ``_stop``; at the latest after ``max_iters`` (>= 1) iterations."""

    tol: float = 1e-6
    max_iters: int = 1000
    seed: int = 0
    benchmark_eigs: object = None

    def __post_init__(self):
        if not self.tol > 0:
            raise KpcaError("tol must be positive")
        if self.max_iters < 1:
            raise KpcaError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise KpcaError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SolveReport:
    """What a solve did: ``iterations`` after the init (``cost_trace[0]``),
    ``products`` with G, Anderson candidates DCA ``rejected`` (0 for the
    subspace solver), and the ``tol`` that ``_stop`` compared against."""

    iterations: int
    cost_trace: list
    eta_trace: list | None
    wall_seconds: float
    termination: str
    products: int
    rejected: int
    tol: float
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
            "tol": self.tol,
        }
        if self.presolve is not None:
            out["presolve"] = self.presolve.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _sym(M):
    return 0.5 * (M + M.T)


class _Trace:
    """What ``_stop`` reads: the cost of every iterate (iterations =
    len(costs) - 1), the optimal cost ``d_opt`` in benchmark mode, and the
    run's tol and cap; and the loop's counts of products and rejections."""

    def __init__(self, tol, max_iters, d_opt):
        self.tol = tol
        self.max_iters = max_iters
        self.d_opt = d_opt
        self.costs = []
        self.products = 0
        self.rejected = 0

    def eta(self, cost):
        return abs(cost - self.d_opt) / abs(self.d_opt)


def _evaluate(G, H, hint, trace):
    """(GH, decomposition of H'GH, square-loss cost 0.5 ||H||^2 - Tr sqrt(H'GH))
    of an iterate: one product, counted in ``trace``, and ``check_floor`` at
    its rounding, which appends ``hint`` to a near-singular report."""
    GH = gram_product(G, H)
    trace.products += 1
    dec = sym_eig_small(_sym(H.T @ GH))
    check_floor(dec.lam, hint, product_rounding(G))
    return GH, dec, 0.5 * float(np.vdot(H, H)) - dec.trace_sqrt()


def _stop(trace, residual):
    """The one stopping rule of both solvers: the termination reason, or None.

    "tolerance": r**2 <= tol for the fixed-point residual r = ||H - T(H)|| /
    ||H|| of the current iterate H, so the H a solve returns is the one that
    met it; squared, since a DCA step from H lowers the cost by at least
    0.5 ||H - T(H)||^2, so tol stays a relative cost change. In benchmark mode
    eta < tol instead (the gap of the last cost), and a zero residual (no
    descent step) is "gradient". "max_iters": the iteration cap.
    """
    if trace.d_opt is None:
        if residual ** 2 <= trace.tol:
            return "tolerance"
    elif trace.eta(trace.costs[-1]) < trace.tol:
        return "tolerance"
    elif residual == 0.0:
        return "gradient"
    if len(trace.costs) - 1 >= trace.max_iters:
        return "max_iters"
    return None


def _solve(G, s, cfg, h0, loop):
    """Shared entry of both solvers: checks s, h0 and ``benchmark_eigs``,
    runs ``loop(G, H0, trace) -> (H, termination)`` and returns (H, report).

    H0 is ``h0`` when given (e.g. a warm start), else i.i.d. standard normal
    entries drawn from the config seed. A random-init solve that fails the
    floor check at any step is rerun once from seed + 1. The reseed fails
    too for indefinite G or a collapse the init does not decide (s above the
    rank, a prox that zeroes H). Each failure is prefixed by its init (h0,
    seed or reseed) and the iteration that failed (0 is the init).

    ``G`` is a GramMatrix, whose products run in its own precision
    (``gram_product``), or an array, taken as float64.
    """
    if not isinstance(G, GramMatrix):
        G = np.asarray(G, dtype=float)
    n = G.shape[0]
    check_components(s, n)
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
        if isinstance(G, GramMatrix) and G.entries.dtype == np.float32 \
                and cfg.tol < FLOAT32_MIN_DELTA:
            raise KpcaError(f"delta={cfg.tol:g} is below {FLOAT32_MIN_DELTA:g}, the floor of "
                            "eta on a float32 Gram: this delta needs a float64 Gram")

    def attempt(H, label):
        t0 = time.perf_counter()
        trace = _Trace(cfg.tol, cfg.max_iters, d_opt)
        try:
            H, termination = loop(G, H, trace)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{label}, iteration {len(trace.costs)}: {exc}") from exc
        etas = None if d_opt is None else [trace.eta(c) for c in trace.costs]
        return H, SolveReport(len(trace.costs) - 1, trace.costs, etas,
                              time.perf_counter() - t0, termination,
                              trace.products, trace.rejected, trace.tol)

    if h0 is not None:
        return attempt(h0, "h0")
    draw = lambda seed: np.random.default_rng(seed).standard_normal((n, s))
    try:
        return attempt(draw(cfg.seed), f"seed {cfg.seed}")
    except SingularMatrixError as first:
        try:
            return attempt(draw(cfg.seed + 1), f"reseed {cfg.seed + 1}")
        except SingularMatrixError as second:
            raise SingularMatrixError(f"{first}; {second}") from first


def lbfgs_solve(G, s: int, config: SolveConfig | None = None, h0=None):
    """Minimize the square-loss dual 0.5 Tr(H'H) - Tr sqrt(H'GH) by exact
    steps over subspaces (LOBPCG, Knyazev 2001, with the basis of Hetmaniuk &
    Lehoucq 2006). The name is historical: no L-BFGS runs.

    The dual's minimum over all H with columns in a subspace S is the
    Rayleigh-Ritz solution on S, H = X diag(theta)^(1/2) from the top-s Ritz
    pairs (theta, X). The first step takes S = span[H0, GH0]; each later one
    S = span[X, P, R], with P the previous step's component outside X and
    the residual R = GX - X diag(theta). GX and GP are combined from the
    products already taken, so each step applies G to R alone
    (``_ritz_step``): one product with at most s columns, plus G H0 at the
    init (iteration 0). Each basis contains the last X, so the cost
    -0.5 sum(theta) never rises. Each Ritz iterate, never the init, is tested
    by ``_stop`` on the residual ||grad|| / ||H|| = ||R diag(theta)^(-1/2)|| /
    sqrt(sum(theta)); every exit returns the Ritz form (H'GH = diag(theta^2),
    theta decreasing).

    H0 has i.i.d. standard normal entries drawn from the config seed (``h0``
    overrides, e.g. for warm starts). Returns (H, report).
    """
    return _solve(G, s, config or SolveConfig(), h0, _subspace_loop)


def _subspace_loop(G, H, trace):
    s = H.shape[1]
    GH, _, cost = _evaluate(G, H, _rank_hint(s), trace)
    trace.costs.append(cost)
    # span[H0, GH0] = span[X0, GX0] for H0 = X0 T, where G X0 = GH0 T^-1
    # takes no product. The first step keeps no P: the new X's part outside
    # the random X0 saved no steps when kept (247 against 243 steps over 30
    # float64 solves)
    X, T = np.linalg.qr(H)
    GX = np.linalg.solve(T.T, GH.T).T
    X, GX, theta, P = _ritz_step(G, [(X, GX)], GX, s, trace, keep_p=False)
    while True:
        trace.costs.append(-0.5 * float(np.sum(theta)))
        R = GX - X * theta
        residual = float(np.linalg.norm(R / np.sqrt(theta)) / np.sqrt(np.sum(theta)))
        termination = _stop(trace, residual)
        if termination is not None:
            return X * np.sqrt(theta), termination
        X, GX, theta, P = _ritz_step(G, [(X, GX), *P], R, s, trace)


def _ritz_step(G, basis, R, s, trace, keep_p=True):
    """Top-s Ritz pairs (theta, X) of G on span[basis, R]. ``basis`` holds
    pairs (V, GV) of orthonormal, mutually orthogonal blocks with their
    images: [(X, GX)] or [(X, GX), (P, GP)], X with s columns.

    R is orthonormalized against the basis (``_orthonormalize``) into Q, and
    G is applied to Q alone: one product of n x (at most s) columns, counted
    in ``trace``. Every other block is combined from the images the basis
    carries, block by block, with no n-row block stacked. Returns the new X
    and GX, theta (checked by ``check_floor`` as the spectrum theta^2 of
    H'GH) and, with ``keep_p``, [(P, GP)]: P is the new X's component outside
    the old X, orthonormalized against the new X in the coordinates of the
    basis, so it costs no product (else []).
    """
    Q = _orthonormalize(R, [V for V, _ in basis])
    basis = [*basis, (Q, gram_product(G, Q))]
    trace.products += 1
    M = np.block([[V.T @ GW for _, GW in basis] for V, _ in basis])
    w, W = np.linalg.eigh(_sym(M))
    top = np.argsort(-w, kind="stable")[:s]
    theta, W = w[top], W[:, top]
    check_floor(np.sign(theta) * theta ** 2, _rank_hint(s), product_rounding(G))
    if keep_p:
        Z = W.copy()
        Z[:s] = 0.0
        W = np.hstack([W, _orthonormalize(Z, [W])])
    XP = _combine([V for V, _ in basis], W)
    GXP = _combine([GV for _, GV in basis], W)
    P = [(XP[:, s:], GXP[:, s:])] if keep_p else []
    return XP[:, :s], GXP[:, :s], theta, P


def _combine(blocks, C):
    """[B_1 B_2 ...] C, summed block by block: the blocks are never stacked."""
    start = blocks[0].shape[1]
    out = blocks[0] @ C[:start]
    for B in blocks[1:]:
        out += B @ C[start:start + B.shape[1]]
        start += B.shape[1]
    return out


def _orthonormalize(block, bases):
    """An orthonormal basis of the block's span outside the orthonormal
    ``bases``. The columns are scaled to unit norm, orthogonalized against
    the bases (two block Gram-Schmidt passes) and orthonormalized by QR,
    dropping columns whose QR diagonal is at most 1e-12: the columns have
    unit norm, so that is 1e-12 of the most a column can keep, and a block
    inside the span of the bases loses every column. The QR amplifies what
    is left of the bases in a nearly dependent column, so all of this runs
    twice."""
    Q = block / np.maximum(np.linalg.norm(block, axis=0), np.finfo(float).tiny)
    for _ in range(2):
        for _ in range(2):
            for V in bases:
                Q -= V @ (V.T @ Q)
        Q, T = np.linalg.qr(Q)
        Q = Q[:, np.abs(np.diag(T)) > 1e-12]
    return Q


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
    the next iterate only if its cost is at most F(H) - 0.5 ||g||^2, the
    decrease a plain DCA step guarantees, and H_a'G H_a passes the floor
    check; otherwise the next iterate is T and the differences are dropped.
    The cost never increases. Every H the loop multiplies by G, init, plain
    step or candidate, is evaluated once (``_evaluate``). An accepted step
    costs one product with G and a rejected one two; the report counts both.

    A singular H'GH names the rank at the init; at a plain step kappa for
    Huber objectives, else the rank (or eps > 0). At a candidate it only
    rejects it. Benchmark mode takes only the square objective, whose dual gap
    eta is. Returns (H, report).
    """
    if not objective.resolved:
        raise KpcaError("resolve the kappa_max fraction before solving")
    if config and config.benchmark_eigs is not None and objective.kind != "square":
        raise KpcaError(f"benchmark mode runs the square objective only, got {objective.kind}")
    huber = objective.kind in HUBER_KINDS
    hint = _rank_hint(s)
    if huber:
        hint = (f"kappa={objective.kappa:g} is likely too small "
                "(the prox collapses iterates toward rank deficiency)")
    elif objective.eps:
        hint += f", or eps={objective.eps:g} is large enough to zero rows of H"

    def loop(G, H, trace):
        def at(H, hint):
            GH, dec, cost = _evaluate(G, H, hint, trace)
            return GH, dec, cost + psi_star_value(objective, H)

        GH, dec, cost = at(H, _rank_hint(s))
        dR, dT = deque(maxlen=ANDERSON_DEPTH), deque(maxlen=ANDERSON_DEPTH)
        last = None
        while True:
            trace.costs.append(cost)
            T = prox_psi_star(objective, GH @ dec.inv_sqrt())
            g = T - H
            g_sq = float(np.vdot(g, g))
            termination = _stop(trace, math.sqrt(g_sq) / float(np.linalg.norm(H)))
            if termination is not None:
                return H, termination
            if last is not None:
                dR.append(g - last[0])
                dT.append(T - last[1])
            last = (g, T) if len(trace.costs) > 1 else None
            if dR:
                H_a = _anderson_candidate(dR, dT, g, T)
                if huber:
                    H_a = prox_psi_star(objective, H_a)
                try:
                    GH_a, dec_a, cost_a = at(H_a, None)
                    accept = cost_a <= cost - 0.5 * g_sq
                except SingularMatrixError:
                    accept = False
                if accept:
                    H, GH, dec, cost = H_a, GH_a, dec_a, cost_a
                    continue
                trace.rejected += 1
                dR.clear()
                dT.clear()
                last = None
            H = T
            GH, dec, cost = at(H, hint)

    return _solve(G, s, config or SolveConfig(), h0, loop)


def _anderson_candidate(dR, dT, g, T):
    """T - sum_j gamma_j dT_j with gamma = argmin ||g - sum_j gamma_j dR_j||,
    solved on the normal equations: the differences are never stacked."""
    A = np.array([[np.vdot(a, b) for b in dR] for a in dR])
    gamma = np.linalg.lstsq(A, np.array([np.vdot(a, g) for a in dR]), rcond=None)[0]
    H = T.copy()
    for c, d in zip(gamma, dT):
        H -= c * d
    return H
