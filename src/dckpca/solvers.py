"""The two dual solvers: L-BFGS on the square-loss dual and DCA for
Moreau-envelope objectives.

The L-BFGS line search exploits the ray structure of the dual cost: with
GH and GD precomputed, (H + a D)' G (H + a D) is a quadratic in ``a`` built
from s x s blocks, so every Wolfe trial costs O(s^3) instead of O(n^2 s).
One n^2 s product per accepted step (GD) dominates an iteration.

Both solvers share one entry (``_solve``: checks, init, one reseed, report)
and one stopping rule (``_stop``, on the fixed-point residual of
T(H) = prox_{Psi*}(grad pi(H))); they return ``(H, report)``.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .baselines import h_from_pairs, rayleigh_ritz
from .dual_core import (_gram_entries, check_floor, grad_pi, optimal_dual_cost,
                        sym_eig_small)
from .errors import KpcaError, SingularMatrixError
from .objectives import HUBER_KINDS, ObjectiveSpec, prox_psi_star, psi_star_value

LBFGS_DEFAULT_MAX_ITERS = 500
DCA_DEFAULT_MAX_ITERS = 1000
REPORT_VERSION = "dckpca/1"
_GH_REFRESH_EVERY = 64
# L-BFGS history length and strong-Wolfe line-search constants.
_LBFGS_MEMORY = 10
_C1, _C2 = 1e-4, 0.9
_MAX_LINESEARCH_STEPS = 25
_INITIAL_STEP = 1.0


@dataclass
class SolveConfig:
    """Shared solver knobs. A solve stops at fixed-point residual r**2 <= tol,
    or at eta < tol given ``benchmark_eigs`` (exact top-s eigenvalues of G);
    see ``_stop``. ``max_iters`` of None picks the solver default (500 for
    L-BFGS, 1000 for DCA)."""

    tol: float = 1e-6
    max_iters: int | None = None
    seed: int = 0
    benchmark_eigs: object = None

    def __post_init__(self):
        if not self.tol > 0:
            raise KpcaError("tol must be positive")


@dataclass
class SolveReport:
    iterations: int
    cost_trace: list
    eta_trace: list | None
    wall_seconds: float
    termination: str
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
        }
        if self.presolve is not None:
            out["presolve"] = self.presolve.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _wolfe_scalar(phi, dphi, phi0, dphi0, c1, c2, alpha0, max_trials):
    """Strong-Wolfe step search (bracketing + zoom, Nocedal & Wright 3.5/3.6).

    Returns the accepted step, or None when no conforming step was found
    within ``max_trials`` trial points. Raises ValueError on ascent directions.
    """
    if not dphi0 < 0:
        raise ValueError(f"not a descent direction: directional derivative {dphi0:.3e}")
    trials = [0]

    def zoom(lo, hi, phi_lo, dphi_lo, phi_hi):
        while trials[0] < max_trials:
            # quadratic interpolation with bisection safeguard
            denom = phi_hi - phi_lo - dphi_lo * (hi - lo)
            a = lo - 0.5 * dphi_lo * (hi - lo) ** 2 / denom if denom != 0 else 0.5 * (lo + hi)
            width = abs(hi - lo)
            if not np.isfinite(a) or abs(a - lo) < 0.1 * width or abs(a - hi) < 0.1 * width:
                a = 0.5 * (lo + hi)
            phi_a = phi(a)
            trials[0] += 1
            if phi_a > phi0 + c1 * a * dphi0 or phi_a >= phi_lo:
                hi, phi_hi = a, phi_a
            else:
                dphi_a = dphi(a)
                if abs(dphi_a) <= -c2 * dphi0:
                    return a
                if dphi_a * (hi - lo) >= 0:
                    hi, phi_hi = lo, phi_lo
                lo, phi_lo, dphi_lo = a, phi_a, dphi_a
        return None

    prev_a, prev_phi, prev_dphi = 0.0, phi0, dphi0
    a = alpha0
    first = True
    while trials[0] < max_trials:
        phi_a = phi(a)
        trials[0] += 1
        if phi_a > phi0 + c1 * a * dphi0 or (not first and phi_a >= prev_phi):
            return zoom(prev_a, a, prev_phi, prev_dphi, phi_a)
        dphi_a = dphi(a)
        if abs(dphi_a) <= -c2 * dphi0:
            return a
        if dphi_a >= 0:
            return zoom(a, prev_a, phi_a, dphi_a, prev_phi)
        prev_a, prev_phi, prev_dphi = a, phi_a, dphi_a
        a *= 2.0
        first = False
    return None


def _sym(M):
    return 0.5 * (M + M.T)


def _pi_from(dec):
    return float(np.sum(np.sqrt(np.maximum(dec.lam, 0.0))))


class _Trace:
    """What ``_stop`` reads: the cost of every iterate (iterations =
    len(costs) - 1), eta in benchmark mode, and the run's tol and cap."""

    def __init__(self, tol, max_iters, d_opt):
        self.tol = tol
        self.max_iters = max_iters
        self.d_opt = d_opt
        self.costs = []
        self.etas = None if d_opt is None else []

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


def _stop(trace, residual=None, stalled=False):
    """The one stopping rule of both solvers: the termination reason, or None.

    "tolerance": r**2 <= tol for the residual r = ||H - T(H)|| / ||H|| (None
    while unknown); squared, since a DCA step lowers the cost by at least
    0.5 ||H - T(H)||^2, so tol stays a relative cost change. In benchmark mode
    eta < tol instead, and a zero residual (no descent step) is "gradient".
    "stalled": the line search found no strong-Wolfe step. "max_iters": the
    iteration cap.
    """
    if trace.etas is None:
        if residual is not None and residual ** 2 <= trace.tol:
            return "tolerance"
    elif trace.etas[-1] < trace.tol:
        return "tolerance"
    elif residual == 0.0:
        return "gradient"
    if stalled:
        return "stalled"
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
    """
    G = _gram_entries(G)
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
                              time.perf_counter() - t0, termination)

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
    """Minimize the square-loss dual 0.5 Tr(H'H) - Tr sqrt(H'GH) with two-loop
    L-BFGS directions and a strong Wolfe line search.

    H0 has i.i.d. standard normal entries drawn from the config seed (``h0``
    overrides, e.g. for warm starts). Stops by ``_stop`` on the residual
    ||grad|| / ||H|| (grad = H - T(H)), then returns the Rayleigh-Ritz
    solution on span[H, GH] (``_ritz_finish``). Returns (H, report).
    """
    return _solve(G, s, config or SolveConfig(), h0, LBFGS_DEFAULT_MAX_ITERS,
                  _lbfgs_loop)


def _lbfgs_loop(G, H, trace):
    GH = G @ H
    gpi, dec = grad_pi(G, H, gh=GH)
    cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
    grad = H - gpi
    trace.record(cost, cost)
    memory = []
    stalled = False

    while True:
        termination = _stop(trace, float(np.linalg.norm(grad) / np.linalg.norm(H)),
                             stalled)
        if termination is not None:
            return _ritz_finish(G, H, GH, trace), termination

        D = -_two_loop(grad, memory)
        dphi0 = float(np.vdot(grad, D))
        if dphi0 >= 0:
            # quasi-Newton model went bad; restart from steepest descent
            # (grad is nonzero here, or _stop would have ended the solve)
            memory.clear()
            D = -grad
            dphi0 = -float(np.vdot(grad, grad))

        # ray restriction: all Wolfe trials run on s x s blocks
        GD = G @ D
        A1 = _sym(H.T @ GH)
        A2 = H.T @ GD
        A4 = _sym(D.T @ GD)
        hh = float(np.vdot(H, H))
        hd = float(np.vdot(H, D))
        dd = float(np.vdot(D, D))

        def small(a):
            return _sym(A1 + a * (A2 + A2.T) + (a * a) * A4)

        def phi(a):
            lam = np.linalg.eigvalsh(small(a))
            return 0.5 * (hh + 2 * a * hd + a * a * dd) - float(
                np.sum(np.sqrt(np.maximum(lam, 0.0))))

        def dphi(a):
            dec_a = sym_eig_small(small(a))
            check_floor(dec_a)
            W = dec_a.apply(lambda lam: 1.0 / np.sqrt(lam))
            return (hd + a * dd) - float(np.sum((A2.T + a * A4) * W.T))

        alpha = _wolfe_scalar(phi, dphi, cost, dphi0, _C1, _C2, _INITIAL_STEP,
                              _MAX_LINESEARCH_STEPS)
        if alpha is None:
            stalled = True
            continue

        H_new = H + alpha * D
        GH_new = GH + alpha * GD
        if len(trace.costs) % _GH_REFRESH_EVERY == 0:
            GH_new = G @ H_new
        gpi, dec = grad_pi(G, H_new, gh=GH_new)
        cost_new = 0.5 * float(np.vdot(H_new, H_new)) - _pi_from(dec)
        grad_new = H_new - gpi

        s_vec = alpha * D
        y_vec = grad_new - grad
        sy = float(np.vdot(s_vec, y_vec))
        if sy > 1e-10 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            memory.append((s_vec, y_vec, 1.0 / sy))
            if len(memory) > _LBFGS_MEMORY:
                memory.pop(0)

        H, GH, cost, grad = H_new, GH_new, cost_new, grad_new
        trace.record(cost, cost)


def _ritz_finish(G, H, GH, trace):
    """H = V diag(theta)^(1/2) from the top-s Ritz pairs (theta, V) of G on
    span[H, GH] (one n x 2s product); its cost -0.5 sum(theta) ends the trace."""
    Q, _ = np.linalg.qr(np.hstack([H, GH]))
    pairs = rayleigh_ritz(G, Q, H.shape[1])
    trace.amend(-0.5 * float(np.sum(np.maximum(pairs.values, 0.0))))
    return h_from_pairs(pairs)


def _two_loop(grad, memory):
    """Two-loop recursion for the L-BFGS direction H_k * grad."""
    q = grad.copy()
    alphas = []
    for s_i, y_i, rho_i in reversed(memory):
        a = rho_i * float(np.vdot(s_i, q))
        alphas.append(a)
        q -= a * y_i
    if memory:
        s_i, y_i, _ = memory[-1]
        q *= float(np.vdot(s_i, y_i)) / float(np.vdot(y_i, y_i))
    for (s_i, y_i, rho_i), a in zip(memory, reversed(alphas)):
        b = rho_i * float(np.vdot(y_i, q))
        q += (a - b) * s_i
    return q


def dca_solve(G, s: int, objective: ObjectiveSpec, config: SolveConfig | None = None,
              h0=None):
    """Difference-of-convex iteration for Moreau-envelope objectives:
    Y = grad pi(H_t); H_{t+1} = prox_{Psi*}(Y).

    Stops by ``_stop`` on the step just taken, ||H_{t+1} - H_t|| / ||H_t||
    (at most 1000 iterations by default). The dual cost never increases.
    Returns (H, report).
    """
    if not objective.resolved:
        raise KpcaError("resolve the kappa_max fraction before solving")
    hint = None
    if objective.kind in HUBER_KINDS:
        hint = (f"kappa={objective.kappa:g} is likely too small "
                "(the prox collapses iterates toward rank deficiency)")

    def loop(G, H, trace):
        step = None
        while True:
            GH = G @ H
            dec = sym_eig_small(_sym(H.T @ GH))
            square_cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
            trace.record(square_cost + psi_star_value(objective, H), square_cost)
            termination = _stop(trace, step)
            if termination is not None:
                return H, termination
            check_floor(dec, singular_hint=hint)
            W = dec.apply(lambda lam: 1.0 / np.sqrt(lam))
            H, H_prev = prox_psi_star(objective, GH @ W), H
            step = float(np.linalg.norm(H - H_prev) / np.linalg.norm(H_prev))

    return _solve(G, s, config or SolveConfig(), h0, DCA_DEFAULT_MAX_ITERS, loop)
