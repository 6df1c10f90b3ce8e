"""The two dual solvers: L-BFGS on the square-loss dual and DCA for
Moreau-envelope objectives.

The L-BFGS line search exploits the ray structure of the dual cost: with
GH and GD precomputed, (H + a D)' G (H + a D) is a quadratic in ``a`` built
from s x s blocks, so every Wolfe trial costs O(s^3) instead of O(n^2 s).
One n^2 s product per accepted step (GD) dominates an iteration.

Both solvers share one entry (``_solve``: checks, init, one reseed, report)
and one stopping rule (``_stop``); they return ``(H, report)``.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

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
    """Shared solver knobs. ``benchmark_eigs`` (exact top-s eigenvalues of G)
    switches on residual-based stopping at eta < tol; production runs use the
    gradient/stall criteria instead (see ``_stop``). ``max_iters`` of None
    picks the solver default (500 for L-BFGS, 1000 for DCA)."""

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

    def to_dict(self) -> dict:
        clean = lambda xs: [x if math.isfinite(x) else None for x in xs]
        return {
            "spec_version": REPORT_VERSION,
            "iterations": self.iterations,
            "cost_trace": clean(self.cost_trace),
            "eta_trace": None if self.eta_trace is None else clean(self.eta_trace),
            "wall_seconds": self.wall_seconds,
            "termination": self.termination,
        }

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


def line_search_strong_wolfe(fg, x, direction, c1=_C1, c2=_C2,
                             max_steps=_MAX_LINESEARCH_STEPS,
                             initial_step=_INITIAL_STEP):
    """Step length along ``direction`` satisfying the strong Wolfe conditions.

    ``fg(x)`` returns (cost, gradient). Returns None when no conforming step
    exists within the trial budget (a stalled signal); raises ValueError for
    non-descent directions.
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    cache = {}

    def at(a):
        if a not in cache:
            f, g = fg(x + a * direction)
            cache[a] = (float(f), float(np.vdot(g, direction)))
        return cache[a]

    f0, d0 = at(0.0)
    return _wolfe_scalar(lambda a: at(a)[0], lambda a: at(a)[1], f0, d0,
                         c1, c2, initial_step, max_steps)


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


def _stop(trace, grad_rms=None, stalled=False):
    """The one stopping rule of both solvers: the termination reason, or None.

    "tolerance": eta < tol in benchmark mode; otherwise each of the last three
    cost changes, all between finite costs, is <= tol * max(1, |cost|).
    "gradient": gradient RMS <= tol (L-BFGS; in benchmark mode only a zero
    gradient, from which no descent step exists). "stalled": the line search
    found no strong-Wolfe step. "max_iters": the iteration cap.
    """
    costs = trace.costs
    bench = trace.etas is not None
    if bench and trace.etas[-1] < trace.tol:
        return "tolerance"
    if grad_rms is not None and grad_rms <= (0.0 if bench else trace.tol):
        return "gradient"
    if not bench:
        recent = costs[-4:]
        if len(recent) == 4 and all(math.isfinite(c) for c in recent):
            steps = [abs(b - a) for a, b in zip(recent, recent[1:])]
            if max(steps) <= trace.tol * max(1.0, abs(recent[-1])):
                return "tolerance"
    if stalled:
        return "stalled"
    if len(costs) - 1 >= trace.max_iters:
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
    overrides, e.g. for warm starts). Stops by ``_stop``: at eta < tol in
    benchmark mode, otherwise on gradient RMS <= tol or relative cost stall
    over 3 iterations. Returns (H, report).
    """
    return _solve(G, s, config or SolveConfig(), h0, LBFGS_DEFAULT_MAX_ITERS,
                  _lbfgs_loop)


def _lbfgs_loop(G, H, trace):
    n, s = H.shape
    GH = G @ H
    gpi, dec = grad_pi(G, H, gh=GH)
    cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
    grad = H - gpi
    trace.record(cost, cost)
    memory = []
    stalled = False

    while True:
        termination = _stop(trace, float(np.linalg.norm(grad)) / np.sqrt(n * s),
                             stalled)
        if termination is not None:
            return H, termination

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

    Stops by ``_stop``, like the L-BFGS solver: on a relative cost stall
    at tol over 3 iterations (at most 1000 by default), or at eta < tol in
    benchmark mode. The dual cost never increases. Returns (H, report).
    """
    if not objective.resolved:
        raise KpcaError("resolve the kappa_max fraction before solving")
    hint = None
    if objective.kind in HUBER_KINDS:
        hint = (f"kappa={objective.kappa:g} is likely too small "
                "(the prox collapses iterates toward rank deficiency)")

    def loop(G, H, trace):
        while True:
            GH = G @ H
            dec = sym_eig_small(_sym(H.T @ GH))
            square_cost = 0.5 * float(np.vdot(H, H)) - _pi_from(dec)
            trace.record(square_cost + psi_star_value(objective, H), square_cost)
            termination = _stop(trace)
            if termination is not None:
                return H, termination
            check_floor(dec, singular_hint=hint)
            H = prox_psi_star(objective, GH @ dec.apply(lambda lam: 1.0 / np.sqrt(lam)))

    return _solve(G, s, config or SolveConfig(), h0, DCA_DEFAULT_MAX_ITERS, loop)
