"""Moreau-envelope objective catalog: Psi/Psi* pairs, ball projections, and
the proximal operators used by the DCA iteration H <- prox_{Psi*}(grad pi(H)).

Kinds
-----
square      plain variance objective, Psi* = 0, prox is the identity
huber_l1    Psi = kappa ||.||_1 (entrywise); prox projects onto the entrywise
            sup-norm ball of radius kappa (clip)
huber_row2  Psi = kappa * max_i ||h_i||_2; prox projects onto
            {H : sum_i ||h_i||_2 <= kappa} (l1-ball projection of row norms)
eps_linf    Psi = indicator of the entrywise sup-norm ball of radius eps;
            prox is coordinate-wise soft-thresholding at eps
eps_row2    Psi = indicator of the max-row-norm ball of radius eps; prox is
            row-wise block soft-thresholding at eps
"""

from dataclasses import dataclass

import numpy as np

from .errors import KpcaError

# The one name table: each kind's name in CLI strings and model files.
NAMES = {"square": "square", "huber_l1": "huber1", "huber_row2": "huber2",
         "eps_linf": "epsinf", "eps_row2": "eps2"}
KINDS = tuple(NAMES)
KIND_OF = {name: kind for kind, name in NAMES.items()}

HUBER_KINDS = ("huber_l1", "huber_row2")
EPS_KINDS = ("eps_linf", "eps_row2")

# Relative slack when evaluating the Huber indicator; DCA iterates are exact
# projections, so this only guards reporting against round-off.
BALL_FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective selector. ``kappa`` is required by Huber kinds, ``eps`` by the
    eps-insensitive kinds; ``kappa_frac`` marks an unresolved FRAC * kappa_max
    radius to be filled in after a square-loss pre-solve."""

    kind: str
    kappa: float | None = None
    eps: float | None = None
    kappa_frac: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise KpcaError(f"unknown objective kind {self.kind!r}")
        if self.kind in HUBER_KINDS:
            if self.eps is not None:
                raise KpcaError(f"{self.kind} takes kappa, not eps")
            if (self.kappa is None) == (self.kappa_frac is None):
                raise KpcaError(f"{self.kind} needs exactly one of kappa or kappa_frac")
            if self.kappa is not None and not 0 < self.kappa < np.inf:
                raise KpcaError(f"kappa must be positive and finite, got {self.kappa}")
            if self.kappa_frac is not None and not 0 < self.kappa_frac < np.inf:
                raise KpcaError(f"kappa_max fraction must be positive and finite, "
                                f"got {self.kappa_frac}")
        elif self.kind in EPS_KINDS:
            if self.kappa is not None or self.kappa_frac is not None:
                raise KpcaError(f"{self.kind} takes eps, not kappa")
            if self.eps is None or not 0 <= self.eps < np.inf:
                raise KpcaError(f"eps must be finite and >= 0, got {self.eps}")
        else:
            if any(p is not None for p in (self.kappa, self.eps, self.kappa_frac)):
                raise KpcaError("square objective takes no parameters")

    @property
    def resolved(self) -> bool:
        return self.kappa_frac is None

    def resolve(self, kappa_max_value: float) -> "ObjectiveSpec":
        """Concrete spec with kappa = kappa_frac * kappa_max_value."""
        if self.resolved:
            return self
        return ObjectiveSpec(self.kind, kappa=self.kappa_frac * kappa_max_value)


def parse_objective(text: str) -> ObjectiveSpec:
    """Parse CLI strings: square, huber1:K, huber2:K, epsinf:E, eps2:E.
    K admits the suffix form xmax:FRAC meaning FRAC * kappa_max."""
    parts = text.strip().split(":")
    kind = KIND_OF.get(parts[0])
    if kind is None:
        raise KpcaError(f"unknown objective {text!r}")
    if kind == "square":
        if len(parts) != 1:
            raise KpcaError(f"square takes no parameter: {text!r}")
        return ObjectiveSpec("square")
    try:
        if kind in HUBER_KINDS:
            if len(parts) == 3 and parts[1] == "xmax":
                return ObjectiveSpec(kind, kappa_frac=float(parts[2]))
            if len(parts) == 2:
                return ObjectiveSpec(kind, kappa=float(parts[1]))
        elif len(parts) == 2:
            return ObjectiveSpec(kind, eps=float(parts[1]))
    except ValueError:
        raise KpcaError(f"bad numeric parameter in {text!r}") from None
    raise KpcaError(f"malformed objective {text!r}")


def format_objective(spec: ObjectiveSpec) -> str:
    name = NAMES[spec.kind]
    if spec.kind == "square":
        return name
    if spec.kind in HUBER_KINDS:
        if spec.kappa_frac is not None:
            return f"{name}:xmax:{float(spec.kappa_frac)!r}"
        return f"{name}:{float(spec.kappa)!r}"
    return f"{name}:{float(spec.eps)!r}"


def row_norms(H: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", H, H))


def project_l1_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto {v : sum |v_i| <= r}, sort-based threshold.

    Identity when the input is already inside the ball; signs are preserved.
    """
    if not r > 0:
        raise KpcaError(f"l1-ball radius must be positive, got {r}")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u) - r
    k = np.arange(1, len(u) + 1)
    rho = np.max(np.nonzero(u * k > cum)[0])
    theta = cum[rho] / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _project_row_norm_l1(Y: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto {H : sum_i ||h_i||_2 <= radius}: project the row-norm
    vector onto the l1 ball and rescale rows (zero rows stay zero)."""
    r = row_norms(Y)
    if r.sum() <= radius:
        return Y.copy()
    r_proj = project_l1_ball(r, radius)
    scale = np.divide(r_proj, r, out=np.zeros_like(r), where=r > 0)
    return Y * scale[:, None]


def prox_psi_star(spec: ObjectiveSpec, Y: np.ndarray) -> np.ndarray:
    """Proximal operator of Psi* evaluated at Y (see module docstring).

    Huber kinds are projections onto the dual-norm ball of radius kappa; eps
    kinds follow the Moreau decomposition Y - Proj_{B_eps}(Y).
    """
    if not spec.resolved:
        raise KpcaError("objective still carries an unresolved kappa_max fraction")
    Y = np.asarray(Y, dtype=float)
    if spec.kind == "square":
        return Y.copy()
    if spec.kind == "huber_l1":
        return np.clip(Y, -spec.kappa, spec.kappa)
    if spec.kind == "huber_row2":
        return _project_row_norm_l1(Y, spec.kappa)
    if spec.kind == "eps_linf":
        return np.sign(Y) * np.maximum(np.abs(Y) - spec.eps, 0.0)
    # eps_row2: block soft-threshold h_i <- h_i * max(0, 1 - eps/||h_i||)
    r = row_norms(Y)
    scale = np.zeros_like(r)
    np.divide(r - spec.eps, r, out=scale, where=r > spec.eps)
    return Y * scale[:, None]


def _huber_gauge(kind: str, H: np.ndarray) -> float:
    """Dual-ball gauge: max |h_ij| (huber_l1) or sum_i ||h_i|| (huber_row2)."""
    if kind == "huber_l1":
        return float(np.max(np.abs(H))) if H.size else 0.0
    return float(row_norms(H).sum())


def psi_star_value(spec: ObjectiveSpec, H: np.ndarray) -> float:
    """Psi*(H): 0 for square; ball indicator for Huber kinds (with relative
    feasibility slack); eps times the dual norm for eps kinds."""
    if not spec.resolved:
        raise KpcaError("objective still carries an unresolved kappa_max fraction")
    if spec.kind == "square":
        return 0.0
    H = np.asarray(H, dtype=float)
    if spec.kind in HUBER_KINDS:
        inside = _huber_gauge(spec.kind, H) <= spec.kappa * (1.0 + BALL_FEASIBILITY_RTOL)
        return 0.0 if inside else np.inf
    if spec.kind == "eps_linf":
        return spec.eps * float(np.sum(np.abs(H)))
    return spec.eps * float(row_norms(H).sum())


def kappa_max(kind: str, H_sq: np.ndarray) -> float:
    """Dual-ball gauge of the square-loss solution: the smallest kappa at which
    the Huber constraint is inactive at that solution (so larger kappa makes
    the Huber problem collapse onto the square one)."""
    if kind not in HUBER_KINDS:
        raise KpcaError(f"kappa_max is defined for Huber kinds, not {kind!r}")
    gauge = _huber_gauge(kind, np.asarray(H_sq, dtype=float))
    if gauge == 0.0:
        raise KpcaError("kappa_max undefined for a zero square-loss solution")
    return gauge
