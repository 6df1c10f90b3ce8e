import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dckpca import (KpcaError, ObjectiveSpec, format_objective, kappa_max,
                    parse_objective, project_l1_ball, prox_psi_star,
                    psi_star_value)
from dckpca.objectives import HUBER_KINDS, KINDS

from oracles import project_l1_kkt, prox_psi_independent

NON_SQUARE = (
    ("huber_l1", {"kappa": 0.8}),
    ("huber_row2", {"kappa": 2.5}),
    ("eps_linf", {"eps": 0.4}),
    ("eps_row2", {"eps": 0.9}),
)


def spec_of(kind, params):
    return ObjectiveSpec(kind, **params)


def test_parse_and_format():
    assert parse_objective("square").kind == "square"
    o = parse_objective("huber1:0.5")
    assert o.kind == "huber_l1" and o.kappa == 0.5
    o = parse_objective("huber2:xmax:0.8")
    assert o.kind == "huber_row2" and o.kappa_frac == 0.8 and not o.resolved
    assert o.resolve(10.0).kappa == pytest.approx(8.0)
    o = parse_objective("epsinf:0.25")
    assert o.kind == "eps_linf" and o.eps == 0.25
    o = parse_objective("eps2:0")
    assert o.kind == "eps_row2" and o.eps == 0.0
    for text in ("square:1", "huber1", "huber1:xmax", "eps2:x", "nope:1"):
        with pytest.raises(KpcaError):
            parse_objective(text)
    for o in ("square", "huber1:0.5", "huber2:xmax:0.8", "epsinf:0.25"):
        assert format_objective(parse_objective(o)) == o


def test_spec_validation():
    with pytest.raises(KpcaError):
        ObjectiveSpec("huber_l1")  # kappa missing
    with pytest.raises(KpcaError):
        ObjectiveSpec("huber_l1", kappa=1.0, kappa_frac=0.5)
    with pytest.raises(KpcaError):
        ObjectiveSpec("huber_l1", kappa=-1.0)
    with pytest.raises(KpcaError):
        ObjectiveSpec("eps_linf", eps=-0.1)
    with pytest.raises(KpcaError):
        ObjectiveSpec("eps_linf", kappa=1.0)
    with pytest.raises(KpcaError):
        ObjectiveSpec("square", eps=0.5)
    with pytest.raises(KpcaError, match="unknown objective kind 'nope'"):
        ObjectiveSpec("nope")
    with pytest.raises(KpcaError, match="huber_l1 takes kappa, not eps"):
        ObjectiveSpec("huber_l1", kappa=1.0, eps=0.1)
    # non-finite parameters, and the CLI strings that carry them
    for bad in (np.inf, np.nan):
        for kwargs in ({"kappa": bad}, {"kappa_frac": bad}):
            with pytest.raises(KpcaError, match="positive and finite"):
                ObjectiveSpec("huber_row2", **kwargs)
        with pytest.raises(KpcaError, match="finite and >= 0"):
            ObjectiveSpec("eps_row2", eps=bad)
    for text in ("eps2:nan", "huber1:inf", "huber2:xmax:inf"):
        with pytest.raises(KpcaError, match="finite"):
            parse_objective(text)


def test_prox_eps_linf_soft_threshold():
    Y = np.array([[2.0, -0.5], [0.3, -3.0]])
    out = prox_psi_star(ObjectiveSpec("eps_linf", eps=1.0), Y)
    assert np.array_equal(out, [[1.0, 0.0], [0.0, -2.0]])


def test_prox_huber_l1_clip():
    Y = np.array([[2.0, -0.5], [0.3, -3.0]])
    out = prox_psi_star(ObjectiveSpec("huber_l1", kappa=1.0), Y)
    assert np.array_equal(out, [[1.0, -0.5], [0.3, -1.0]])


def test_prox_huber_row2_row_norm_projection():
    Y = np.array([[3.0, 0.0], [0.0, 1.0]])  # row norms (3, 1)
    out = prox_psi_star(ObjectiveSpec("huber_row2", kappa=2.0), Y)
    norms = np.linalg.norm(out, axis=1)
    assert np.allclose(norms, [2.0, 0.0], atol=1e-12)
    # oracle route: project row norms with the KKT bisection
    oracle_norms = project_l1_kkt(np.array([3.0, 1.0]), 2.0)
    assert np.allclose(norms, oracle_norms, atol=1e-8)


def test_prox_eps_row2_inside_ball_maps_to_zero():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((6, 3))
    Y *= 0.5 / np.linalg.norm(Y, axis=1, keepdims=True)  # all row norms 0.5
    out = prox_psi_star(ObjectiveSpec("eps_row2", eps=5.0), Y)
    assert np.array_equal(out, np.zeros_like(Y))


def test_prox_square_is_identity():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((4, 2))
    assert np.array_equal(prox_psi_star(ObjectiveSpec("square"), Y), Y)


def test_eps_zero_reduces_to_identity():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((5, 3))
    for kind in ("eps_linf", "eps_row2"):
        assert np.array_equal(prox_psi_star(ObjectiveSpec(kind, eps=0.0), Y), Y)


def test_project_l1_ball_examples():
    assert np.allclose(project_l1_ball(np.array([3.0, 1.0]), 2.0), [2.0, 0.0])
    with pytest.raises(KpcaError, match="radius must be positive, got 0"):
        project_l1_ball(np.array([3.0, 1.0]), 0)
    v = np.array([0.5, 0.5])
    assert np.array_equal(project_l1_ball(v, 2.0), v)
    assert np.allclose(project_l1_ball(np.array([-3.0, 1.0]), 2.0), [-2.0, 0.0])


def test_project_l1_ball_against_kkt_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        v = rng.standard_normal(m) * rng.choice([0.1, 1.0, 10.0])
        r = float(rng.uniform(0.05, 3.0))
        assert np.allclose(project_l1_ball(v, r), project_l1_kkt(v, r), atol=1e-8)


def test_project_l1_ball_feasible_output():
    rng = np.random.default_rng(4)
    for _ in range(30):
        v = rng.standard_normal(12) * 5
        r = float(rng.uniform(0.1, 4.0))
        out = project_l1_ball(v, r)
        assert np.abs(out).sum() <= r + 1e-12


def test_moreau_decomposition_all_kinds():
    rng = np.random.default_rng(5)
    for kind, params in NON_SQUARE:
        spec = spec_of(kind, params)
        for _ in range(100):
            Y = rng.standard_normal((6, 3)) * rng.choice([0.3, 1.0, 3.0])
            via_star = prox_psi_star(spec, Y)
            via_psi = prox_psi_independent(kind, Y, **params)
            assert np.max(np.abs(via_psi + via_star - Y)) <= 1e-12


ENTRIES = st.floats(-50.0, 50.0, allow_subnormal=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), radius=st.floats(0.01, 10.0),
       Y=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                    elements=ENTRIES))
def test_prox_psi_star_satisfies_the_moreau_identity(kind, radius, Y):
    # prox_Psi(Y) + prox_Psi*(Y) = Y, prox_Psi from the oracle's own formulas
    params = {} if kind == "square" else \
        {"kappa" if kind in HUBER_KINDS else "eps": radius}
    via_star = prox_psi_star(ObjectiveSpec(kind, **params), Y)
    via_psi = prox_psi_independent(kind, Y, **params)
    scale = max(1.0, float(np.max(np.abs(Y))))
    assert np.max(np.abs(via_psi + via_star - Y)) <= 1e-12 * scale


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(v=hnp.arrays(np.float64, st.integers(1, 12), elements=ENTRIES),
       r=st.floats(0.01, 20.0))
def test_project_l1_ball_matches_the_kkt_oracle_and_stays_feasible(v, r):
    out = project_l1_ball(v, r)
    scale = max(1.0, float(np.max(np.abs(v))))
    assert np.max(np.abs(out - project_l1_kkt(v, r))) <= 1e-12 * scale
    assert np.abs(out).sum() <= r + 1e-12 * scale
    assert np.all(out * v >= 0.0)


def test_prox_nonexpansiveness():
    rng = np.random.default_rng(6)
    for kind, params in NON_SQUARE:
        spec = spec_of(kind, params)
        for _ in range(25):
            Y1 = rng.standard_normal((5, 2))
            Y2 = rng.standard_normal((5, 2))
            lhs = np.linalg.norm(prox_psi_star(spec, Y1) - prox_psi_star(spec, Y2))
            assert lhs <= np.linalg.norm(Y1 - Y2) + 1e-12


def test_projection_outputs_respect_balls_exactly():
    rng = np.random.default_rng(7)
    for _ in range(25):
        Y = rng.standard_normal((7, 3)) * 4
        out = prox_psi_star(ObjectiveSpec("huber_l1", kappa=0.7), Y)
        assert np.max(np.abs(out)) <= 0.7 + 1e-12
        out = prox_psi_star(ObjectiveSpec("huber_row2", kappa=1.3), Y)
        assert np.linalg.norm(out, axis=1).sum() <= 1.3 + 1e-12


def test_psi_star_value_cases():
    H = np.array([[0.9, -0.3], [0.2, 0.1]])
    assert psi_star_value(ObjectiveSpec("huber_l1", kappa=1.0), H) == 0.0
    assert psi_star_value(ObjectiveSpec("eps_linf", eps=2.0), np.array([[1.0, -1.0]])) == pytest.approx(4.0)
    H3 = np.array([[3.0, 0.0]])  # row norm sum 3 > kappa 1
    assert np.isinf(psi_star_value(ObjectiveSpec("huber_row2", kappa=1.0), H3))
    assert psi_star_value(ObjectiveSpec("eps_row2", eps=0.5), np.array([[3.0, 4.0]])) == pytest.approx(2.5)
    assert psi_star_value(ObjectiveSpec("square"), H) == 0.0


def test_psi_star_relative_feasibility_slack():
    kappa = 1.0
    H = np.array([[kappa * (1 + 1e-10)]])
    assert psi_star_value(ObjectiveSpec("huber_l1", kappa=kappa), H) == 0.0
    H = np.array([[kappa * (1 + 1e-8)]])
    assert np.isinf(psi_star_value(ObjectiveSpec("huber_l1", kappa=kappa), H))


def test_an_unresolved_xmax_radius_is_refused_until_resolved():
    spec = parse_objective("huber2:xmax:0.8")
    H = np.ones((3, 2))
    for call in (prox_psi_star, psi_star_value):
        with pytest.raises(KpcaError, match="unresolved kappa_max fraction"):
            call(spec, H)
    resolved = spec.resolve(2.0)
    assert resolved.resolve(5.0) is resolved  # a resolved spec keeps its kappa
    assert psi_star_value(resolved, H) == np.inf


def test_kappa_max_gauges():
    H = np.array([[2.0, 0.0], [-1.0, 3.0]])
    assert kappa_max("huber_l1", H) == 3.0
    assert kappa_max("huber_row2", H) == pytest.approx(2.0 + np.sqrt(10.0))
    with pytest.raises(KpcaError):
        kappa_max("huber_l1", np.zeros((2, 2)))
    with pytest.raises(KpcaError):
        kappa_max("eps_linf", H)


def test_kappa_above_max_makes_constraint_void():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((6, 2))
    for kind in ("huber_l1", "huber_row2"):
        km = kappa_max(kind, H)
        spec = ObjectiveSpec(kind, kappa=1.0000001 * km)
        assert np.array_equal(prox_psi_star(spec, H), H)
        assert psi_star_value(spec, H) == 0.0
