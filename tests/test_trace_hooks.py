"""The benchmark's per-layer trace wraps package functions by module
attribute; a renamed or moved function would silently drop out of it."""

import importlib
from collections import Counter

import pytest

from dckpca import KernelSpec, ObjectiveSpec, fit, gen_synth_gaussian, parse_objective
from dckpca.solvers import SolveConfig
from perfbench.tracer import WRAPPED, Tracer


@pytest.mark.parametrize("module, attr, span", WRAPPED, ids=[w[2] for w in WRAPPED])
def test_traced_attribute_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_fit_records_one_gram_and_one_centering_span():
    # a helper that fused the two calls would leave both layers' spans empty
    ds = gen_synth_gaussian(60, 3, 0)
    with Tracer().installed() as tracer:
        fit(ds, KernelSpec("gaussian", 1.5), ObjectiveSpec("square"), 2,
            SolveConfig(seed=0))
    counts = Counter(sp.name for sp in tracer.spans)
    assert counts["kernels.gram"] == 1
    assert counts["kernels.center_gram"] == 1


def test_dca_span_holds_its_report_and_its_inner_calls():
    # the DCA per-layer metrics read the solver span's report fields and the
    # spans of the functions the loop calls through the names solvers imports
    ds = gen_synth_gaussian(60, 3, 0)
    with Tracer().installed() as tracer:
        fit(ds, KernelSpec("gaussian", 1.5), parse_objective("huber2:xmax:0.8"), 2,
            SolveConfig(seed=0))
    dca, = [sp for sp in tracer.spans if sp.name == "solvers.dca_solve"]
    assert dca.info["iterations"] > 0 and dca.info["termination"] == "tolerance"
    children = Counter(sp.name for sp in tracer.spans if sp.parent == dca.index)
    assert children["dual_core.sym_eig_small"] > dca.info["iterations"]
    assert children["objectives.prox_psi_star"] >= dca.info["iterations"]
