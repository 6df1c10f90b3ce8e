"""Spans recorded from outside the package.

``Tracer.installed()`` replaces public functions at their module attributes
with wrappers that record a span per call, and puts the originals back on
exit. Nothing under ``src/`` changes: the package looks these names up at
call time, so the wrappers see every call a fit or a projection makes.

Spans live in memory (``Tracer.spans``) until the run writes them out.
"""

import contextlib
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name). The span name's prefix is the layer.
# cli.main reaches data_io and model through module attributes, model.fit
# reaches kernels the same way and the solvers through the names it
# imported; the solver loops call grad_pi, sym_eig_small and prox_psi_star
# through the names solvers imported.
WRAPPED = (
    ("dckpca.cli", "main", "cli.main"),
    ("dckpca.data_io", "load_csv", "data_io.load_csv"),
    ("dckpca.data_io", "parse_libsvm", "data_io.parse_libsvm"),
    ("dckpca.kernels", "gram", "kernels.gram"),
    ("dckpca.kernels", "center_gram", "kernels.center_gram"),
    ("dckpca.kernels", "kernel_cross", "kernels.kernel_cross"),
    ("dckpca.kernels", "kernel_rows", "kernels.kernel_rows"),
    ("dckpca.model", "fit", "model.fit"),
    ("dckpca.model", "lbfgs_solve", "solvers.lbfgs_solve"),
    ("dckpca.model", "dca_solve", "solvers.dca_solve"),
    ("dckpca.model", "assemble_model", "model.assemble_model"),
    ("dckpca.model", "save_model", "model.save_model"),
    ("dckpca.model", "recover_primal_coefficients", "model.recover_primal_coefficients"),
    ("dckpca.model", "project", "model.project"),
    ("dckpca.solvers", "grad_pi", "dual_core.grad_pi"),
    ("dckpca.solvers", "sym_eig_small", "dual_core.sym_eig_small"),
    ("dckpca.solvers", "prox_psi_star", "objectives.prox_psi_star"),
)

# Their spans also keep the iteration count and termination from the report.
SOLVERS = ("solvers.lbfgs_solve", "solvers.dca_solve")


@dataclass
class Span:
    name: str
    index: int
    op: int
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_count = 0   # root spans so far; spans of one op share its id

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.op_count += 1
        idx = len(self.spans)
        sp = Span(name, idx, self.op_count, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def _wrapper(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if name in SOLVERS:
                    report = result[1]
                    sp.info.update(iterations=report.iterations,
                                   termination=report.termination)
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def by_op(self) -> dict[int, list[Span]]:
        out = {}
        for sp in self.spans:
            out.setdefault(sp.op, []).append(sp)
        return out

    def to_json(self) -> list[dict]:
        return [{"name": sp.name, "op": sp.op, "start": sp.start, "end": sp.end,
                 "parent": sp.parent, **sp.info} for sp in self.spans]


def self_times(spans: list[Span]) -> dict:
    """Per-layer self time over the spans of one op: each span's duration
    minus the time its direct children cover (calls are synchronous, so
    children never overlap)."""
    child_time = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
    out = {}
    for sp in spans:
        out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - child_time.get(sp.index, 0.0)
    return out
