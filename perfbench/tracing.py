"""Spans around the program's public calls, recorded from outside the program.

``install`` replaces names where the pipeline looks them up: ``cli``,
``macropnp`` and ``microdns`` bind their collaborators at import, so the
wrappers go onto those modules' attributes, and the factorized solvers are
wrapped on their classes.  Spans stay in memory; the child process writes
them out once the command has returned.

``command_layer_metrics`` turns one command's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import logging
import re
import time

ITER_RECORD = re.compile(r"periodic elliptic solve: (\d+) iterations")


class Tracer:
    """Nested spans of one single-threaded command.

    Each span is [name, start, end, parent index or -1, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def enclosing(self, prefix: str):
        """Attrs of the innermost open span whose name starts with prefix."""
        for idx in reversed(self._stack):
            if self.spans[idx][0].startswith(prefix):
                return self.spans[idx][4]
        return None

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(self.spans[idx][4], args, kwargs, result)
            return result

        return traced


class _IterationHandler(logging.Handler):
    """Catches the corrector solver's iteration record and books the count on
    the enclosing xi3, eta or zeta3 span."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        match = ITER_RECORD.match(record.getMessage())
        attrs = self.tracer.enclosing("cellcorrect.")
        if match and attrs is not None:
            attrs["iters"] = attrs.get("iters", 0) + int(match.group(1))
            attrs["solves"] = attrs.get("solves", 0) + 1


def install(tracer: Tracer) -> None:
    """Wrap the pipeline's layer boundaries.  Call before ``cli.main``."""
    from pnp_upscale import _fv, cli, macropnp, microdns, upscale

    def patch(module, attr, name, on_result=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, on_result))

    def picard_from_step_info(attrs, args, kwargs, result):
        attrs["picard"] = result[1].picard_iters

    def picard_from_dict(attrs, args, kwargs, result):
        attrs["picard"] = result[1]["picard_iters"]

    def text_bytes(attrs, args, kwargs, result):
        attrs["bytes"] = len(args[1].encode())

    patch(cli, "load_config", "config.load")
    patch(cli, "build_unit_cell", "unitcell.build")
    patch(cli, "compute_effective_tensors", "upscale.compute")
    patch(upscale, "solve_potential_corrector", "cellcorrect.xi3")
    patch(upscale, "solve_density_corrector_shape", "cellcorrect.eta")
    patch(upscale, "solve_second_order_potential_corrector", "cellcorrect.zeta3")
    patch(cli, "run_macro", "macropnp.run")
    patch(macropnp, "step_macro_pnp", "macropnp.step", picard_from_step_info)
    patch(macropnp, "check_local_equilibrium", "macropnp.loceq")
    patch(macropnp, "free_energy", "macropnp.free_energy")
    for module in (macropnp, microdns):
        patch(module, "assemble_neumann_operator", "fv.assemble")
        patch(module, "assemble_diffusion_matrix", "fv.assemble")
    patch(cli, "assemble_micro_domain", "microdns.domain")
    patch(cli, "run_micro", "microdns.run")
    patch(microdns, "step_micro_pnp", "microdns.step", picard_from_dict)
    patch(cli, "reconstruct_two_scale", "microdns.reconstruct")
    patch(cli, "compare_fields", "microdns.compare")
    patch(cli, "format_field", "fieldio.format")
    patch(cli, "atomic_write_text", "fieldio.write", text_bytes)

    def lu_nnz(attrs, args, kwargs, result):
        # reading L and U builds sparse copies: keep it in a span of its own
        # so that it counts as tracing overhead, not as factorization time
        idx = tracer.begin("trace.nnz")
        try:
            lu = args[0].lu
            attrs["nnz"] = int(lu.L.nnz + lu.U.nnz)
        finally:
            tracer.end(idx)

    for cls, solve_name in ((_fv.PinnedNeumannSolver, "fv.poisson_solve"),
                            (_fv.FactorizedSolver, "fv.diffusion_solve")):
        cls.__init__ = tracer.wrap(cls.__init__, "fv.factor", lu_nnz)
        cls.solve = tracer.wrap(cls.solve, solve_name)

    log = logging.getLogger("pnp_upscale.cellcorrect")
    log.setLevel(logging.DEBUG)
    log.propagate = False
    log.addHandler(_IterationHandler(tracer))


# ---------------------------------------------------------------------------
# aggregation

#: every per-layer metric and its unit
LAYER_METRICS = {
    "config.load_s": "s",
    "unitcell.build_s": "s",
    "setup.import_s": "s",
    "cellcorrect.xi3_s": "s",
    "cellcorrect.eta_s": "s",
    "cellcorrect.zeta3_s": "s",
    "cellcorrect.xi3_iters": "count",
    "cellcorrect.eta_iters": "count",
    "cellcorrect.zeta3_iters": "count",
    "cellcorrect.solves": "count",
    "upscale.assembly_s": "s",
    "fv.assemble_s": "s",
    "fv.factor_s": "s",
    "fv.factor_count": "count",
    "fv.lu_nnz": "count",
    "fv.poisson_solve_s": "s",
    "fv.poisson_solves": "count",
    "fv.diffusion_solve_s": "s",
    "fv.diffusion_solves": "count",
    "macropnp.step_s": "s",
    "macropnp.step_self_s": "s",
    "macropnp.steps": "count",
    "macropnp.picard_iters": "count",
    "macropnp.loceq_s": "s",
    "macropnp.free_energy_s": "s",
    "microdns.domain_s": "s",
    "microdns.step_s": "s",
    "microdns.step_self_s": "s",
    "microdns.steps": "count",
    "microdns.picard_iters": "count",
    "microdns.reconstruct_s": "s",
    "microdns.compare_s": "s",
    "fieldio.format_s": "s",
    "fieldio.write_s": "s",
    "fieldio.bytes": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.toplevel_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
    "speed.probe_s": "s",
}


def command_layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer figures of one traced pipeline command."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    attr_sum: dict[tuple, int] = {}
    toplevel = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        count[name] = count.get(name, 0) + 1
        for key, value in attrs.items():
            attr_sum[name, key] = attr_sum.get((name, key), 0) + value
        if parent < 0:
            toplevel += dur

    def t(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    return {
        "cellcorrect.xi3_s": t("cellcorrect.xi3"),
        "cellcorrect.eta_s": t("cellcorrect.eta"),
        "cellcorrect.zeta3_s": t("cellcorrect.zeta3"),
        "cellcorrect.xi3_iters": a("cellcorrect.xi3", "iters"),
        "cellcorrect.eta_iters": a("cellcorrect.eta", "iters"),
        "cellcorrect.zeta3_iters": a("cellcorrect.zeta3", "iters"),
        "cellcorrect.solves": sum(a(f"cellcorrect.{p}", "solves") for p in ("xi3", "eta", "zeta3")),
        "upscale.assembly_s": self_time.get("upscale.compute", 0.0),
        "fv.assemble_s": t("fv.assemble"),
        "fv.factor_s": t("fv.factor"),
        "fv.factor_count": count.get("fv.factor", 0),
        "fv.lu_nnz": a("fv.factor", "nnz"),
        "fv.poisson_solve_s": t("fv.poisson_solve"),
        "fv.poisson_solves": count.get("fv.poisson_solve", 0),
        "fv.diffusion_solve_s": t("fv.diffusion_solve"),
        "fv.diffusion_solves": count.get("fv.diffusion_solve", 0),
        "macropnp.step_s": t("macropnp.step"),
        "macropnp.step_self_s": self_time.get("macropnp.step", 0.0),
        "macropnp.steps": count.get("macropnp.step", 0),
        "macropnp.picard_iters": a("macropnp.step", "picard"),
        "macropnp.loceq_s": t("macropnp.loceq"),
        "macropnp.free_energy_s": t("macropnp.free_energy"),
        "microdns.domain_s": t("microdns.domain"),
        "microdns.step_s": t("microdns.step"),
        "microdns.step_self_s": self_time.get("microdns.step", 0.0),
        "microdns.steps": count.get("microdns.step", 0),
        "microdns.picard_iters": a("microdns.step", "picard"),
        "microdns.reconstruct_s": t("microdns.reconstruct"),
        "microdns.compare_s": t("microdns.compare"),
        "fieldio.format_s": t("fieldio.format"),
        "fieldio.write_s": t("fieldio.write"),
        "fieldio.bytes": a("fieldio.write", "bytes"),
        "trace.wall_s": wall,
        "trace.toplevel_s": toplevel,
        "trace.remainder_s": wall - toplevel,
        "trace.spans": len(spans),
    }
