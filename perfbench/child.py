"""One timed step of the benchmark, in a fresh interpreter.

    python3 child.py setup RESULT.json CONFIG [TENSORS]
    python3 child.py op RESULT.json TRACE -- ARGV...

``setup`` times importing ``pnp_upscale``, ``load_config``,
``build_unit_cell`` and, when given, reading the tensors JSON, then runs the
speed probe (after, so that the probe's imports are not taken off the timed
import).  ``op`` runs the speed probe in a forked copy of itself, then
``cli.main(ARGV)`` timed, then the probe again once the peak RSS is read; with TRACE = 1 the layer spans are recorded and written to the result
with it.  Every timed step runs in its own
interpreter because the program keeps factorizations in module globals and
on its domain objects, which in-process repeats would reuse.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_setup(config: str, tensors: str | None) -> dict:
    t0 = time.perf_counter()
    import pnp_upscale
    t1 = time.perf_counter()
    cfg = pnp_upscale.load_config(config)
    t2 = time.perf_counter()
    pnp_upscale.build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)
    t3 = time.perf_counter()
    if tensors is not None:
        pnp_upscale.EffectiveTensors.from_json(Path(tensors).read_text())
    t4 = time.perf_counter()
    import speed

    return {"setup_s": t4 - t0, "import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2,
            "probe_s": speed.probe()}


def run_op(argv: list, trace: bool) -> dict:
    import speed
    from pnp_upscale import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe_before = speed.probe_apart()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak = _peak_rss_mb()
    probe_after = speed.probe()
    result = {"code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
              "probe_s": 0.5 * (probe_before + probe_after)}
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main(args: list) -> int:
    mode, out = args[0], Path(args[1])
    if mode == "setup":
        result = run_setup(args[2], args[3] if len(args) > 3 else None)
    elif mode == "op":
        trace = args[2] == "1"
        if args[3] != "--":
            raise SystemExit("usage: child.py op RESULT.json TRACE -- ARGV...")
        result = run_op(args[4:], trace)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
