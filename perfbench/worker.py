"""One fresh process: set up a workload, then run at most one pass of it.

    worker.py --workload W --seed N --pass none|untraced|traced [--smoke 0|1]

times the set-up (`import zinbiel, zinbiel.cli`, the workload's operands:
builtin, and regular for Zinbiel algebras, and one TensorContext per tensor
pair), then runs one pass unless --pass none, checks every answer, and prints
one JSON line: setup_s, peak_rss_mb and, with a pass, the pass and its spans.
`run.py` starts one of these per pass and reads the line.

A pass runs as a fresh CLI call would: in a process of its own, after the
package's lru_caches are cleared and garbage is collected. An untraced pass
runs under a SpeedProbe (speedprobe.py), which gives its time also in units
of a reference kernel; a traced one under a Tracer (tracer.py). --smoke 1
puts the `smoke` operations first, so every traced function is called.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback

from speedprobe import SpeedProbe
from tracer import Tracer, summarize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_zinbiel():
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import zinbiel
    import zinbiel.cli  # noqa: F401
    if not os.path.abspath(zinbiel.__file__).startswith(SRC + os.sep):
        raise ImportError(f"zinbiel was imported from {zinbiel.__file__}, not from {SRC}")
    return zinbiel


def setup(workload):
    """Import the package and build the workload's operands; (package, seconds)."""
    t0 = time.perf_counter()
    z = import_zinbiel()
    ops = {name: z.builtin(name) for name in workload.builtins}
    modules = {name: z.regular(alg) for name, alg in ops.items() if alg.kind == "zinbiel"}
    for g, b in workload.pairs:
        z.TensorContext(ops[g], ops[b], modules[b])
    return z, time.perf_counter() - t0


def _clear_caches(z) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "zinbiel" or name.startswith("zinbiel."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def run_pass(z, ops, seed, tracer=None) -> dict:
    """Run `ops` once, checking each answer; failures are counted, never retried.

    Without a tracer the pass runs under a SpeedProbe: `wall_s` and `cpu_s`
    leave out the probe's own time, and `wall_ref` is `wall_s` in units of
    the reference kernel's mean time during the pass.
    """
    results = []
    probe = SpeedProbe() if tracer is None else None
    with probe or contextlib.nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            try:
                observed = op.run(z, seed)
                ok = observed == op.pin
            except Exception:
                traceback.print_exc(file=sys.stderr)
                observed, ok = "exception", False
            if not ok:
                print(f"FAILED {op.name}: got {observed!r}, pinned {op.pin!r}", file=sys.stderr)
            results.append({"op": op.name, "ok": ok})
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    p = {"wall_s": wall, "cpu_s": cpu, "ops": results}
    if probe is not None:
        p["wall_s"] -= probe.overhead_s
        p["cpu_s"] -= probe.overhead_s
        p["kernel_s"] = probe.kernel_s()
        p["probe_samples"] = len(probe.samples)
        p["wall_ref"] = p["wall_s"] / p["kernel_s"]
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass", dest="kind", choices=("none", "untraced", "traced"), default="none")
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    z, setup_s = setup(WORKLOADS[args.workload])
    out = {"setup_s": setup_s}
    if args.kind != "none":
        ops = WORKLOADS[args.workload].ops
        if args.smoke and args.workload != "smoke":
            ops = WORKLOADS["smoke"].ops + ops
        _clear_caches(z)
        tracer = Tracer() if args.kind == "traced" else None
        if tracer is not None:
            tracer.install()
        try:
            p = run_pass(z, ops, args.seed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        p["traced"] = tracer is not None
        if tracer is not None:
            p["layers"] = summarize(tracer.spans, p["wall_s"])
            out["spans"] = tracer.spans
        out["pass"] = p
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
