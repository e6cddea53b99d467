"""Benchmark of the zinbiel toolkit: exact answers, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; the package is imported from the `src/` next to this
directory. The workloads are in `workloads.py` and BENCHMARK.json; why each
was chosen, and what was left out, is in this directory's README.md.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (every pass time, the tail percentile, failures by operation, and the
machine's load and steal time before and after). Both also go to
`.perfbench_out/` at the checkout root, with the spans of a traced run.

Every pass runs in a fresh process of its own (`worker.py`), one at a time,
until the next one would end after --seconds; with --trace 1 they alternate
untraced and traced. Each of those processes first times the set-up, and
`setup_s` is the median of those times, topped up to SETUP_RUNS samples with
processes that only set up. One unmeasured process before them leaves the
byte-code cache warm. `peak_rss_mb` is the median over the pass processes.

`wall_norm` is the median pass time in units of a reference kernel timed
during the pass (`speedprobe.py`), because on a shared host the raw pass time
swings by half from one minute to the next. The raw times are in the details.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 10
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s

from workloads import WORKLOADS


def machine_state() -> dict:
    """Load average, and steal jiffies summed over CPUs, from /proc (Linux only)."""
    state = {"time": time.time()}
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            state["loadavg"] = fh.read().split()[:3]
        with open("/proc/stat", encoding="ascii") as fh:
            cpu = fh.readline().split()
        state["steal_jiffies"] = int(cpu[8]) if len(cpu) > 8 else None
    except OSError:
        pass
    return state


def child(args, deadline) -> dict:
    """Run worker.py with `args` and return its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, timeout=deadline - time.monotonic(), text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples) -> dict:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    xs = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        value = xs[min(len(xs) - 1, int(p / 100 * len(xs)))]
        if sum(1 for x in xs if x > value) >= 10:
            best = {"percentile": p, "value": value}
    return {"tail": best, "samples": len(xs)}


def end_to_end(result, setup_samples, attempted, failed) -> dict:
    return {
        "wall_norm": median(p["wall_ref"] for p in result["passes"]),
        "setup_s": median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(result) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    first = traced[0]["layers"]
    out = {}
    for key in first:
        values = [p["layers"].get(key, 0) for p in traced]
        # Counts must repeat exactly across passes; times are medians.
        out[key] = median(values) if isinstance(first[key], float) else first[key]
    out["process.cpu_s"] = median(p["cpu_s"] for p in untraced)
    out["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                               - median(p["wall_s"] for p in untraced))
    return out


def counts_repeat(result) -> bool:
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    return all({k: v for k, v in t.items() if not isinstance(v, float)}
               == {k: v for k, v in traced[0].items() if not isinstance(v, float)}
               for t in traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zinbiel", "__init__.py")):
        print(f"error: no zinbiel package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    before = machine_state()
    deadline = time.monotonic() + DEADLINE_S

    worker = ["--workload", args.workload, "--seed", str(args.seed)]
    child(worker, deadline)  # unmeasured: leaves the byte-code cache warm
    passes, setup_samples, rss_mb, spans = [], [], [], []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        out = child(worker + ["--pass", "traced" if traced else "untraced",
                              "--smoke", str(args.trace)], deadline)
        out["pass"]["process_s"] = time.monotonic() - t0
        passes.append(out["pass"])
        setup_samples.append(out["setup_s"])
        rss_mb.append(out["peak_rss_mb"])
        if traced:
            spans.append(out["spans"])
        if args.trace and len({p["traced"] for p in passes}) < 2:
            continue
        if time.monotonic() - start + median(p["process_s"] for p in passes) > args.seconds:
            break
    while len(setup_samples) < SETUP_RUNS:
        setup_samples.append(child(worker, deadline)["setup_s"])
    after = machine_state()
    result = {"passes": passes, "peak_rss_mb": median(rss_mb)}
    if args.trace:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "passes": spans}, fh)

    ops = [o for p in result["passes"] for o in p["ops"]]
    failed = [o["op"] for o in ops if not o["ok"]]
    if args.trace:
        values, wanted = per_layer(result), spec["per_layer"]
    else:
        values = end_to_end(result, setup_samples, len(ops), len(failed))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine_before": before, "machine_after": after,
        "wall_s": {"median": median(p["wall_s"] for p in result["passes"]),
                   **tail_percentile([p["wall_s"] for p in result["passes"]])},
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "kernel_s", "wall_ref", "process_s",
                                      "traced") if k in p} for p in passes],
        "setup_samples_s": setup_samples,
        "failed_ops": sorted(set(failed)),
    }
    if args.trace:
        details["counts_repeat"] = counts_repeat(result)
        details["layers"] = values
    summary = {
        "correct": not failed and details.get("counts_repeat", True),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "summary": summary}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
