"""The package's public surface, and what the benchmark in perfbench/ reads of it.

perfbench/tracer.py wraps library functions by module and attribute name and
reads their bound arguments by name; perfbench/workloads.py calls the
package's entry points. Neither lives in the package, so a cut to the
library's surface could break `perfbench/run.py --trace 1` without failing
any other test. These tests load both files as they are.
"""

import importlib
import importlib.util
import inspect
import json
import sys
import time
from pathlib import Path

import zinbiel
import zinbiel.cli
from zinbiel import complexes
from zinbiel.linalg import EMPTY_ROW, Matrix

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AxiomReport", "BUILTIN_NAMES", "Bimodule", "CE_MAX_DEGREE", "ChainMapReport",
    "Cochain", "CohomologyDims", "DL_MAX_DEGREE", "FiniteAlgebra", "Matrix",
    "PsiNotInjectiveError", "TensorContext", "__version__", "builtin", "ce_delta",
    "ce_delta_matrix", "ce_space_dim", "check_axioms", "cohomology_dims", "dl_delta",
    "dl_delta_matrix", "dl_space_dim", "les_report", "load_algebra", "load_bimodule",
    "perturbed_b2", "psi_apply", "psi_matrix", "random_dl_cochain", "regular",
    "save_algebra", "save_bimodule", "tensor_lie", "tensor_module", "verify_chain_map",
]

# The argument names the tracer's counters and span names read, by target.
BOUND = {
    "ce_delta": {"f", "module"},
    "psi_apply": {"ctx", "f"},
    "_assemble": {"theory"},
    "Matrix.rank": {"self"},
    "Matrix.nullspace": {"self"},
    "Matrix.hstack": {"self", "other"},
    "Matrix.mul": {"self", "other"},
}


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_public_names_are_pinned():
    assert sorted(zinbiel.__all__) == PUBLIC
    assert all(hasattr(zinbiel, name) for name in PUBLIC)


def test_every_tracer_target_resolves_with_the_arguments_it_reads():
    targets = [attr for _, attr, _, _ in tracer.TARGETS]
    assert set(BOUND) <= set(targets)
    for modname, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        params = set(inspect.signature(owner).parameters)
        assert BOUND.get(attr, set()) <= params, (modname, attr, params)
    assert list(inspect.signature(complexes._assemble).parameters) == ["theory", "module", "degree"]


def test_what_the_workloads_and_counters_read_stays_reachable():
    for name in ("builtin", "regular", "TensorContext", "psi_matrix"):
        assert callable(getattr(zinbiel, name)), name
    assert callable(zinbiel.cli.main)
    B = zinbiel.builtin("B2")
    ctx = zinbiel.TensorContext(zinbiel.builtin("leibniz2"), B, zinbiel.regular(B))
    assert isinstance(ctx.bracket_bound, int) and ctx.lie.dim == 4
    m = Matrix.from_nonempty(3, 2, {1: {0: 1}})
    assert (m.nrows, m.ncols, m.num_nonzero) == (3, 2, 1)
    assert m.rows == [EMPTY_ROW, {0: 1}, EMPTY_ROW]


def test_a_traced_smoke_pass_meets_its_pins_and_fills_every_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t = tracer.Tracer()
    t.install()
    try:
        start = time.perf_counter()
        results = [op.run(zinbiel, 0) == op.pin for op in workloads.WORKLOADS["smoke"].ops]
        wall = time.perf_counter() - start
    finally:
        t.uninstall()
    assert all(results)
    layers = tracer.summarize(t.spans, wall)
    # run.py adds these two from the untraced passes.
    wanted = {m["name"] for m in spec["per_layer"]} - {"process.cpu_s", "trace.overhead_s"}
    assert wanted <= set(layers)


def test_every_benchmarked_operation_meets_its_pin():
    # One in-process run of each operation of the workloads BENCHMARK.json
    # times, so a change that would fail one of them fails here first.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for op in workloads.WORKLOADS[workload["name"]].ops:
            assert op.run(zinbiel, 0) == op.pin, op.name
