"""Spans around zinbiel's public functions, recorded from outside the package.

`Tracer.install` replaces each target function by a wrapper, at module
attribute level: every zinbiel module that bound the function under some
name (for example `cli.catalog_builtin` or `tensor_bridge.check_axioms`)
gets the wrapper, and `Matrix` methods are replaced on the class. No file
under `src/` changes, and `uninstall` puts the originals back.

A span is (name, start, end, parent, op). Counts are computed after the call
from its arguments and result only, inside a child span named `trace.count`
of the caller, so counting shows up as tracing overhead and never as the
caller's self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _bits(rows) -> int:
    """Largest numerator or denominator bit length among sparse or dense rows."""
    best = 0
    for row in rows:
        for v in (row.values() if isinstance(row, dict) else row):
            if v:
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _table_nnz(table) -> int:
    return sum(len(v) for v in table.values())


def _count_tensor_lie(a, out):
    return {"tensor_bridge.structure_nnz": _table_nnz(out.products)}


def _count_tensor_module(a, out):
    return {"tensor_bridge.structure_nnz": _table_nnz(out.left) + _table_nnz(out.right)}


def _count_ce_delta(a, out):
    f, module = a["f"], a["module"]
    tuples = comb(module.algebra.dim, f.degree + 1)
    return {"complexes.ce_delta.tuples": tuples, "complexes.ce_delta.out_nnz": len(out.values)}


def _count_dl_delta(a, out):
    return {"complexes.dl_delta.out_nnz": len(out.values)}


def _count_psi_apply(a, out):
    ctx, f = a["ctx"], a["f"]
    # psi_apply returns at once past the bracket bound, scanning nothing.
    tuples = comb(ctx.lie.dim, f.degree) if f.degree <= ctx.bracket_bound else 0
    return {"tensor_bridge.psi_apply.tuples": tuples,
            "tensor_bridge.psi_apply.out_nnz": len(out.values)}


def _count_psi_matrix(a, out):
    return {"tensor_bridge.psi_matrix.rows": out.nrows,
            "tensor_bridge.psi_matrix.nnz": out.num_nonzero,
            "tensor_bridge.psi_matrix.nonempty_rows": sum(1 for r in out.rows if r)}


def _assemble_name(a) -> str:
    return f"complexes.{a['theory']}_delta_matrix"


def _count_assemble(a, out):
    name = _assemble_name(a)
    return {f"{name}.rows": out.nrows, f"{name}.nnz": out.num_nonzero}


def _count_rank(a, out):
    m = a["self"]
    return {"linalg.rank.rows_in": m.nrows, "linalg.rank.nnz_in": m.num_nonzero,
            "linalg.rank.rank": out, "linalg.max_entry_bits": _bits(m.rows)}


def _count_nullspace(a, out):
    return {"linalg.max_entry_bits": max(_bits(a["self"].rows), _bits(out))}


def _count_binary(a, out):
    return {"linalg.max_entry_bits": max(_bits(a["self"].rows), _bits(a["other"].rows),
                                         _bits(out.rows))}


# (module, attribute, span name or a function of the bound arguments, counter).
# `complexes._assemble` stands for dl_delta_matrix and ce_delta_matrix, which
# are one-line calls to it; cohomology_dims calls it directly.
TARGETS = (
    ("zinbiel.algebras", "check_axioms", "algebras.check_axioms", None),
    ("zinbiel.catalog", "builtin", "catalog.builtin", None),
    ("zinbiel.tensor_bridge", "tensor_lie", "tensor_bridge.tensor_lie", _count_tensor_lie),
    ("zinbiel.tensor_bridge", "tensor_module", "tensor_bridge.tensor_module",
     _count_tensor_module),
    ("zinbiel.tensor_bridge", "psi_apply", "tensor_bridge.psi_apply", _count_psi_apply),
    ("zinbiel.tensor_bridge", "psi_matrix", "tensor_bridge.psi_matrix", _count_psi_matrix),
    ("zinbiel.complexes", "ce_delta", "complexes.ce_delta", _count_ce_delta),
    ("zinbiel.complexes", "dl_delta", "complexes.dl_delta", _count_dl_delta),
    ("zinbiel.complexes", "random_dl_cochain", "complexes.random_dl_cochain", None),
    ("zinbiel.complexes", "_assemble", _assemble_name, _count_assemble),
    ("zinbiel.linalg", "Matrix.rank", "linalg.rank", _count_rank),
    ("zinbiel.linalg", "Matrix.nullspace", "linalg.nullspace", _count_nullspace),
    ("zinbiel.linalg", "Matrix.hstack", "linalg.hstack", _count_binary),
    ("zinbiel.linalg", "Matrix.mul", "linalg.mul", _count_binary),
    ("zinbiel.cli", "main", "cli.main", None),
)

COUNT_SPAN = "trace.count"

# Span fields, by position.
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name, count) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            span = self._open(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                c = self._open(COUNT_SPAN)
                try:
                    self.spans[span][COUNTS] = count(bound, result)
                finally:
                    self._close(c)
            return result
        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "zinbiel" or n.startswith("zinbiel.")]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                sites = [owner]
            else:
                sites = mods
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, count)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        self._patches.append((site, key, orig))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, orig in reversed(self._patches):
            setattr(site, key, orig)
        self._patches.clear()


def summarize(spans: List[list], wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass.

    `<name>.self_s` is the span's duration minus its children's, summed over
    calls; `<name>.s` is the inclusive time of outermost calls (builtin
    recurses for regular(...)); `<name>.calls` counts calls. Counts are summed,
    except `max_entry_bits`, which is a maximum. Raises if the self times
    plus the time outside every span do not add up to `wall`.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is not None:
            if not (spans[p][START] <= s[START] and s[END] <= spans[p][END]):
                raise RuntimeError(f"span {s[NAME]} is not nested in {spans[p][NAME]}")
            child[p] += dur[i]
    out: Dict[str, float] = defaultdict(int)
    calls: Counter = Counter()
    total_self = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s = dur[i] - child[i]
        total_self += self_s
        out[f"{name}.self_s"] += self_s
        calls[name] += 1
        p = s[PARENT]
        while p is not None and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p is None:
            out[f"{name}.s"] += dur[i]
        for key, value in (s[COUNTS] or {}).items():
            if key.endswith("max_entry_bits"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    for name, c in calls.items():
        out[f"{name}.calls"] = c
    unattributed = wall - sum(dur[i] for i, s in enumerate(spans) if s[PARENT] is None)
    if abs(total_self + unattributed - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError("self times plus unattributed time do not add up to the pass")
    out["trace.unattributed_s"] = unattributed
    for kind in ("complexes.ce_delta", "tensor_bridge.psi_apply"):
        tuples = out[f"{kind}.tuples"]
        out[f"{kind}.yield"] = out[f"{kind}.out_nnz"] / tuples if tuples else 0.0
    rows = out["tensor_bridge.psi_matrix.rows"]
    out["tensor_bridge.psi_matrix.nonempty_row_frac"] = (
        out["tensor_bridge.psi_matrix.nonempty_rows"] / rows if rows else 0.0)
    return dict(out)
