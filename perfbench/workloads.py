"""The benchmark's workloads: the operations one pass runs, and their pinned answers.

Every operation goes through a public entry point, either the CLI in-process
(`zinbiel.cli.main([..., "--format", "json"])`) or the library, and returns a
dict of what it observed. The dict must equal the operation's pin exactly, or
the operation counts as failed. The pins were recorded at the commit that
introduced this benchmark; a change that alters an exit code, a byte of the
CLI's JSON or an exact value shows up as a failed operation.

Operations look up every zinbiel function through its module at call time, so
the tracer's wrappers (installed on module attributes) see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

SEED_PLACEHOLDER = 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[object, int], dict]  # (zinbiel package, seed) -> observed
    pin: dict


@dataclass(frozen=True)
class Workload:
    why: str
    ops: Tuple[Op, ...]
    builtins: Tuple[str, ...]  # operands built during set-up
    pairs: Tuple[Tuple[str, str], ...] = ()  # (leibniz, zinbiel): one TensorContext each


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(z, argv) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = z.cli.main(list(argv) + ["--format", "json"])
    return code, out.getvalue()


def chain_map_op(leibniz: str, zinbiel: str, degree: int, trials: int, pin: dict) -> Op:
    def run(z, seed):
        code, text = _cli(z, [
            "verify-chain-map", "--leibniz", f"builtin:{leibniz}",
            "--zinbiel", f"builtin:{zinbiel}", "--degree", str(degree),
            "--trials", str(trials), "--seed", str(seed),
        ])
        data = json.loads(text)
        # The payload echoes the seed; digest it with the seed written as a
        # placeholder so that one pin covers every seed.
        seed_line = f'"seed": {seed},'
        return {
            "exit": code,
            "sha256": _sha256(text.replace(seed_line, f'"seed": {SEED_PLACEHOLDER},', 1)),
            "seed_echoed": data["seed"] == seed and seed_line in text,
            "chain_map_holds": data["chain_map_holds"],
            "axioms_ok": {k: v["ok"] for k, v in sorted(data["axioms"].items())},
        }
    return Op(f"verify-chain-map {leibniz}⊗{zinbiel} degree {degree}", run, pin)


def les_op(leibniz: str, zinbiel: str, max_degree: int, pin: dict) -> Op:
    def run(z, seed):
        code, text = _cli(z, [
            "les", "--leibniz", f"builtin:{leibniz}", "--zinbiel", f"builtin:{zinbiel}",
            "--max-degree", str(max_degree),
        ])
        data = json.loads(text)
        return {
            "exit": code,
            "sha256": _sha256(text),
            "psi_ranks": data["precheck"]["psi_ranks"],
            "identity": [[r["identity_lhs"], r["identity_rhs"], r["identity_holds"]]
                         for r in data["rows"]],
        }
    return Op(f"les {leibniz}⊗{zinbiel} max-degree {max_degree}", run, pin)


def cohomology_op(algebra: str, degree: int, pin: dict) -> Op:
    def run(z, seed):
        code, text = _cli(z, [
            "cohomology", "--complex", "dl", "--algebra", f"builtin:{algebra}",
            "--regular", "--degree", str(degree),
        ])
        data = json.loads(text)
        return {
            "exit": code,
            "sha256": _sha256(text),
            "ZBH": [data["dim_Z"], data["dim_B"], data["dim_H"]],
        }
    return Op(f"cohomology dl regular({algebra}) degree {degree}", run, pin)


def psi_rank_op(leibniz: str, zinbiel: str, degrees: Tuple[int, ...], pin: dict) -> Op:
    """psi_matrix and its rank at each degree; the CLI has no subcommand for it."""
    def run(z, seed):
        B = z.builtin(zinbiel)
        ctx = z.TensorContext(z.builtin(leibniz), B, z.regular(B))
        shapes, ranks = [], []
        for k in degrees:
            m = z.psi_matrix(ctx, k)
            shapes.append([m.nrows, m.ncols])
            ranks.append(m.rank())
        return {"shapes": shapes, "ranks": ranks}
    return Op(f"psi rank {leibniz}⊗{zinbiel} degrees {list(degrees)}", run, pin)


_AXIOMS_OK = {"b_zinbiel": True, "g_leibniz": True, "tensor_lie": True,
              "tensor_lie_module": True}

WORKLOADS: Dict[str, Workload] = {
    "chain_map": Workload(
        why="applied psi and CE kernels plus axiom checks, no elimination: "
            "moves with support-driven ce_delta/dl_delta/psi_apply, not with linalg",
        ops=(
            chain_map_op("freeleibniz(2,3)", "B3", 3, 1, {
                "exit": 0,
                "sha256": "1f250da2d47145240a471aa0b141a8e21112baa74d48d05016ed5d612c448adc",
                "seed_echoed": True, "chain_map_holds": True, "axioms_ok": _AXIOMS_OK,
            }),
            chain_map_op("freeleibniz(2,3)", "polyzinbiel(2)", 3, 1, {
                "exit": 0,
                "sha256": "1f250da2d47145240a471aa0b141a8e21112baa74d48d05016ed5d612c448adc",
                "seed_echoed": True, "chain_map_holds": True, "axioms_ok": _AXIOMS_OK,
            }),
        ),
        builtins=("freeleibniz(2,3)", "B3", "polyzinbiel(2)"),
        pairs=(("freeleibniz(2,3)", "B3"), ("freeleibniz(2,3)", "polyzinbiel(2)")),
    ),
    "les": Workload(
        why="the same differentials assembled as matrices, then integer elimination "
            "(rank of hstack, nullspace, mul): moves with linalg and ce_delta_matrix",
        ops=(
            les_op("freeleibniz(2,4)", "B2", 1, {
                "exit": 0,
                "sha256": "7d5207c2db8c5a1bebd92ee9794011c320e9666b2c8d138bdd521c26c30c901d",
                "psi_ranks": {"1": 4, "2": 8}, "identity": [[1683, 1683, True]],
            }),
            les_op("freeleibniz(3,3)", "B2", 1, {
                "exit": 0,
                "sha256": "6e0b318a015dd8ddb9d30fe3b60303c4a4e4fe17982dfcd0a96cde838287b98c",
                "psi_ranks": {"1": 4, "2": 8}, "identity": [[3271, 3271, True]],
            }),
        ),
        builtins=("freeleibniz(2,4)", "freeleibniz(3,3)", "B2"),
        pairs=(("freeleibniz(2,4)", "B2"), ("freeleibniz(3,3)", "B2")),
    ),
    "psi_rank": Workload(
        why="psi_matrix assembly and rank at degrees 1-3 via the library; "
            "the 5.9M-row fl(3,3) matrix sets peak memory: moves with an orbit-based psi rank",
        ops=(
            psi_rank_op("freeleibniz(2,4)", "B2", (1, 2, 3), {
                "shapes": [[3600, 4], [106200, 8], [2053200, 16]], "ranks": [4, 8, 16],
            }),
            psi_rank_op("freeleibniz(3,3)", "B2", (1, 2, 3), {
                "shapes": [[6084, 4], [234234, 8], [5933928, 16]], "ranks": [4, 8, 16],
            }),
        ),
        builtins=("freeleibniz(2,4)", "freeleibniz(3,3)", "B2"),
        pairs=(("freeleibniz(2,4)", "B2"), ("freeleibniz(3,3)", "B2")),
    ),
    "dl_cohomology": Workload(
        why="DL-side elimination with fractional entries and no tensor_bridge code: "
            "the control that should not move when psi or CE kernels change",
        ops=(
            cohomology_op("polyzinbiel(3)", 4, {
                "exit": 0,
                "sha256": "3be24d68675c1c359a00864fc6fc92af4a52da4cb5f4ab155ed260b1a223f8f9",
                "ZBH": [205, 204, 1],
            }),
            cohomology_op("B3", 4, {
                "exit": 0,
                "sha256": "577f2dc202365447d14a83e4823a7380cbf8d1f94c00710c9a2eaec155b2416f",
                "ZBH": [65, 57, 8],
            }),
        ),
        builtins=("polyzinbiel(3)", "B3"),
    ),
}

# Every operation that assembles a matrix and eliminates: the les, psi_rank
# and dl_cohomology operations in one pass. BENCHMARK.json times this and
# chain_map; the three parts stay runnable on their own.
WORKLOADS["elimination"] = Workload(
    why="matrix assembly and exact elimination: the les, psi_rank and dl_cohomology "
        "operations; moves with linalg, ce/dl_delta_matrix and psi_matrix, not with "
        "the applied kernels",
    ops=WORKLOADS["les"].ops + WORKLOADS["psi_rank"].ops + WORKLOADS["dl_cohomology"].ops,
    builtins=tuple(dict.fromkeys(WORKLOADS["les"].builtins + WORKLOADS["psi_rank"].builtins
                                 + WORKLOADS["dl_cohomology"].builtins)),
    pairs=tuple(dict.fromkeys(WORKLOADS["les"].pairs + WORKLOADS["psi_rank"].pairs)),
)

WORKLOADS.update({
    # Not in BENCHMARK.json: a few milliseconds on leibniz2⊗B2 (and a small
    # les) that calls every traced function once. The self-test runs it, and
    # traced passes of the other workloads start with it so that every
    # per-layer figure is measured on every workload.
    "smoke": Workload(
        why="self-test and calibration: every traced function once, in milliseconds",
        ops=(
            chain_map_op("leibniz2", "B2", 2, 1, {
                "exit": 0,
                "sha256": "8907310c29f13fd75ad90a0e478067795ac67f82decdabb8f5dfd11ca887f258",
                "seed_echoed": True, "chain_map_holds": True, "axioms_ok": _AXIOMS_OK,
            }),
            les_op("freeleibniz(2,3)", "B2", 1, {
                "exit": 0,
                "sha256": "21ab62b9216a037c3fccddd1f95112c1324d6ed102ccb434af4c35edcab1072e",
                "psi_ranks": {"1": 4, "2": 8}, "identity": [[438, 438, True]],
            }),
            cohomology_op("B2", 2, {
                "exit": 0,
                "sha256": "8e69e63aa3c09ab6aeaa1a3ec87cb24b0a6ed35de052fe4b9f5e2b62f4ecfcb9",
                "ZBH": [3, 2, 1],
            }),
            psi_rank_op("leibniz2", "B2", (1, 2), {
                "shapes": [[16, 4], [24, 8]], "ranks": [4, 2],
            }),
        ),
        builtins=("leibniz2", "B2"),
        pairs=(("leibniz2", "B2"),),
    ),
})
