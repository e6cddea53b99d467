"""Command-line interface: exit codes, output wording, and file round-trips."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from zinbiel import FiniteAlgebra, perturbed_b2, save_algebra, save_bimodule, builtin, regular
from zinbiel.cli import build_parser, main

VERIFY_PASS = """\
chain map at degree 2: 10/10 exact
axiom g_leibniz: PASS
axiom b_zinbiel: PASS
axiom tensor_lie: PASS
axiom tensor_lie_module: PASS
"""

COHOMOLOGY_TEXT = """\
complex dl, degree 2, coefficient module dim 2
dim C^2 = 8
dim Z^2 = 3
dim B^2 = 2
dim H^2 = 1
"""

COHOMOLOGY_JSON = """\
{
  "dim_B": 2,
  "dim_H": 1,
  "dim_Z": 3
}
"""

LES_TABLE = """\
tensor algebra dim 12, module dim 12
embedding ranks by degree (all full): 1: 4, 2: 8
n  h_dl  h_dl_n+1  h_lie  dim_Q  h_Q  rank_n  rank_n+1  identity
1  2     1         112    140    111  2       1         FAILS (111 != 110)
"""

ZINBIEL_WITNESS = """\
  identity: (x . y) . z = x . (y . z) + x . (z . y)
  inputs: e1, e1, e2
  lhs: e1: 1
  rhs: 0
"""

VERIFY_FAIL = f"""\
chain map at degree 2: 10/10 exact
axiom g_leibniz: PASS
axiom b_zinbiel: FAIL
{ZINBIEL_WITNESS}axiom tensor_lie: PASS
axiom tensor_lie_module: PASS
"""

# perturbed_b2 as the Leibniz factor: the identity fails on every trial.
CHAIN_MAP_FAIL = """\
chain map at degree 2: 0/3 exact
axiom g_leibniz: FAIL
  identity: [x, [y, z]] = [[x, y], z] - [[x, z], y]
  inputs: e1, e1, e2
  lhs: 0
  rhs: e1: 1
axiom b_zinbiel: PASS
axiom tensor_lie: PASS
axiom tensor_lie_module: PASS
first equality failure:
  trial: 0
  arguments: e1⊗e1, e1⊗e2, e2⊗e1
  component: e1⊗e1
  lhs: 0
  rhs: -6
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if "--format" in argv and argv[argv.index("--format") + 1] == "json" and captured.out:
        # a JSON report is exactly one document, in the canonical form
        assert captured.out == json.dumps(json.loads(captured.out), indent=2,
                                          sort_keys=True) + "\n"
    return code, captured.out, captured.err


@pytest.fixture
def bad_zinbiel(tmp_path):
    path = tmp_path / "bad.json"
    save_algebra(perturbed_b2(), path)
    return str(path)


def test_check_builtin(capsys):
    assert run(capsys, ["check", "builtin:B2"]) == (0, "zinbiel: PASS\n", "")


def test_check_bimodule_reports_both_families(capsys):
    code, out, _ = run(capsys, ["check", "builtin:regular(B2)"])
    assert code == 0
    assert out.splitlines() == ["zinbiel: PASS", "zinbiel-bimodule: PASS"]


def test_check_failure_prints_witness(capsys, bad_zinbiel):
    code, out, _ = run(capsys, ["check", bad_zinbiel])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "zinbiel: FAIL"
    assert "  identity: (x . y) . z = x . (y . z) + x . (z . y)" in lines
    assert "  inputs: e1, e1, e2" in lines
    assert "  lhs: e1: 1" in lines and "  rhs: 0" in lines


def test_check_json_is_byte_stable(capsys):
    argv = ["check", "builtin:regular(B2)", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    data = json.loads(first)
    assert data["ok"] is True and data["kind"] == "zinbiel"
    assert [c["name"] for c in data["checks"]] == ["zinbiel", "zinbiel-bimodule"]
    assert first == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_cohomology_json_output(capsys):
    code, out, _ = run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
        "--regular", "--degree", "2", "--format", "json",
    ])
    assert (code, out) == (0, COHOMOLOGY_JSON)


# The bytes the benchmark's dl_cohomology operations pin (perfbench/workloads.py).
@pytest.mark.parametrize("algebra, zbh, digest", [
    ("polyzinbiel(3)", [205, 204, 1],
     "3be24d68675c1c359a00864fc6fc92af4a52da4cb5f4ab155ed260b1a223f8f9"),
    ("B3", [65, 57, 8], "577f2dc202365447d14a83e4823a7380cbf8d1f94c00710c9a2eaec155b2416f"),
])
def test_cohomology_json_bytes_are_pinned(capsys, algebra, zbh, digest):
    code, out, _ = run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", f"builtin:{algebra}",
        "--regular", "--degree", "4", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert [data["dim_Z"], data["dim_B"], data["dim_H"]] == zbh
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The bytes the benchmark's les and verify-chain-map operations pin
# (perfbench/workloads.py), with the values each one reads.
@pytest.mark.parametrize("g, b, psi_ranks, identity, digest", [
    ("freeleibniz(2,4)", "B2", {"1": 4, "2": 8}, [[1683, 1683, True]],
     "7d5207c2db8c5a1bebd92ee9794011c320e9666b2c8d138bdd521c26c30c901d"),
    ("freeleibniz(3,3)", "B2", {"1": 4, "2": 8}, [[3271, 3271, True]],
     "6e0b318a015dd8ddb9d30fe3b60303c4a4e4fe17982dfcd0a96cde838287b98c"),
    ("freeleibniz(2,3)", "B2", {"1": 4, "2": 8}, [[438, 438, True]],
     "21ab62b9216a037c3fccddd1f95112c1324d6ed102ccb434af4c35edcab1072e"),
])
def test_les_json_bytes_are_pinned(capsys, g, b, psi_ranks, identity, digest):
    code, out, _ = run(capsys, [
        "les", "--leibniz", f"builtin:{g}", "--zinbiel", f"builtin:{b}",
        "--max-degree", "1", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["precheck"]["psi_ranks"] == psi_ranks
    assert [[r["identity_lhs"], r["identity_rhs"], r["identity_holds"]]
            for r in data["rows"]] == identity
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_les_max_degree_two_json_bytes_are_pinned(capsys):
    # The cheapest input whose psi is injective through degree 3, so the
    # report has a degree-2 row; that row misses the identity by one.
    code, out, _ = run(capsys, [
        "les", "--leibniz", "builtin:freeleibniz(2,4)", "--zinbiel", "builtin:B2",
        "--max-degree", "2", "--format", "json",
    ])
    assert code == 1
    data = json.loads(out)
    assert data["precheck"]["psi_ranks"] == {"1": 4, "2": 8, "3": 16}
    assert [[r["identity_lhs"], r["identity_rhs"], r["identity_holds"]]
            for r in data["rows"]] == [[1683, 1683, True], [36581, 36580, False]]
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "62c587c7d5d693880aeb7a3f1be3c1af42ad8f83b0fa1ac38103cbcaae03b454")


@pytest.mark.parametrize("g, b, degree, digest", [
    ("freeleibniz(2,3)", "B3", 3,
     "1f250da2d47145240a471aa0b141a8e21112baa74d48d05016ed5d612c448adc"),
    ("freeleibniz(2,3)", "polyzinbiel(2)", 3,
     "1f250da2d47145240a471aa0b141a8e21112baa74d48d05016ed5d612c448adc"),
    ("leibniz2", "B2", 2, "8907310c29f13fd75ad90a0e478067795ac67f82decdabb8f5dfd11ca887f258"),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_chain_map_json_bytes_are_pinned(capsys, g, b, degree, digest, seed):
    # One trial; the payload echoes the seed, which the digest reads as 0.
    code, out, _ = run(capsys, [
        "verify-chain-map", "--leibniz", f"builtin:{g}", "--zinbiel", f"builtin:{b}",
        "--degree", str(degree), "--trials", "1", "--seed", str(seed), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == seed and data["chain_map_holds"] is True
    assert all(report["ok"] for report in data["axioms"].values())
    seed_line = f'"seed": {seed},'
    assert seed_line in out
    text = out.replace(seed_line, '"seed": 0,', 1)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# The files builtin and tensor-lie print for tables the package builds in
# ints, whose Fractions are made only when the file is written.
@pytest.mark.parametrize("argv, digest", [
    (["builtin", "freeleibniz(2,3)"],
     "99b6603c3083253f6a0c9826cb855450d6c830f7ae0a0bffabb3fef7615ae7f1"),
    (["tensor-lie", "--leibniz", "builtin:freeleibniz(2,2)", "--zinbiel", "builtin:polyzinbiel(2)"],
     "89fcfbef548b47780689a7298c7c51777a28f8638bbf3dfd6b4c7c8d61a47822"),
])
def test_built_table_file_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cohomology_text_output(capsys):
    assert run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
        "--regular", "--degree", "2",
    ]) == (0, COHOMOLOGY_TEXT, "")


def test_cohomology_with_module_file(capsys, tmp_path):
    path = tmp_path / "reg.json"
    save_bimodule(regular(builtin("B2")), path)
    code, out, _ = run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
        "--module", str(path), "--degree", "2", "--format", "json",
    ])
    assert (code, out) == (0, COHOMOLOGY_JSON)


def test_cohomology_module_must_match_algebra(capsys, tmp_path):
    path = tmp_path / "reg3.json"
    save_bimodule(regular(builtin("B3")), path)
    code, out, err = run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
        "--module", str(path), "--degree", "2",
    ])
    assert (code, out, err) == (2, "", "error: --module was built over a different algebra\n")


def test_cohomology_module_must_be_a_bimodule(capsys, tmp_path):
    path = str(tmp_path / "b2.json")
    save_algebra(builtin("B2"), path)
    for alg in (path, "builtin:B2"):
        assert run(capsys, [
            "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
            "--module", alg, "--degree", "2",
        ]) == (2, "", f"error: --module expects a bimodule, got an algebra ({alg})\n")


@pytest.mark.parametrize("argv, flag", [
    (["les", "--leibniz", "{mod}", "--zinbiel", "builtin:B2", "--max-degree", "1"],
     "--leibniz"),
    (["verify-chain-map", "--leibniz", "builtin:leibniz2", "--zinbiel", "{mod}",
      "--degree", "2"], "--zinbiel"),
    (["tensor-lie", "--leibniz", "builtin:leibniz2", "--zinbiel", "{mod}"], "--zinbiel"),
    (["cohomology", "--complex", "dl", "--algebra", "{mod}", "--regular", "--degree", "2"],
     "--algebra"),
], ids=["les", "verify-chain-map", "tensor-lie", "cohomology"])
@pytest.mark.parametrize("source", ["file", "builtin"])
def test_an_algebra_operand_rejects_a_bimodule(capsys, tmp_path, argv, flag, source):
    mod = "builtin:regular(B2)"
    if source == "file":
        mod = str(tmp_path / "reg.json")
        save_bimodule(regular(builtin("B2")), mod)
    argv = [a.format(mod=mod) for a in argv]
    assert run(capsys, argv) == (
        2, "", f"error: {flag} expects an algebra, got a bimodule ({mod})\n")


def test_cohomology_rejects_degree_over_the_cap(capsys):
    code, out, err = run(capsys, [
        "cohomology", "--complex", "dl", "--algebra", "builtin:B2",
        "--regular", "--degree", "9",
    ])
    assert (code, out, err) == (2, "", "error: dl degree 9 is over the cap 4\n")


LIE2_DL_GATE = """\
input axiom zinbiel: FAIL
  identity: (x . y) . z = x . (y . z) + x . (z . y)
  inputs: e1, e2, e2
  lhs: e1: 1
  rhs: 0
input axiom zinbiel-bimodule: FAIL
  identity: (m . y) . z = m . (y . z + z . y)
  inputs: e1, e2, e2
  lhs: e1: 1
  rhs: 0
"""

B2_CE_GATE = """\
input axiom lie: FAIL
  identity: [x, x] = 0
  inputs: e1
  lhs: e2: 1
  rhs: 0
"""


@pytest.mark.parametrize("complex_, algebra, degree, text, checks", [
    # lie2 is not Zinbiel: delta^2 != 0, and the parent printed dim H^3 = -2
    ("dl", "lie2", "3", LIE2_DL_GATE, [("zinbiel", False), ("zinbiel-bimodule", False)]),
    # B2 is not Lie ([e1, e1] = e2), though its left action satisfies lie-module
    ("ce", "B2", "1", B2_CE_GATE, [("lie", False), ("lie-module", True)]),
], ids=["lie2-dl", "B2-ce"])
def test_cohomology_gates_the_algebra_family(capsys, complex_, algebra, degree, text, checks):
    argv = ["cohomology", "--complex", complex_, "--algebra", f"builtin:{algebra}",
            "--regular", "--degree", degree]
    assert run(capsys, argv) == (1, text, "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert [(c["name"], c["ok"]) for c in data["checks"]] == checks
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_cohomology_rejects_both_coefficient_flags(capsys, tmp_path):
    path = tmp_path / "reg.json"
    save_bimodule(regular(builtin("B2")), path)
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--complex", "dl", "--algebra", "builtin:B2",
              "--regular", "--module", str(path), "--degree", "2"])
    assert exc.value.code == 2


def test_verify_chain_map_text(capsys):
    code, out, _ = run(capsys, [
        "verify-chain-map", "--leibniz", "builtin:leibniz2",
        "--zinbiel", "builtin:B2", "--degree", "2",
    ])
    assert (code, out) == (0, VERIFY_PASS)


def test_verify_chain_map_json(capsys):
    argv = [
        "verify-chain-map", "--leibniz", "builtin:freeleibniz(2,2)",
        "--zinbiel", "builtin:B2", "--degree", "1", "--trials", "4",
        "--seed", "7", "--format", "json",
    ]
    code, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert code == 0 and first == second
    data = json.loads(first)
    assert data["chain_map_holds"] is True and data["ok"] is True
    assert data["trials"] == 4 and data["seed"] == 7
    assert all(v["ok"] for v in data["axioms"].values())


def test_verify_chain_map_fails_on_broken_product(capsys, bad_zinbiel):
    assert run(capsys, [
        "verify-chain-map", "--leibniz", "builtin:leibniz2",
        "--zinbiel", bad_zinbiel, "--degree", "2",
    ]) == (1, VERIFY_FAIL, "")


def test_failing_chain_map_prints_its_first_difference(capsys, bad_zinbiel):
    assert run(capsys, [
        "verify-chain-map", "--leibniz", bad_zinbiel,
        "--zinbiel", "builtin:B2", "--degree", "2", "--trials", "3",
    ]) == (1, CHAIN_MAP_FAIL, "")


@pytest.mark.parametrize("argv", [
    ["les", "--max-degree", "1"],
    ["tensor-lie"],
    ["tensor-lie", "-o", "{unused}"],
], ids=["les", "tensor-lie", "tensor-lie-o"])
def test_input_gate_text_lists_only_the_failures(capsys, tmp_path, bad_zinbiel, argv):
    unused = tmp_path / "unused.json"
    argv = [a.format(unused=unused) for a in argv]
    assert run(capsys, argv + ["--leibniz", "builtin:leibniz2", "--zinbiel", bad_zinbiel]) == (
        1, f"input axiom zinbiel: FAIL\n{ZINBIEL_WITNESS}", "")
    assert not unused.exists()


def _witness(identity):
    return {"identity": identity, "inputs": ["e1", "e1", "e2"],
            "lhs": {"e1": "1"}, "rhs": {}}


ZINBIEL_FAIL = {"checked": "zinbiel", "ok": False,
                "witness": _witness("(x . y) . z = x . (y . z) + x . (z . y)")}
BIMODULE_FAIL = {"checked": "zinbiel-bimodule", "ok": False,
                 "witness": _witness("(m . y) . z = m . (y . z + z . y)")}


@pytest.mark.parametrize("argv, expected", [
    (["check", "{alg}"], {
        "checks": [{"name": "zinbiel", **ZINBIEL_FAIL}],
        "dim": 2, "kind": "zinbiel", "ok": False,
    }),
    (["check", "{mod}"], {
        "checks": [{"name": "zinbiel", **ZINBIEL_FAIL},
                   {"name": "zinbiel-bimodule", **BIMODULE_FAIL}],
        "dim": 2, "kind": "zinbiel", "module_dim": 2, "ok": False,
    }),
    (["verify-chain-map", "--leibniz", "builtin:leibniz2", "--zinbiel", "{alg}",
      "--degree", "2"], {
        "axioms": {
            "b_zinbiel": ZINBIEL_FAIL,
            "g_leibniz": {"checked": "leibniz", "ok": True, "witness": None},
            "tensor_lie": {"checked": "lie", "ok": True, "witness": None},
            "tensor_lie_module": {"checked": "lie-module", "ok": True, "witness": None},
        },
        "chain_map_holds": True, "degree": 2, "failed_trials": [], "ok": False,
        "seed": 0, "trials": 10, "witness": None,
    }),
    (["verify-chain-map", "--leibniz", "{alg}", "--zinbiel", "builtin:B2",
      "--degree", "2", "--trials", "3"], {
        "axioms": {
            "b_zinbiel": {"checked": "zinbiel", "ok": True, "witness": None},
            "g_leibniz": {"checked": "leibniz", "ok": False, "witness": {
                "identity": "[x, [y, z]] = [[x, y], z] - [[x, z], y]",
                "inputs": ["e1", "e1", "e2"], "lhs": {}, "rhs": {"e1": "1"}}},
            "tensor_lie": {"checked": "lie", "ok": True, "witness": None},
            "tensor_lie_module": {"checked": "lie-module", "ok": True, "witness": None},
        },
        "chain_map_holds": False, "degree": 2, "failed_trials": [0, 1, 2], "ok": False,
        "seed": 0, "trials": 3, "witness": {
            "arguments": ["e1⊗e1", "e1⊗e2", "e2⊗e1"], "component": "e1⊗e1",
            "lhs": "0", "rhs": "-6", "trial": 0},
    }),
    (["les", "--leibniz", "builtin:leibniz2", "--zinbiel", "{alg}", "--max-degree", "1"], {
        "checks": [{"name": "leibniz", "checked": "leibniz", "ok": True, "witness": None},
                   {"name": "zinbiel", **ZINBIEL_FAIL}],
    }),
], ids=["check-algebra", "check-bimodule", "verify-chain-map", "verify-chain-map-fails",
        "les-input-gate"])
def test_failing_report_json_is_pinned(capsys, tmp_path, bad_zinbiel, argv, expected):
    mod = tmp_path / "bad_regular.json"
    save_bimodule(regular(perturbed_b2()), mod)
    argv = [a.format(alg=bad_zinbiel, mod=mod) for a in argv] + ["--format", "json"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == expected
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("degree, message", [
    ("-1", "dl cochains start at degree 1, got -1"),
    ("9", "dl degree 9 is over the cap 4"),
])
def test_verify_chain_map_rejects_degree_before_drawing(capsys, monkeypatch, degree, message):
    def no_draw(*args):
        raise AssertionError("a cochain was drawn before the degree check")

    monkeypatch.setattr("zinbiel.tensor_bridge.random_dl_cochain", no_draw)
    code, out, err = run(capsys, [
        "verify-chain-map", "--leibniz", "builtin:leibniz2",
        "--zinbiel", "builtin:B3", "--degree", degree,
    ])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_les_table_reports_the_failure(capsys):
    code, out, _ = run(capsys, [
        "les", "--leibniz", "builtin:freeleibniz(2,2)",
        "--zinbiel", "builtin:B2", "--max-degree", "1",
    ])
    assert (code, out) == (1, LES_TABLE)


def test_les_json(capsys):
    code, out, _ = run(capsys, [
        "les", "--leibniz", "builtin:freeleibniz(2,2)",
        "--zinbiel", "builtin:B2", "--max-degree", "1", "--format", "json",
    ])
    assert code == 1
    data = json.loads(out)
    row = data["rows"][0]
    assert row["h_quotient"] == 111 and row["identity_holds"] is False
    assert data["precheck"]["injective"] is True


def test_les_rejects_shallow_truncation(capsys):
    argv = ["les", "--leibniz", "builtin:freeleibniz(1,1)",
            "--zinbiel", "builtin:B2", "--max-degree", "1"]
    message = "embedding not injective at degree 2; LES hypothesis not met"
    assert run(capsys, argv) == (1, message + "\n", "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "error": message, "failures": [{"degree": 2, "expected": 8, "rank": 0}],
    }


def test_builtin_roundtrip(capsys, tmp_path):
    path = tmp_path / "b2.json"
    code, out, _ = run(capsys, ["builtin", "B2", "-o", str(path)])
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, ["check", str(path)])
    assert (code, out) == (0, "zinbiel: PASS\n")
    # stdout form emits the same bytes the file got
    _, streamed, _ = run(capsys, ["builtin", "B2"])
    assert streamed == path.read_text(encoding="utf-8")


def test_builtin_bimodule_roundtrip(capsys, tmp_path):
    path = tmp_path / "reg.json"
    assert run(capsys, ["builtin", "regular(B3)", "-o", str(path)])[0] == 0
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 0
    assert out.splitlines() == ["zinbiel: PASS", "zinbiel-bimodule: PASS"]


def test_tensor_lie_roundtrip(capsys, tmp_path):
    path = tmp_path / "lie.json"
    code, out, _ = run(capsys, [
        "tensor-lie", "--leibniz", "builtin:freeleibniz(2,2)",
        "--zinbiel", "builtin:B2", "-o", str(path),
    ])
    assert code == 0
    assert out == f"wrote lie algebra of dimension 12 to {path}\n"
    code, out, _ = run(capsys, ["check", str(path)])
    assert (code, out) == (0, "lie: PASS\n")
    # in JSON the report names the file, which holds the stdout form's bytes
    written = path.read_text(encoding="utf-8")
    path.unlink()
    code, out, err = run(capsys, [
        "tensor-lie", "--leibniz", "builtin:freeleibniz(2,2)",
        "--zinbiel", "builtin:B2", "-o", str(path), "--format", "json",
    ])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"dim": 12, "path": str(path)}
    _, streamed, _ = run(capsys, [
        "tensor-lie", "--leibniz", "builtin:freeleibniz(2,2)", "--zinbiel", "builtin:B2",
    ])
    assert streamed == written == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["builtin", "B2"],
    ["tensor-lie", "--leibniz", "builtin:leibniz2", "--zinbiel", "builtin:B2"],
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv, fmt):
    # 1 means a failed mathematical check, so a path that cannot be written exits 2
    for path, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code, out, err = run(capsys, argv + ["-o", str(path), "--format", fmt])
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")


@pytest.mark.parametrize("argv", [
    ["tensor-lie"], ["les", "--max-degree", "1"], ["verify-chain-map", "--degree", "1"],
])
def test_colliding_tensor_names_are_a_usage_error(capsys, tmp_path, argv):
    # "a" (x) "b⊗c" and "a⊗b" (x) "c" are both named "a⊗b⊗c".
    g, b = tmp_path / "g.json", tmp_path / "b.json"
    save_algebra(FiniteAlgebra("leibniz", 2, ("a", "a⊗b"), {(0, 0): {1: 1}}), g)
    save_algebra(FiniteAlgebra("zinbiel", 2, ("b⊗c", "c"), {(0, 0): {1: 1}}), b)
    code, out, err = run(capsys, argv + ["--leibniz", str(g), "--zinbiel", str(b)])
    assert (code, out, err) == (2, "", "error: algebra basis names must be 4 distinct strings\n")


def test_tensor_lie_stdout(capsys):
    code, out, _ = run(capsys, [
        "tensor-lie", "--leibniz", "builtin:leibniz2", "--zinbiel", "builtin:B2",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "lie" and data["dim"] == 4
    assert data["basis"][0] == "a⊗e1"


def test_dim_cap_flag(capsys):
    code, _, err = run(capsys, [
        "check", "builtin:freeleibniz(2,2)", "--dim-cap", "3",
    ])
    assert code == 2
    assert err == "error: truncated free algebra needs dimension 6, over the cap 3\n"


def test_polyzinbiel_cap_is_checked_before_the_table(capsys, monkeypatch):
    def no_table(d):
        raise AssertionError("the polyzinbiel table was built before the cap check")

    monkeypatch.setattr("zinbiel.catalog._polyzinbiel", no_table)
    assert run(capsys, ["builtin", "polyzinbiel(4800)", "--dim-cap", "3"]) == (
        2, "", "error: polyzinbiel(4800) has dimension 4801, over the cap 3\n")


@pytest.mark.parametrize("name, message", [
    # m^N alone is far over the cap: the count is not formed, nor printed.
    ("freeleibniz(2,200000)", "truncated free algebra needs dimension at least 2^200000"),
    ("freeleibniz(2,50000)", "truncated free algebra needs dimension at least 2^50000"),
    # One letter: the count is N, formed in closed form, not summed.
    ("freeleibniz(1,20000000)", "truncated free algebra needs dimension 20000000"),
    ("freeleibniz(2,60)", "truncated free algebra needs dimension 2305843009213693950"),
    ("polyzinbiel(" + "9" * 5000 + ")", "polyzinbiel arguments have at most 18 digits, got 5000"),
    ("freeleibniz(2," + "9" * 4300 + ")", "freeleibniz arguments have at most 18 digits, got 4300"),
])
def test_oversized_builtins_are_refused_at_once(capsys, name, message):
    cap = "" if "digits" in message else ", over the cap 512"
    assert run(capsys, ["check", f"builtin:{name}"]) == (2, "", f"error: {message}{cap}\n")


def test_dim_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("ZINBIEL_DIM_CAP", "3")
    code, _, err = run(capsys, ["check", "builtin:freeleibniz(2,2)"])
    assert code == 2 and "over the cap 3" in err
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, ["check", "builtin:freeleibniz(2,2)", "--dim-cap", "20"])
    assert (code, out) == (0, "leibniz: PASS\n")


def test_dim_cap_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("ZINBIEL_DIM_CAP", "plenty")
    code, _, err = run(capsys, ["check", "builtin:B2"])
    assert code == 2 and "must be an integer" in err


def test_dim_cap_below_one(capsys, monkeypatch):
    for argv in (["builtin", "B2", "--dim-cap", "-1"],
                 ["builtin", "polyzinbiel(3)", "--dim-cap", "0"]):
        want = f"error: --dim-cap must be at least 1, got {argv[-1]}\n"
        assert run(capsys, argv) == (2, "", want)
    monkeypatch.setenv("ZINBIEL_DIM_CAP", "0")
    assert run(capsys, ["check", "builtin:B2"]) == (
        2, "", "error: ZINBIEL_DIM_CAP must be at least 1, got 0\n")
    # a cap of 1 is valid; B2 is not capped at all
    assert run(capsys, ["check", "builtin:B2", "--dim-cap", "1"]) == (0, "zinbiel: PASS\n", "")


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, ["builtin", "nonsense"])
    assert code == 2
    assert err.startswith("error: unknown builtin 'nonsense'")


@pytest.mark.parametrize("name, message", [
    ("polyzinbiel(-1)", "polyzinbiel needs d >= 0"),
    ("freeleibniz(2)", "freeleibniz takes 2 integer argument(s), got '2'"),
    ("regular(regular(B2))", "regular(...) needs an algebra, not a module"),
])
def test_malformed_builtin_names_are_refused(capsys, name, message):
    assert run(capsys, ["builtin", name]) == (2, "", f"error: {message}\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, ["check", "/no/such/file.json"])
    assert code == 2
    assert "no such file" in err and "builtin:" in err


def _one_dim_algebra(dim="1", left="0", coeff="1", kind="zinbiel") -> bytes:
    return (
        f'{{"kind": "{kind}", "dim": {dim}, "basis": ["e"], "products": '
        f'[{{"left": {left}, "right": 0, "result": [[0, {coeff}]]}}]}}'
    ).encode()


@pytest.mark.parametrize("content", [
    b"[1, 2]\n",
    b"\xff\xfe{",
    _one_dim_algebra(coeff="0.5"),
    _one_dim_algebra(coeff="null"),
    _one_dim_algebra(dim="true"),
    _one_dim_algebra(left="false"),
], ids=["list", "not-utf8", "float-coefficient", "null-coefficient", "bool-dim", "bool-index"])
def test_malformed_file_names_its_path_once(capsys, tmp_path, content):
    path = tmp_path / "top.json"
    path.write_bytes(content)
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert err.startswith("error: ") and err.count(str(path)) == 1


def test_check_needs_a_kind_with_an_axiom_family(capsys, tmp_path):
    path = tmp_path / "assoc.json"
    path.write_bytes(_one_dim_algebra(kind="assoc"))
    assert run(capsys, ["check", str(path)]) == (2, "", (
        "error: no axiom family for algebra kind 'assoc'; "
        "known kinds: leibniz, lie, zinbiel\n"))


REPRODUCE_TEXT = """\
second cohomology of B2 (e1*e1 = e2) with regular coefficients:
  dim C^2 = 8
  dim Z^2 = 3
  dim B^2 = 2
  dim H^2 = 1

cocycle constraints on f(e_i, e_j) = Σ_k α^k_ij e_k, computed:
  α¹₁₁ = -2·α²₁₂ + α²₂₁
  α¹₁₂ = 0
  α¹₂₁ = 0
  α¹₂₂ = 0
  α²₂₂ = 0
free cocycle parameters (3): α²₁₁, α²₁₂, α²₂₁
constraint list: differs from paper
  note: computed α¹₁₁ = -2·α²₁₂ + α²₂₁; printed claim α¹₁₁ = -α²₁₂ + α²₂₁

coboundaries: rank 2, determined by g¹₂ and 2·g¹₁ - g²₂ (2 parameters)
coboundary parameterization: matches paper

second Chevalley-Eilenberg cohomology of lie2 with adjoint coefficients:
  computed dim H^2 = 0, printed claim 1
H^2(lie2, adjoint): differs from paper
"""


def test_reproduce_text(capsys):
    assert run(capsys, ["reproduce", "example-4-6"]) == (0, REPRODUCE_TEXT, "")


def test_reproduce_takes_no_dim_cap(capsys):
    # reproduce builds only the fixed B2 and lie2, so a cap would never be read
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "example-4-6", "--dim-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim-cap 5" in capsys.readouterr().err


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, ["reproduce", "example-4-6", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["dl_b2_degree2"]["dim_H"] == 1
    assert data["cocycle_constraints"]["label"] == "differs from paper"
    assert data["coboundary_parameterization"]["label"] == "matches paper"
    assert data["lie2_adjoint_h2"] == {
        "computed": 0, "reference": 1, "label": "differs from paper",
    }
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


FORMAT = (("--format",), False, ("text", "json"))
DIM_CAP = (("--dim-cap",), False, None)
PAIR = [(("--leibniz",), True, None), (("--zinbiel",), True, None)]
OUTPUT = (("-o", "--output"), False, None)

# Each subcommand's arguments in order: (option strings, or the positional's
# name; required; choices).
SURFACE = {
    "check": [(("target",), True, None), FORMAT, DIM_CAP],
    "cohomology": [(("--complex",), True, ("dl", "ce")), (("--algebra",), True, None),
                   (("--module",), False, None), (("--regular",), False, None),
                   (("--degree",), True, None), FORMAT, DIM_CAP],
    "tensor-lie": PAIR + [OUTPUT, FORMAT, DIM_CAP],
    "verify-chain-map": PAIR + [(("--degree",), True, None), (("--trials",), False, None),
                                (("--seed",), False, None), FORMAT, DIM_CAP],
    "les": PAIR + [(("--max-degree",), True, None), FORMAT, DIM_CAP],
    "builtin": [(("name",), True, None), OUTPUT, FORMAT, DIM_CAP],
    "reproduce": [(("target",), True, ("example-4-6",)), FORMAT],
}


def test_cli_surface_is_pinned(capsys):
    subparsers, = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(SURFACE)
    for name, parser in subparsers.choices.items():
        seen = [(tuple(a.option_strings) or (a.dest,), a.required,
                 tuple(a.choices) if a.choices else None)
                for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert seen == SURFACE[name], name
        groups = [([a.option_strings for a in g._group_actions], g.required)
                  for g in parser._mutually_exclusive_groups]
        assert groups == ([([["--module"], ["--regular"]], True)]
                          if name == "cohomology" else []), name
        # every help string formats, so --help exits 0
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: zinbiel {name} ")


def test_the_shared_parser_carries_nothing_between_calls(capsys, monkeypatch):
    # Each call in one process, after others, gives what it gives when it
    # runs first: its stdout, stderr and exit code, whether main returns the
    # code or argparse raises SystemExit with it.
    les = ["les", "--leibniz", "builtin:freeleibniz(2,3)", "--zinbiel", "builtin:B2",
           "--max-degree", "1", "--format", "json"]
    check = ["check", "builtin:freeleibniz(2,2)"]
    calls = [
        (les, None),
        (["cohomology", "--complex", "dl", "--algebra", "builtin:B2", "--regular",
          "--degree", "2"], None),
        (["cohomology", "--complex", "lie", "--algebra", "builtin:B2", "--regular",
          "--degree", "2"], None),
        (["verify-chain-map", "--help"], None),
        (check, "3"),
        (check, None),
        (les, None),
    ]

    def outcome(argv, cap):
        with monkeypatch.context() as patch:
            if cap is None:
                patch.delenv("ZINBIEL_DIM_CAP", raising=False)
            else:
                patch.setenv("ZINBIEL_DIM_CAP", cap)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv, cap in calls:
        build_parser.cache_clear()
        first.append(outcome(argv, cap))
    build_parser.cache_clear()
    assert [outcome(argv, cap) for argv, cap in calls] == first
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 2, 0, 0]
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_console_script():
    # The installed script when it is on PATH, else the module it runs, from
    # this checkout's src.
    if shutil.which("zinbiel"):
        cmd, env = ["zinbiel"], None
    else:
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        cmd = [sys.executable, "-m", "zinbiel.cli"]
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        cmd + ["check", "builtin:B2"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == "zinbiel: PASS\n"
