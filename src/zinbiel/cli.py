"""Command line front end.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(a witness is printed), 2 = usage or parse error.  Machine-readable output
uses --format json; identical invocations produce byte-identical JSON.
"""

import argparse
import os
import sys
from dataclasses import asdict
from typing import Iterable, List, Optional, Tuple, Union

from .algebras import _MODULE_FAMILY, AxiomReport, Bimodule, FiniteAlgebra, check_axioms, regular
from .catalog import builtin as catalog_builtin
from .complexes import cohomology_dims
from .fileio import (
    _json_text,
    _load,
    algebra_from_dict,
    algebra_to_dict,
    bimodule_from_dict,
    bimodule_to_dict,
    is_bimodule_data,
    save_algebra,
    save_bimodule,
)
from .free_leibniz import DEFAULT_DIM_CAP
from .reproduce import reproduce_example_4_6
from .tensor_bridge import (
    PsiNotInjectiveError,
    les_report,
    tensor_lie,
    verify_chain_map,
)

DIM_CAP_ENV = "ZINBIEL_DIM_CAP"


class UsageError(Exception):
    pass


def _emit_json(data: dict) -> None:
    sys.stdout.write(_json_text(data))


def _dim_cap(args: argparse.Namespace) -> int:
    if args.dim_cap is not None:
        cap, source = args.dim_cap, "--dim-cap"
    else:
        raw = os.environ.get(DIM_CAP_ENV)
        if raw is None:
            return DEFAULT_DIM_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}")
        source = DIM_CAP_ENV
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _load_operand(spec: str, dim_cap: int) -> Union[FiniteAlgebra, Bimodule]:
    """Resolve 'builtin:NAME' against the catalog, anything else as a file."""
    if spec.startswith("builtin:"):
        try:
            return catalog_builtin(spec[len("builtin:"):], dim_cap=dim_cap)
        except ValueError as exc:
            raise UsageError(str(exc))
    if not os.path.exists(spec):
        raise UsageError(
            f"no such file: {spec} (catalog entries need the builtin: prefix)"
        )
    try:
        return _load(spec, lambda data: (
            bimodule_from_dict if is_bimodule_data(data) else algebra_from_dict)(data))
    except OSError as exc:
        raise UsageError(f"cannot read {spec}: {exc}")
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_algebra_operand(spec: str, dim_cap: int, flag: str) -> FiniteAlgebra:
    obj = _load_operand(spec, dim_cap)
    if isinstance(obj, Bimodule):
        raise UsageError(f"{flag} expects an algebra, got a bimodule ({spec})")
    return obj


def _load_pair(args: argparse.Namespace) -> Tuple[FiniteAlgebra, FiniteAlgebra]:
    """The --leibniz and --zinbiel algebras, in that order."""
    cap = _dim_cap(args)
    return (_load_algebra_operand(args.leibniz, cap, "--leibniz"),
            _load_algebra_operand(args.zinbiel, cap, "--zinbiel"))


def _witness_lines(witness: Optional[dict], indent: str = "  ") -> List[str]:
    if not witness:
        return []
    lines = []
    for key, value in witness.items():
        if isinstance(value, dict):
            shown = ", ".join(f"{n}: {c}" for n, c in value.items()) or "0"
        elif isinstance(value, (list, tuple)):
            shown = ", ".join(str(v) for v in value)
        else:
            shown = str(value)
        lines.append(f"{indent}{key}: {shown}")
    return lines


def _print_checks(results: Iterable[Tuple[str, AxiomReport]], prefix: str = "") -> None:
    """One 'PREFIX NAME: PASS|FAIL' line per check, each failure followed by its witness."""
    for name, rep in results:
        print(f"{prefix}{name}: {'PASS' if rep.ok else 'FAIL'}")
        if not rep.ok:
            for line in _witness_lines(rep.witness):
                print(line)


def _input_gate(
    checks: List[Tuple[str, FiniteAlgebra, Optional[Bimodule]]], fmt: str
) -> Optional[int]:
    """Run every (family, algebra, module) check; exit 1 with the failures
    (every check in JSON) unless all pass."""
    results = [(name, check_axioms(alg, name, module)) for name, alg, module in checks]
    bad = [(n, r) for n, r in results if not r.ok]
    if not bad:
        return None
    if fmt == "json":
        _emit_json({"checks": [{"name": n, **asdict(r)} for n, r in results]})
    else:
        _print_checks(bad, "input axiom ")
    return 1


def _save(save, obj, path: str) -> None:
    """Write obj with save; a path that cannot be written is a usage error."""
    try:
        save(obj, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_check(args: argparse.Namespace) -> int:
    obj = _load_operand(args.target, _dim_cap(args))
    alg = obj.algebra if isinstance(obj, Bimodule) else obj
    if alg.kind not in _MODULE_FAMILY:
        raise UsageError(
            f"no axiom family for algebra kind {alg.kind!r}; "
            f"known kinds: {', '.join(sorted(_MODULE_FAMILY))}"
        )
    results: List[Tuple[str, AxiomReport]] = [
        (alg.kind, check_axioms(alg, alg.kind))
    ]
    if isinstance(obj, Bimodule):
        family = _MODULE_FAMILY[alg.kind]
        results.append((family, check_axioms(alg, family, module=obj)))
    ok = all(r.ok for _, r in results)
    if args.format == "json":
        data = {
            "kind": alg.kind,
            "dim": alg.dim,
            "ok": ok,
            "checks": [{"name": n, **asdict(r)} for n, r in results],
        }
        if isinstance(obj, Bimodule):
            data["module_dim"] = obj.dim
        _emit_json(data)
    else:
        _print_checks(results)
    return 0 if ok else 1


def cmd_cohomology(args: argparse.Namespace) -> int:
    cap = _dim_cap(args)
    alg = _load_algebra_operand(args.algebra, cap, "--algebra")
    if args.regular:
        module = regular(alg)
    else:
        obj = _load_operand(args.module, cap)
        if not isinstance(obj, Bimodule):
            raise UsageError("--module expects a bimodule file")
        if obj.algebra != alg:
            raise UsageError("--module was built over a different algebra")
        module = obj
    # delta squares to zero only over an algebra and module of the complex's family
    family = "zinbiel" if args.complex == "dl" else "lie"
    failed = _input_gate([(family, alg, None), (_MODULE_FAMILY[family], alg, module)],
                         args.format)
    if failed is not None:
        return failed
    try:
        dims = cohomology_dims(module, args.complex, args.degree)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        _emit_json({
            "dim_Z": dims.dim_cocycles,
            "dim_B": dims.dim_coboundaries,
            "dim_H": dims.dim_cohomology,
        })
    else:
        n = args.degree
        print(f"complex {args.complex}, degree {n}, coefficient module dim {module.dim}")
        print(f"dim C^{n} = {dims.dim_cochains}")
        print(f"dim Z^{n} = {dims.dim_cocycles}")
        print(f"dim B^{n} = {dims.dim_coboundaries}")
        print(f"dim H^{n} = {dims.dim_cohomology}")
    return 0


def cmd_tensor_lie(args: argparse.Namespace) -> int:
    g, B = _load_pair(args)
    failed = _input_gate([("leibniz", g, None), ("zinbiel", B, None)], args.format)
    if failed is not None:
        return failed
    lie = tensor_lie(g, B, validate=False)
    if args.output:
        _save(save_algebra, lie, args.output)
        if args.format == "json":
            _emit_json({"dim": lie.dim, "path": args.output})
        else:
            print(f"wrote lie algebra of dimension {lie.dim} to {args.output}")
    else:
        _emit_json(algebra_to_dict(lie))
    return 0


def cmd_verify_chain_map(args: argparse.Namespace) -> int:
    g, B = _load_pair(args)
    try:
        report = verify_chain_map(
            g, B, regular(B), args.degree, trials=args.trials, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    ok = report.passed and report.axioms_ok
    if args.format == "json":
        data = report.to_dict()
        data["ok"] = ok
        _emit_json(data)
    else:
        exact = report.trials - len(report.failed_trials)
        print(f"chain map at degree {report.degree}: {exact}/{report.trials} exact")
        _print_checks(report.axioms.items(), "axiom ")
        if report.witness:
            print("first equality failure:")
            for line in _witness_lines(report.witness):
                print(line)
    return 0 if ok else 1


def cmd_les(args: argparse.Namespace) -> int:
    g, B = _load_pair(args)
    failed = _input_gate([("leibniz", g, None), ("zinbiel", B, None)], args.format)
    if failed is not None:
        return failed
    try:
        report = les_report(g, B, regular(B), args.max_degree)
    except PsiNotInjectiveError as exc:
        if args.format == "json":
            _emit_json({"error": str(exc), "failures": exc.failures})
        else:
            print(str(exc))
        return 1
    except ValueError as exc:
        raise UsageError(str(exc))
    ok = all(row["identity_holds"] for row in report["rows"])
    if args.format == "json":
        _emit_json(report)
    else:
        print(
            f"tensor algebra dim {report['tensor_dim']}, "
            f"module dim {report['tensor_module_dim']}"
        )
        ranks = report["precheck"]["psi_ranks"]
        shown = ", ".join(f"{k}: {v}" for k, v in sorted(ranks.items()))
        print(f"embedding ranks by degree (all full): {shown}")
        header = ("n", "h_dl", "h_dl_n+1", "h_lie", "dim_Q", "h_Q",
                  "rank_n", "rank_n+1", "identity")
        rows = [header]
        for row in report["rows"]:
            verdict = ("holds" if row["identity_holds"] else
                       f"FAILS ({row['identity_lhs']} != {row['identity_rhs']})")
            rows.append((
                row["degree"], row["h_dl"], row["h_dl_next"], row["h_lie"],
                row["dim_quotient"], row["h_quotient"], row["induced_rank"],
                row["induced_rank_next"], verdict,
            ))
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
        for r in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0 if ok else 1


def cmd_builtin(args: argparse.Namespace) -> int:
    obj = _load_operand(f"builtin:{args.name}", _dim_cap(args))
    if args.output:
        _save(save_bimodule if isinstance(obj, Bimodule) else save_algebra, obj, args.output)
    else:
        data = bimodule_to_dict(obj) if isinstance(obj, Bimodule) else algebra_to_dict(obj)
        _emit_json(data)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    lines, data = reproduce_example_4_6()
    if args.format == "json":
        _emit_json(data)
    else:
        for line in lines:
            print(line)
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_format(parser)
    parser.add_argument(
        "--dim-cap", type=int, default=None, metavar="N",
        help=f"dimension cap for catalog construction "
             f"(default {DEFAULT_DIM_CAP}, or the {DIM_CAP_ENV} variable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zinbiel",
        description="Exact cohomology for Zinbiel algebras, their tensor-product "
                    "Lie algebras, and the embedding between the two theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom checks on an algebra or bimodule")
    p.add_argument("target", help="file path or builtin:<name>")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="exact cocycle/coboundary/cohomology dims")
    p.add_argument("--complex", choices=("dl", "ce"), required=True)
    p.add_argument("--algebra", required=True, help="file path or builtin:<name>")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", help="bimodule file for the coefficients")
    group.add_argument("--regular", action="store_true",
                       help="use the algebra itself as coefficients")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("tensor-lie", help="build the Lie algebra g⊗B")
    p.add_argument("--leibniz", required=True, help="file path or builtin:<name>")
    p.add_argument("--zinbiel", required=True, help="file path or builtin:<name>")
    p.add_argument("-o", "--output", help="write the algebra file here")
    _add_common(p)
    p.set_defaults(func=cmd_tensor_lie)

    p = sub.add_parser("verify-chain-map",
                       help="check delta(Ψf) = Ψ(delta f) on random cochains")
    p.add_argument("--leibniz", required=True)
    p.add_argument("--zinbiel", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify_chain_map)

    p = sub.add_parser("les", help="long-exact-sequence dimension table")
    p.add_argument("--leibniz", required=True)
    p.add_argument("--zinbiel", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_les)

    p = sub.add_parser("builtin", help="emit a catalog algebra or bimodule")
    p.add_argument("name", help="catalog name, e.g. B2 or freeleibniz(2,3)")
    p.add_argument("-o", "--output", help="write the file here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_builtin)

    p = sub.add_parser("reproduce", help="recompute a worked example end to end")
    p.add_argument("target", choices=("example-4-6",))
    _add_format(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    run()
