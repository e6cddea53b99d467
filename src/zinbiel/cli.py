"""Command line front end.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(a witness is printed), 2 = usage or parse error.  Machine-readable output
uses --format json; identical invocations produce byte-identical JSON.
"""

import argparse
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .algebras import _MODULE_FAMILY, AxiomReport, Bimodule, FiniteAlgebra, check_axioms, regular
from .catalog import builtin as catalog_builtin
from .complexes import cohomology_dims
from .fileio import _dump_json, _from_dict, _json_text, _load, _to_dict
from .free_leibniz import DEFAULT_DIM_CAP
from .reproduce import reproduce_example_4_6
from .tensor_bridge import (
    PsiNotInjectiveError,
    les_report,
    tensor_lie,
    verify_chain_map,
)

DIM_CAP_ENV = "ZINBIEL_DIM_CAP"

_Results = List[Tuple[str, AxiomReport]]


class UsageError(Exception):
    pass


def _emit(args: argparse.Namespace, data: dict, lines: Iterable[str]) -> None:
    """The one report writer: data as canonical JSON under --format json, else lines as text."""
    if args.format == "json":
        sys.stdout.write(_json_text(data))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def _dim_cap(args: argparse.Namespace) -> int:
    cap, source = args.dim_cap, "--dim-cap"
    if cap is None:
        raw, source = os.environ.get(DIM_CAP_ENV), DIM_CAP_ENV
        if raw is None:
            return DEFAULT_DIM_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _operands(args: argparse.Namespace, *flags: str) -> List[Union[FiniteAlgebra, Bimodule]]:
    """The operands args holds under flags, in order, loaded under one dim cap.

    Each is 'builtin:NAME' from the catalog, or else a file. A positional
    (check's target, builtin's name) may be an algebra or a bimodule; --module
    must be a bimodule over the algebra loaded just before it; every other
    flag expects an algebra. A wrong kind is named with the operand.
    """
    cap = _dim_cap(args)
    loaded: List[Union[FiniteAlgebra, Bimodule]] = []
    for flag in flags:
        spec = getattr(args, flag.lstrip("-"))
        try:
            if spec.startswith("builtin:"):
                obj = catalog_builtin(spec[len("builtin:"):], dim_cap=cap)
            elif os.path.exists(spec):
                obj = _load(spec, _from_dict)
            else:
                raise UsageError(
                    f"no such file: {spec} (catalog entries need the builtin: prefix)"
                )
        except OSError as exc:
            raise UsageError(f"cannot read {spec}: {exc}")
        except ValueError as exc:
            raise UsageError(str(exc))
        got = isinstance(obj, Bimodule)
        if flag.startswith("--") and got != (flag == "--module"):
            kinds = ("an algebra", "a bimodule")
            raise UsageError(f"{flag} expects {kinds[not got]}, got {kinds[got]} ({spec})")
        if flag == "--module" and obj.algebra != loaded[-1]:
            raise UsageError("--module was built over a different algebra")
        loaded.append(obj)
    return loaded


def _witness_lines(witness: Optional[dict]) -> List[str]:
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
        lines.append(f"  {key}: {shown}")
    return lines


def _check_lines(results: Iterable[Tuple[str, AxiomReport]], prefix: str = "") -> List[str]:
    """One 'PREFIX NAME: PASS|FAIL' line per check, each failure followed by its witness."""
    lines = []
    for name, rep in results:
        lines.append(f"{prefix}{name}: {'PASS' if rep.ok else 'FAIL'}")
        if not rep.ok:
            lines += _witness_lines(rep.witness)
    return lines


def _checks(family: str, alg: FiniteAlgebra, module: Optional[Bimodule] = None) -> _Results:
    """The family's axiom check on alg, then, given a module, its module family's."""
    results = [(family, check_axioms(alg, family))]
    if module is not None:
        family = _MODULE_FAMILY[family]
        results.append((family, check_axioms(alg, family, module=module)))
    return results


def _check_entries(results: _Results) -> List[dict]:
    return [{"name": n, **asdict(r)} for n, r in results]


def _inputs_fail(args: argparse.Namespace, results: _Results) -> bool:
    """Whether an input check failed; if so, the failures (every check in JSON) are reported."""
    bad = [(n, r) for n, r in results if not r.ok]
    if bad:
        _emit(args, {"checks": _check_entries(results)}, _check_lines(bad, "input axiom "))
    return bool(bad)


def _write(obj: Union[FiniteAlgebra, Bimodule], path: Optional[str]) -> None:
    """obj's file form to path, or to stdout without one; a path that cannot
    be written is a usage error."""
    data = _to_dict(obj)
    if not path:
        sys.stdout.write(_json_text(data))
        return
    try:
        _dump_json(data, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_check(args: argparse.Namespace) -> int:
    obj, = _operands(args, "target")
    module = obj if isinstance(obj, Bimodule) else None
    alg = obj if module is None else module.algebra
    if alg.kind not in _MODULE_FAMILY:
        raise UsageError(
            f"no axiom family for algebra kind {alg.kind!r}; "
            f"known kinds: {', '.join(sorted(_MODULE_FAMILY))}"
        )
    results = _checks(alg.kind, alg, module)
    ok = all(r.ok for _, r in results)
    data = {"kind": alg.kind, "dim": alg.dim, "ok": ok, "checks": _check_entries(results)}
    if module is not None:
        data["module_dim"] = module.dim
    _emit(args, data, _check_lines(results))
    return 0 if ok else 1


def cmd_cohomology(args: argparse.Namespace) -> int:
    if args.regular:
        alg, = _operands(args, "--algebra")
        module = regular(alg)
    else:
        alg, module = _operands(args, "--algebra", "--module")
    # delta squares to zero only over an algebra and module of the complex's family
    family = "zinbiel" if args.complex == "dl" else "lie"
    if _inputs_fail(args, _checks(family, alg, module)):
        return 1
    try:
        dims = cohomology_dims(module, args.complex, args.degree)
    except ValueError as exc:
        raise UsageError(str(exc))
    n = args.degree
    values = (dims.dim_cochains, dims.dim_cocycles, dims.dim_coboundaries, dims.dim_cohomology)
    _emit(args, dict(zip(("dim_Z", "dim_B", "dim_H"), values[1:])), [
        f"complex {args.complex}, degree {n}, coefficient module dim {module.dim}",
        *(f"dim {space}^{n} = {value}" for space, value in zip("CZBH", values)),
    ])
    return 0


def cmd_tensor_lie(args: argparse.Namespace) -> int:
    g, B = _operands(args, "--leibniz", "--zinbiel")
    if _inputs_fail(args, _checks("leibniz", g) + _checks("zinbiel", B)):
        return 1
    try:
        lie = tensor_lie(g, B, validate=False)
    except ValueError as exc:
        raise UsageError(str(exc))
    _write(lie, args.output)
    if args.output:
        _emit(args, {"dim": lie.dim, "path": args.output},
              [f"wrote lie algebra of dimension {lie.dim} to {args.output}"])
    return 0


def cmd_verify_chain_map(args: argparse.Namespace) -> int:
    g, B = _operands(args, "--leibniz", "--zinbiel")
    try:
        report = verify_chain_map(
            g, B, regular(B), args.degree, trials=args.trials, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    ok = report.passed and report.axioms_ok
    exact = report.trials - len(report.failed_trials)
    lines = [f"chain map at degree {report.degree}: {exact}/{report.trials} exact",
             *_check_lines(report.axioms.items(), "axiom ")]
    if report.witness:
        lines += ["first equality failure:", *_witness_lines(report.witness)]
    _emit(args, {**report.to_dict(), "ok": ok}, lines)
    return 0 if ok else 1


def cmd_les(args: argparse.Namespace) -> int:
    g, B = _operands(args, "--leibniz", "--zinbiel")
    if _inputs_fail(args, _checks("leibniz", g) + _checks("zinbiel", B)):
        return 1
    try:
        report = les_report(g, B, regular(B), args.max_degree)
    except PsiNotInjectiveError as exc:
        _emit(args, {"error": str(exc), "failures": exc.failures}, [str(exc)])
        return 1
    except ValueError as exc:
        raise UsageError(str(exc))
    ranks = report["precheck"]["psi_ranks"]
    table = [("n", "h_dl", "h_dl_n+1", "h_lie", "dim_Q", "h_Q",
              "rank_n", "rank_n+1", "identity")]
    for row in report["rows"]:
        verdict = ("holds" if row["identity_holds"] else
                   f"FAILS ({row['identity_lhs']} != {row['identity_rhs']})")
        table.append((
            row["degree"], row["h_dl"], row["h_dl_next"], row["h_lie"],
            row["dim_quotient"], row["h_quotient"], row["induced_rank"],
            row["induced_rank_next"], verdict,
        ))
    widths = [max(len(str(v)) for v in column) for column in zip(*table)]
    _emit(args, report, [
        f"tensor algebra dim {report['tensor_dim']}, module dim {report['tensor_module_dim']}",
        "embedding ranks by degree (all full): "
        + ", ".join(f"{k}: {v}" for k, v in sorted(ranks.items())),
        *("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip() for r in table),
    ])
    return 0 if all(row["identity_holds"] for row in report["rows"]) else 1


def cmd_builtin(args: argparse.Namespace) -> int:
    obj, = _operands(args, "name")
    _write(obj, args.output)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    lines, data = reproduce_example_4_6()
    _emit(args, data, lines)
    return 0


def _add_format(parser: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int]) -> None:
    """--format, and func to run the subcommand."""
    parser.set_defaults(func=func)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )


def _add_common(parser: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int]) -> None:
    """--format, --dim-cap, and func to run the subcommand."""
    _add_format(parser, func)
    parser.add_argument(
        "--dim-cap", type=int, default=None, metavar="N",
        help=f"dimension cap for catalog construction "
             f"(default {DEFAULT_DIM_CAP}, or the {DIM_CAP_ENV} variable)",
    )


def _add_pair(parser: argparse.ArgumentParser) -> None:
    for flag in ("--leibniz", "--zinbiel"):
        parser.add_argument(flag, required=True, help="file path or builtin:<name>")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `zinbiel` argument parser, built on the first call in a process and shared after.

    It holds no per-call state: nothing in it depends on argv or the
    environment (ZINBIEL_DIM_CAP is read on each call, in _dim_cap), and
    parse_args returns a fresh Namespace each time.
    """
    parser = argparse.ArgumentParser(
        prog="zinbiel",
        description="Exact cohomology for Zinbiel algebras, their tensor-product "
                    "Lie algebras, and the embedding between the two theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom checks on an algebra or bimodule")
    p.add_argument("target", help="file path or builtin:<name>")
    _add_common(p, cmd_check)

    p = sub.add_parser("cohomology", help="exact cocycle/coboundary/cohomology dims")
    p.add_argument("--complex", choices=("dl", "ce"), required=True)
    p.add_argument("--algebra", required=True, help="file path or builtin:<name>")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", help="coefficient bimodule: file path or builtin:<name>")
    group.add_argument("--regular", action="store_true",
                       help="use the algebra itself as coefficients")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p, cmd_cohomology)

    p = sub.add_parser("tensor-lie", help="build the Lie algebra g⊗B")
    _add_pair(p)
    p.add_argument("-o", "--output", help="write the algebra file here")
    _add_common(p, cmd_tensor_lie)

    p = sub.add_parser("verify-chain-map",
                       help="check delta(Ψf) = Ψ(delta f) on random cochains")
    _add_pair(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, cmd_verify_chain_map)

    p = sub.add_parser("les", help="long-exact-sequence dimension table")
    _add_pair(p)
    p.add_argument("--max-degree", type=int, required=True)
    _add_common(p, cmd_les)

    p = sub.add_parser("builtin", help="emit a catalog algebra or bimodule")
    # prefixed so that the name loads like any other operand
    p.add_argument("name", type="builtin:{}".format,
                   help="catalog name, e.g. B2 or freeleibniz(2,3)")
    p.add_argument("-o", "--output", help="write the file here instead of stdout")
    _add_common(p, cmd_builtin)

    p = sub.add_parser("reproduce", help="recompute a worked example end to end")
    p.add_argument("target", choices=("example-4-6",))
    _add_format(p, cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one `zinbiel` invocation in this process; argv defaults to sys.argv[1:].

    Returns the exit code: 0 on success, 1 when a check fails, 2 on a usage
    error found after parsing, whose message goes to stderr. argparse's own
    usage errors (exit 2) and --help (exit 0) leave through SystemExit, as
    they do from the command line. Calls in one process share only the parser.
    """
    args = build_parser().parse_args(argv)
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
