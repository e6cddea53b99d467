"""JSON load/save for algebras and bimodules.

An algebra file is an object with "kind", "dim", "basis", and "products",
where products is a list of {"left": i, "right": j, "result": [[k, "p/q"],
...]} entries over 0-based basis indices. A bimodule file embeds its algebra
under "algebra" and adds "module_dim", "module_basis", "left_action" (left =
algebra index, right = module index), and "right_action" (left = module index,
right = algebra index). Missing products are zero. Reading checks the JSON
shape and parses each coefficient, naming its entry and index if it is not a
scalar; FiniteAlgebra and Bimodule check the rest (dims, basis names, index
types and ranges). Writing is canonical: entries sorted by index pair,
coefficients in lowest terms, keys sorted, so saving the same structure twice
gives identical bytes.
"""
from __future__ import annotations

import json
from collections.abc import Hashable
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, TypeVar, Union

from .algebras import Bimodule, FiniteAlgebra, Table
from .sparsevec import parse_scalar


def _require(data: dict, keys: Tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what} is missing required keys: {', '.join(missing)}")


def _parse_names(raw, what: str) -> tuple:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(raw)


def _parse_table(raw, what: str) -> Table:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list of entries")
    table: Table = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"each {what} entry must be an object")
        _require(entry, ("left", "right", "result"), f"{what} entry")
        i, j = entry["left"], entry["right"]
        if not (isinstance(i, Hashable) and isinstance(j, Hashable)):  # a JSON list or object
            raise ValueError(f"{what} indices must be integers")
        if (i, j) in table:
            raise ValueError(f"duplicate {what} entry for ({i}, {j})")
        result = entry["result"]
        if not isinstance(result, list):
            raise ValueError(f"{what} result must be a list of [index, coefficient] pairs")
        vec: Dict[int, object] = {}
        for pair in result:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], Hashable)):
                raise ValueError(f"{what} result terms must be [index, coefficient] pairs")
            k, c = pair
            if k in vec:
                raise ValueError(f"duplicate result index {k} in {what} entry ({i}, {j})")
            try:
                vec[k] = parse_scalar(c)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{what} entry ({i}, {j}), index {k}: {exc}") from None
        table[(i, j)] = vec  # type: ignore[assignment]
    return table


def _table_to_list(table: Table) -> List[dict]:
    out = []
    for (i, j) in sorted(table):
        result = [[k, str(v)] for k, v in sorted(table[(i, j)].items())]
        out.append({"left": i, "right": j, "result": result})
    return out


def algebra_from_dict(data: dict) -> FiniteAlgebra:
    if not isinstance(data, dict):
        raise ValueError("algebra data must be a JSON object")
    _require(data, ("kind", "dim", "basis", "products"), "algebra")
    if not isinstance(data["kind"], str):
        raise ValueError("algebra kind must be a string")
    return FiniteAlgebra(
        kind=data["kind"],
        dim=data["dim"],
        basis_names=_parse_names(data["basis"], "algebra basis"),
        products=_parse_table(data["products"], "product"),
    )


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    return {
        "kind": alg.kind,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "products": _table_to_list(alg.products),
    }


def bimodule_from_dict(data: dict) -> Bimodule:
    if not isinstance(data, dict):
        raise ValueError("bimodule data must be a JSON object")
    _require(data, ("algebra", "module_dim", "module_basis", "left_action", "right_action"),
             "bimodule")
    return Bimodule(
        algebra=algebra_from_dict(data["algebra"]),
        dim=data["module_dim"],
        basis_names=_parse_names(data["module_basis"], "module basis"),
        left=_parse_table(data["left_action"], "left action"),
        right=_parse_table(data["right_action"], "right action"),
    )


def bimodule_to_dict(mod: Bimodule) -> dict:
    return {
        "algebra": algebra_to_dict(mod.algebra),
        "module_dim": mod.dim,
        "module_basis": list(mod.basis_names),
        "left_action": _table_to_list(mod.left),
        "right_action": _table_to_list(mod.right),
    }


def is_bimodule_data(data: dict) -> bool:
    return isinstance(data, dict) and "algebra" in data


PathLike = Union[str, Path]
T = TypeVar("T")


def _load(path: PathLike, parse: Callable[[Any], T]) -> T:
    """parse applied to the JSON data in the file at path; every ValueError names the path.

    Bad UTF-8 or bad JSON reads "cannot read PATH: ...", a structure error
    "PATH: ..."; an OSError is raised as it is.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _json_text(data: dict) -> str:
    """The one canonical JSON form of files and reports: sorted keys, indent 2, final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _dump_json(data: dict, path: PathLike) -> None:
    Path(path).write_text(_json_text(data), encoding="utf-8")


def load_algebra(path: PathLike) -> FiniteAlgebra:
    return _load(path, algebra_from_dict)


def save_algebra(alg: FiniteAlgebra, path: PathLike) -> None:
    _dump_json(algebra_to_dict(alg), path)


def load_bimodule(path: PathLike) -> Bimodule:
    return _load(path, bimodule_from_dict)


def save_bimodule(mod: Bimodule, path: PathLike) -> None:
    _dump_json(bimodule_to_dict(mod), path)
