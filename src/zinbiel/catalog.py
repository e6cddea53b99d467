"""Named example algebras, available programmatically and as "builtin:" CLI refs.

Available names:

* B2            two-dimensional Zinbiel algebra, e1.e1 = e2
* B3            three-dimensional Zinbiel algebra, e1.e2 = e3
* polyzinbiel(d)  truncated polynomial model of dimension d+1:
                  p_a . p_b = p_{a+b+1} / (b+1) while a+b+1 <= d
* leibniz2      two-dimensional Leibniz algebra, [a, a] = b
* lie2          the nonabelian two-dimensional Lie algebra, [e1, e2] = e1
* freeleibniz(m, N)  free Leibniz algebra on m letters, words cut at length N
* regular(NAME)  the named algebra acting on itself, as a bimodule

B2, B3, leibniz2 and lie2 are rows of one table, _FIXED, of kind, basis
names and products, read by one constructor. perturbed_b2() is B2 with the
extra product e2.e2 = e1 spliced in; it breaks the Zinbiel identity on purpose
and serves as a negative control in tests.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple, Union

from .algebras import Bimodule, FiniteAlgebra, regular
from .free_leibniz import DEFAULT_DIM_CAP, build_truncated

BUILTIN_NAMES = (
    "B2",
    "B3",
    "polyzinbiel(d)",
    "leibniz2",
    "lie2",
    "freeleibniz(m,N)",
    "regular(NAME)",
)

_FIXED = {
    "B2": ("zinbiel", ("e1", "e2"), {(0, 0): {1: 1}}),
    "B3": ("zinbiel", ("e1", "e2", "e3"), {(0, 1): {2: 1}}),
    "leibniz2": ("leibniz", ("a", "b"), {(0, 0): {1: 1}}),
    "lie2": ("lie", ("e1", "e2"), {(0, 1): {0: 1}, (1, 0): {0: -1}}),
}


def _algebra(kind: str, names: Tuple[str, ...], products: dict) -> FiniteAlgebra:
    return FiniteAlgebra(kind, len(names), names, products)


def _polyzinbiel(d: int) -> FiniteAlgebra:
    if d < 0:
        raise ValueError("polyzinbiel needs d >= 0")
    products = {(a, b): {a + b + 1: Fraction(1, b + 1)} for a in range(d) for b in range(d - a)}
    return _algebra("zinbiel", tuple(f"p{a}" for a in range(d + 1)), products)


def perturbed_b2() -> FiniteAlgebra:
    """B2 plus e2.e2 = e1: claims to be Zinbiel but is not."""
    return _algebra("zinbiel", ("e1", "e2"), {(0, 0): {1: 1}, (1, 1): {0: 1}})


def _int_args(arg: str, count: int, name: str) -> list:
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) != count or not all(re.fullmatch(r"-?\d+", p) for p in parts):
        raise ValueError(f"{name} takes {count} integer argument(s), got {arg!r}")
    return [int(p) for p in parts]


def builtin(name: str, dim_cap: int = DEFAULT_DIM_CAP) -> Union[FiniteAlgebra, Bimodule]:
    """Resolve a builtin name, e.g. "B3", "freeleibniz(2,3)", "regular(B2)"."""
    name = name.strip()
    m = re.fullmatch(r"([A-Za-z0-9]+)\((.*)\)", name)
    base, arg = (m.group(1), m.group(2)) if m else (name, None)
    if arg is None:
        if base in _FIXED:
            return _algebra(*_FIXED[base])
    elif base == "polyzinbiel":
        (d,) = _int_args(arg, 1, "polyzinbiel")
        if d + 1 > dim_cap:  # before the O(d^2) table is built
            raise ValueError(f"polyzinbiel({d}) has dimension {d + 1}, over the cap {dim_cap}")
        return _polyzinbiel(d)
    elif base == "freeleibniz":
        letters, length = _int_args(arg, 2, "freeleibniz")
        return build_truncated(letters, length, dim_cap=dim_cap)
    elif base == "regular":
        inner = builtin(arg, dim_cap=dim_cap)
        if not isinstance(inner, FiniteAlgebra):
            raise ValueError("regular(...) needs an algebra, not a module")
        return regular(inner)
    raise ValueError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )
