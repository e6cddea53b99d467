"""Sparse vectors, stored as {index: value} with no zero values.

Values are exact: Fractions at the public boundary, ints inside the kernels,
where the term generators read scaled integer tables. The helpers keep ints
as ints. Every mutating helper keeps the no-zeros invariant, so two vectors
are equal as maps iff their dicts are equal.

Two number rules are written here once each.

* Entry: every table, cochain and matrix the package is given takes its
  entries through parse_vec: an index must be an int in range, so a bool or
  a float is refused even where it compares like one; a Fraction value is
  kept as the same object, any other value is parsed into one
  (parse_scalar); and zeros are dropped.
* Scaling: a kernel reads integer copies of the Fraction tables it is given,
  each multiplied by D, the lcm of all their denominators (integral), and
  accumulates ints; its output, D (or a multiple of D) times the true one,
  goes back to Fractions once, through unscaled, which divides each entry
  and drops the zeros the sums left and the vectors they emptied.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Any, Dict, List, Tuple, Union

Number = Union[int, Fraction]
Vec = Dict[int, Number]
Scalar = Union[int, str, Fraction]


def parse_scalar(value: Scalar) -> Fraction:
    """Exact rational from an int, a Fraction, or a string like "-3/7" or "5"."""
    if isinstance(value, bool):
        raise TypeError("scalar must be an int, string, or Fraction, not bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {value!r}") from exc
    raise TypeError(
        f"scalar must be an int, string, or Fraction, not {type(value).__name__}"
    )


def parse_vec(vec: Mapping[int, Scalar], size: int, label: str) -> Dict[int, Fraction]:
    """The nonzero entries of vec as Fractions, in a new dict; vec is only read.

    Every index must be an int in range(size), or ValueError names it after
    label. A Fraction is kept as it is, anything else goes through
    parse_scalar.
    """
    out: Dict[int, Fraction] = {}
    for k, c in vec.items():
        if type(k) is not int or not 0 <= k < size:
            raise ValueError(f"{label} index {k!r} out of range for {size}")
        f = c if type(c) is Fraction else parse_scalar(c)
        if f:
            out[k] = f
    return out


def integral(*tables: Mapping[Any, Mapping[int, Fraction]]) -> Tuple[int, List[Dict[Any, Vec]]]:
    """(D, [D times each table, as ints]), D the lcm of every denominator in the tables.

    A table maps any key to a vector of Fractions: structure tables, cochain
    values, matrix columns.
    """
    d = lcm(*{c.denominator for t in tables for vec in t.values() for c in vec.values()})
    return d, [{key: {k: c.numerator * (d // c.denominator) for k, c in vec.items()}
                for key, vec in t.items()} for t in tables]


def unscaled(vecs: Mapping[Any, Vec], d: int) -> Dict[Any, Dict[int, Fraction]]:
    """The integer vectors over d as Fractions, less their zeros and the vectors they empty."""
    out: Dict[Any, Dict[int, Fraction]] = {}
    for key, vec in vecs.items():
        if frac := {k: Fraction(v, d) for k, v in vec.items() if v}:
            out[key] = frac
    return out


def add_scaled(acc: Vec, src: Vec, scale: Number = 1) -> Vec:
    """acc += scale * src, in place. Returns acc."""
    if not scale:
        return acc
    for k, v in src.items():
        nv = acc.get(k, 0) + scale * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc
