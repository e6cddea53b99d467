"""Sparse vectors, stored as {index: value} with no zero values.

Values are exact: Fractions at the public boundary, ints inside the kernels,
where the term generators read scaled integer tables. The helpers keep ints
as ints. Every mutating helper keeps the no-zeros invariant, so two vectors
are equal as maps iff their dicts are equal.

Every table, cochain and matrix the package is given takes its entries
through one rule, parse_vec: an index must be an int in range, so a bool or a
float is refused even where it compares like one; a Fraction value is kept
as the same object, any other value is parsed into one (parse_scalar); and
zeros are dropped.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Union

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


def add_at(vec: Vec, key: int, val: Number) -> None:
    """vec[key] += val, in place, dropping the key if the sum is zero."""
    nv = vec.get(key, 0) + val
    if nv:
        vec[key] = nv
    else:
        vec.pop(key, None)


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
