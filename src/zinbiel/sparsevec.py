"""Sparse vectors, stored as {index: value} with no zero values.

Values are exact: Fractions at the public boundary, ints inside the kernels,
where the term generators read scaled integer tables. The helpers keep ints
as ints. Every mutating helper keeps the no-zeros invariant, so two vectors
are equal as maps iff their dicts are equal.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

Number = Union[int, Fraction]
Vec = Dict[int, Number]


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

