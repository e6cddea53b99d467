"""Sparse vectors over the rationals, stored as {index: Fraction} with no zero values.

Every mutating helper keeps the no-zeros invariant, so two vectors are equal
as maps iff their dicts are equal.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict

Vec = Dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def add_at(vec: Vec, key: int, val: Fraction) -> None:
    """vec[key] += val, in place, dropping the key if the sum is zero."""
    nv = vec.get(key, 0) + val
    if nv:
        vec[key] = nv
    else:
        vec.pop(key, None)


def add_scaled(acc: Vec, src: Vec, scale: Fraction = ONE) -> Vec:
    """acc += scale * src, in place. Returns acc."""
    if not scale:
        return acc
    for k, v in src.items():
        nv = acc.get(k, ZERO) + scale * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc

