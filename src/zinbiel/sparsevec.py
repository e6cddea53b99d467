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
* Scaling: every object the package holds, an algebra's or a bimodule's
  tables, a cochain's values and a matrix's columns, holds its integer
  form (D, D times its values as ints) from construction and is read-only
  once built. The Fractions a user gives are cleared once, when the object
  is built (integral); a table or an output the package made in ints is
  held as its form alone. The Fractions are a view, made from the form
  (unscaled) when read: a table's or a cochain's values the first time,
  then kept, a matrix's rows afresh on each read. A kernel reads the
  forms and accumulates ints; its output, D (or a multiple of D) times the
  true one, less the zeros the sums left and the vectors they emptied
  (nonzero), is the next object's form, and two such forms compare in
  ints, cross-multiplying their scales (same_values). A kernel that reads
  several tables brings their forms to one D (common_scale), and a
  constructor that accumulated a table in ints passes it on in lowest
  terms (lowest_terms), so nothing parses or rescales a table the package
  built itself.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Dict, List, Tuple, Union

Number = Union[int, Fraction]
Vec = Dict[int, Number]
Scalar = Union[int, str, Fraction]
Scaled = Tuple[int, Dict[Any, Vec]]  # an integer form: (D, D times a table, in ints)


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


def integral(table: Mapping[Any, Mapping[int, Fraction]]) -> Scaled:
    """The integer form (D, D times the table, as ints), D the lcm of the table's denominators.

    A table maps any key to a vector of Fractions: a structure table, the
    values of a cochain, the columns of a matrix.
    """
    d = lcm(*{c.denominator for vec in table.values() for c in vec.values()})
    return d, {key: {k: c.numerator * (d // c.denominator) for k, c in vec.items()}
               for key, vec in table.items()}


def common_scale(*forms: Scaled) -> Tuple[int, List[Dict[Any, Vec]]]:
    """(D, [each table times D // D_t]) from integer forms (D_t, table_t), D the lcm of the D_t.

    A table already at D is passed on as it is, not copied. On forms that
    integral gave, D is the lcm of every denominator in their tables.
    """
    d = lcm(*(s for s, _ in forms))
    return d, [t if s == d else {key: {k: v * (d // s) for k, v in vec.items()}
                                  for key, vec in t.items()} for s, t in forms]


def nonzero(vecs: Mapping[Any, Vec]) -> Dict[Any, Vec]:
    """vecs less their zero entries and the vectors they empty; a vector with no zero is kept."""
    out: Dict[Any, Vec] = {}
    for key, vec in vecs.items():
        if 0 in vec.values():
            vec = {k: v for k, v in vec.items() if v}
        if vec:
            out[key] = vec
    return out


def lowest_terms(vecs: Mapping[Any, Vec], d: int) -> Scaled:
    """The integer vectors over d as the integer form integral gives their values.

    Zeros and the vectors they empty are dropped, and d and every entry are
    divided by their gcd, which leaves D the lcm of the denominators.
    """
    table = nonzero(vecs)
    g = d if d == 1 else gcd(d, *(v for vec in table.values() for v in vec.values()))
    if g == 1:
        return d, table
    return d // g, {key: {k: v // g for k, v in vec.items()} for key, vec in table.items()}


def same_values(a: Scaled, b: Scaled) -> bool:
    """Whether two zero-free integer forms hold the same values: x * D_b == y * D_a, key by key."""
    (da, ta), (db, tb) = a, b
    if ta.keys() != tb.keys():
        return False
    for key, x in ta.items():
        y = tb[key]
        if x.keys() != y.keys() or any(v * db != y[k] * da for k, v in x.items()):
            return False
    return True


def unscaled(form: Scaled) -> Dict[Any, Dict[int, Fraction]]:
    """The values of a form (d, vecs) as Fractions, less zeros and the vectors they empty."""
    d, vecs = form
    out: Dict[Any, Dict[int, Fraction]] = {}
    for key, vec in vecs.items():
        if d == 1:  # Fraction(v) skips the gcd that Fraction(v, 1) takes
            frac = {k: Fraction(v) for k, v in vec.items() if v}
        else:
            frac = {k: Fraction(v, d) for k, v in vec.items() if v}
        if frac:
            out[key] = frac
    return out


def add_scaled(acc: Vec, src: Vec, scale: Number = 1) -> Vec:
    """acc += scale * src, in place. Returns acc."""
    for k, v in src.items():
        nv = acc.get(k, 0) + scale * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc
