"""Exact linear algebra over the rationals.

A Matrix stores only its nonempty rows, as {row index: {column: value}}
with no explicit zeros, so a tall matrix with few nonzeros costs a dict entry
per nonempty row and nothing per empty one. Values are Fractions; a matrix
built inside the package whose rank or kernel is all that is read may hold
ints instead, a nonzero multiple of the map it stands for. A Matrix is
read-only: it is built once, by from_nonempty or from_cols, and every
operation returns a new one. The `rows` list, with the one shared read-only
EMPTY_ROW in every empty slot, is built only on request.

Rank does not depend on the order of elimination, so rank eliminates the
matrix's columns, with its rows renumbered sparsest first (_sparsest_first,
_columns): a row that one column alone touches gets one of the smallest
labels, so that column leads there and becomes a pivot without arithmetic.
This is a static fill-in heuristic (Markowitz, Management Sci. 3, 1957) that
peels singletons as structured Gaussian elimination does (LaMacchia and
Odlyzko, CRYPTO '90). Nullspace and constraint extraction keep the rows and
go through the fully reduced form, whose pivot columns do not depend on the
order the rows are taken in (sparsest first). A forward echelon can be
extended in place by more rows without touching its pivot rows, so under one
row numbering the rank of [A | P] is A's column echelon extended by P's
columns.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each row is
cleared of denominators and kept as a primitive integer row, and Fractions
are built only when a reduced row is returned, so every result is an exact
Fraction. Pivot choice depends only on the matrix entries and the order its
rows were stored in, so runs are deterministic.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .sparsevec import Number, Vec, add_scaled

Scalar = Union[int, str, Fraction]

_ONE = Fraction(1)

Row = Mapping[int, Number]

# The row object of every empty row of every Matrix.
EMPTY_ROW: Row = MappingProxyType({})


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


IntRow = Dict[int, int]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _cancel(row: IntRow, piv: IntRow, col: int) -> IntRow:
    """Primitive a*row - b*piv, with a and b chosen to clear column col.

    a and b are the two entries at col divided by their gcd, which keeps the
    multipliers, and so the entries, as small as possible.
    """
    p, q = piv[col], row[col]
    g = gcd(p, q)
    a, b = p // g, q // g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        nv = row.get(k, 0) - b * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    return _primitive(row) if row else row


def _eliminate(
    rows: Iterable[Row], reduce_full: bool, pivots: Optional[Dict[int, IntRow]] = None
) -> Dict[int, IntRow]:
    """Eliminate rows into {pivot column: primitive integer row}.

    The incoming nonzero rows are taken sparsest first (a stable sort by
    length, so ties keep their order). Each is scaled by the lcm of its
    denominators to a primitive integer row, then reduced against the pivots
    found so far, keyed by its current leading (smallest) column; a row that
    survives becomes a new pivot. The pivot rows are an echelon basis of the
    row space, and the leading columns of every echelon basis are the pivot
    columns of the reduced echelon form, so the pivot columns do not depend
    on the row order. With reduce_full, back-substitution clears pivot
    columns from all other pivot rows; divided by their leads, these are the
    unique reduced echelon form.

    Given pivots from an earlier forward pass, the rows extend that echelon in
    place: its pivot rows are only read, and each surviving row is added as
    a new pivot, so len(pivots) becomes the rank of both row sets together.
    """
    pivots = {} if pivots is None else pivots
    for row in sorted(filter(None, rows), key=len):
        den = lcm(*[v.denominator for v in row.values()])
        r = _primitive({k: v.numerator * (den // v.denominator) for k, v in row.items()})
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = r
                break
            r = _cancel(r, piv, lead)
    if reduce_full:
        for lead in sorted(pivots, reverse=True):
            piv = pivots[lead]
            for other_lead, other in pivots.items():
                if other_lead < lead and lead in other:
                    pivots[other_lead] = _cancel(other, piv, lead)
    return pivots


def _sparsest_first(rows: Mapping[int, Row]) -> List[int]:
    """The indices of the stored rows, fewest entries first, ties in stored order."""
    return sorted(rows, key=lambda i: len(rows[i]))


def _columns(rows: Mapping[int, Row], order: Iterable[int]) -> Dict[int, Dict[int, Number]]:
    """{column: {p: value}} of the rows, row order[p] renamed p; rows not in order are dropped.

    The column dicts are new; the rows are only read.
    """
    cols: Dict[int, Dict[int, Number]] = {}
    for p, i in enumerate(order):
        for j, v in rows.get(i, EMPTY_ROW).items():
            cols.setdefault(j, {})[p] = v
    return cols


class Matrix:
    """Read-only row-sparse matrix of Fractions, or of ints inside the package.

    Only the nonempty rows are stored, as {row index: {column: value}}, so
    no operation touches the empty rows of a tall matrix. Every operation
    returns a new Matrix and writes into none of its inputs' rows. The rows
    property lists every row, EMPTY_ROW in the empty slots, and is built
    afresh on each access.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self._rows: Dict[int, Row] = {}

    @classmethod
    def from_nonempty(cls, nrows: int, ncols: int, touched: Mapping[int, Vec]) -> "Matrix":
        """Build from {row index: row dict}; empty row dicts are not stored.

        The row dicts are taken over, not copied.
        """
        m = cls(nrows, ncols)
        for i, row in touched.items():
            if not 0 <= i < nrows:
                raise ValueError(f"row index {i} out of range for {nrows} rows")
            if row:
                m._rows[i] = row
        return m

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Scalar]], nrows: int) -> "Matrix":
        """Build from dense columns; entries may be ints, strings, or Fractions.

        A column whose length is not nrows raises ValueError.
        """
        touched: Dict[int, Vec] = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError(f"column {j} has {len(col)} entries, expected {nrows}")
            for i, x in enumerate(col):
                v = parse_scalar(x)
                if v:
                    touched.setdefault(i, {})[j] = v
        return cls.from_nonempty(nrows, len(cols), touched)

    @property
    def rows(self) -> List[Row]:
        """All nrows rows as a new list, EMPTY_ROW in every empty slot."""
        rows = [EMPTY_ROW] * self.nrows
        for i, row in self._rows.items():
            rows[i] = row
        return rows

    @property
    def num_nonzero(self) -> int:
        return sum(map(len, self._rows.values()))

    def is_zero(self) -> bool:
        return not self._rows

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack needs equal row counts")
        shift = self.ncols
        touched = {i: dict(a) for i, a in self._rows.items()}
        for i, b in other._rows.items():
            row = touched.setdefault(i, {})
            for c, v in b.items():
                row[c + shift] = v
        return Matrix.from_nonempty(self.nrows, self.ncols + other.ncols, touched)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        touched: Dict[int, Vec] = {}
        for i, row in self._rows.items():
            acc: Vec = {}
            for c, v in row.items():
                add_scaled(acc, other._rows.get(c, EMPTY_ROW), v)
            touched[i] = acc
        return Matrix.from_nonempty(self.nrows, other.ncols, touched)

    def rank(self) -> int:
        """The rank, from the columns, with the rows renumbered sparsest first."""
        cols = _columns(self._rows, _sparsest_first(self._rows))
        return len(_eliminate(cols.values(), reduce_full=False))

    def reduced_rows(self) -> List[Tuple[int, Vec]]:
        """Reduced echelon form as (pivot column, row) pairs, pivots ascending.

        Rows are scaled to a unit pivot and cleared above and below, so the
        result is the canonical reduced form of the row space.
        """
        pivots = _eliminate(self._rows.values(), reduce_full=True)
        return [(c, {k: Fraction(v, row[c]) for k, v in row.items()})
                for c, row in sorted(pivots.items())]

    def nullspace(self) -> List[List[Fraction]]:
        """Basis of the right kernel as dense vectors, one per free column.

        The basis vector for free column f has a 1 at f and is supported on
        pivot columns otherwise, so stacking them gives the standard reduced
        parameterization of the solution space.
        """
        reduced = self.reduced_rows()
        pivot_set = {pc for pc, _ in reduced}
        zero = Fraction(0)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            vec = [zero] * self.ncols
            vec[fc] = _ONE
            for pc, row in reduced:
                coeff = row.get(fc)
                if coeff:
                    vec[pc] = -coeff
            basis.append(vec)
        return basis

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {self.num_nonzero} nonzero)"
