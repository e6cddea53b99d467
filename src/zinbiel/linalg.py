"""Exact linear algebra over the rationals.

A Matrix stores only its nonempty columns, as {column index: {row: value}}
with no explicit zeros, so a tall matrix with few nonzeros costs a dict entry
per nonzero and nothing per empty row or column. Values are Fractions; a
matrix built inside the package whose rank or kernel is all that is read may
hold ints instead, a nonzero multiple of the map it stands for. Columns are
the orientation in which the package assembles a map (column X is the image
of the basis vector e_X) and in which rank eliminates it. A Matrix is
read-only: it is built once, by from_nonempty or the package's integer
assembly, and every operation returns a new one, which may share its
inputs' column dicts. The `rows` list, with the one shared read-only
EMPTY_ROW in every empty slot, is transposed from the columns only on
request.

Rank does not depend on the order of elimination, so rank eliminates the
columns, with the rows renumbered sparsest first: a count of how many
columns touch each row orders them, ties in the order the columns first
touch them (_sparsest_labels). A row that one column alone touches gets one
of the smallest labels, so that column leads there and becomes a pivot
without arithmetic. This is a static fill-in heuristic (Markowitz,
Management Sci. 3, 1957) that peels singletons as structured Gaussian
elimination does (LaMacchia and Odlyzko, CRYPTO '90). Nullspace and
constraint extraction transpose the columns once into rows and go through
the fully reduced form, back-substituted from the rows' forward echelon,
whose pivot columns do not depend on the order the rows are taken in
(sparsest first). A forward echelon can be extended in place by more
vectors without touching its pivot vectors, so under one row numbering the
rank of [A | P] is A's column echelon extended by P's columns.

Rank is the count of that echelon's lead rows (_lead_rows), which are read
for clearing too (Chen and Kerber, "Persistent homology computation with a
twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and Compress",
TopoInVis 2014). Each pivot is zero before its lead, so the pivots of
delta^(n-1) with the unit vectors at the other rows are a basis of C^n. If
delta^n o delta^(n-1) = 0, delta^n kills the pivots, and its rank is that of
its columns at the rows where no pivot leads. complexes.cohomology_dims
certifies that product as exactly zero before it clears anything; when it is
not, the cleared set is empty and every column is ranked.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968), and
_eliminate is its one entry: it reads the caller's vectors, never writes
them, and turns each into a fresh primitive integer vector, relabelled if
asked, only as it comes to reduce it, so a copy outlives that step only as
a pivot. Every column holds one number type (from_nonempty stores every
public entry as a Fraction, through the package's one entry rule,
sparsevec.parse_vec, and the integer assembly and mul of integer inputs
keep ints), so the type of a vector's first value tells whether it has
denominators to clear: an int vector is only divided by its gcd. Fractions
are built only when a reduced row is returned, so every result is an exact
Fraction. Pivot choice depends only on the matrix entries and the order its
columns were stored in, so runs are deterministic.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

# parse_scalar lives in sparsevec; code that imports it from linalg still finds it.
from .sparsevec import Number, Vec, add_scaled, parse_scalar, parse_vec

_ONE = Fraction(1)

Row = Mapping[int, Number]

# The row object of every empty row of every Matrix.
EMPTY_ROW: Row = MappingProxyType({})


IntRow = Dict[int, int]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _cancel(row: IntRow, piv: IntRow, col: int) -> IntRow:
    """Primitive a*row - b*piv, with a and b chosen to clear column col.

    a and b are the two entries at col divided by their gcd, which keeps the
    multipliers, and so the entries, as small as possible. The row may be
    written in place.
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


def _sparsest_labels(cols: Iterable[Row], then: Iterable[Iterable[int]] = ()) -> Dict[int, int]:
    """{row: label} for every row the columns touch: 0, 1, ... from the fewest columns up.

    Rows touched by equally many columns keep the order the columns first
    touch them in. The rows that only the vectors of then touch take the
    next labels, in the order those vectors first touch them.
    """
    count = Counter(chain.from_iterable(cols))
    label = {i: p for p, i in enumerate(sorted(count, key=count.__getitem__))}
    for i in chain.from_iterable(then):
        label.setdefault(i, len(label))
    return label


def _eliminate(
    vecs: Iterable[Row], label: Optional[Mapping[int, int]] = None,
    pivots: Optional[Dict[int, IntRow]] = None,
) -> Dict[int, IntRow]:
    """The forward echelon of vecs, as {pivot key: primitive integer vector}; vecs are only read.

    The vectors are taken sparsest first (a stable sort by length, so ties
    keep their order). Just before it is reduced, each nonempty one becomes
    a fresh primitive integer vector: a vector of Fractions is multiplied by
    the lcm of its denominators (its values are all of one type, so its
    first value says which it is), every vector is divided by its gcd, and
    its key k becomes label[k] when a label is given. It is reduced against
    the pivots found so far, keyed by its current leading (smallest) key,
    and kept as a new pivot if it survives. The pivots are an echelon basis
    of the span, and the leading keys of every echelon basis are the pivot
    columns of the reduced echelon form, so the pivot keys do not depend on
    the order.

    Given pivots from an earlier pass, the vectors extend that echelon in
    place: its pivots are only read, and each surviving vector is added as
    a new pivot, so len(pivots) becomes the rank of both sets together.
    """
    pivots = {} if pivots is None else pivots
    for vec in sorted(filter(None, vecs), key=len):
        vals: Iterable[Number] = vec.values()
        if isinstance(next(iter(vals)), Fraction):
            den = lcm(*[v.denominator for v in vals])
            vals = [v.numerator * (den // v.denominator) for v in vals]
        g = gcd(*vals)
        keys = vec if label is None else map(label.__getitem__, vec)
        r = dict(zip(keys, vals)) if g == 1 else {k: v // g for k, v in zip(keys, vals)}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = r
                break
            r = _cancel(r, piv, lead)
    return pivots


def _transposed(cols: Mapping[int, Row]) -> Dict[int, Vec]:
    """{row: {column: value}} of the columns, in new dicts; the columns are only read."""
    rows: Dict[int, Vec] = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    return rows


class Matrix:
    """Read-only column-sparse matrix of Fractions, or of ints inside the package.

    Only the nonempty columns are stored, as {column index: {row: value}},
    so no operation touches the empty rows or columns of a sparse matrix.
    Every operation returns a new Matrix and writes into none of its
    inputs' columns; hstack shares them. The rows property lists every row,
    EMPTY_ROW in the empty slots, transposed afresh on each access.
    """

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(self, nrows: int, ncols: int):
        if type(nrows) is not int or type(ncols) is not int or nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative ints")
        self.nrows = nrows
        self.ncols = ncols
        self._cols: Dict[int, Row] = {}

    @classmethod
    def _of(cls, nrows: int, ncols: int, cols: Dict[int, Row]) -> "Matrix":
        """Take over {column: nonempty column dict}, unchecked: indices in range, no zeros."""
        m = cls(nrows, ncols)
        m._cols = cols
        return m

    @classmethod
    def from_nonempty(cls, nrows: int, ncols: int, touched: Mapping[int, Vec]) -> "Matrix":
        """Build from {row index: row dict}, transposed once into columns.

        Each row index must be an int in range, and each row goes through
        sparsevec.parse_vec: its column indices ints in range, its values
        ints, strings or Fractions, stored as Fractions, zeros dropped. The
        row dicts are only read.
        """
        rows: Dict[int, Vec] = {}
        for i, row in touched.items():
            if type(i) is not int or not 0 <= i < nrows:
                raise ValueError(f"row index {i!r} out of range for {nrows} rows")
            rows[i] = parse_vec(row, ncols, f"row {i} column")
        return cls._of(nrows, ncols, dict(sorted(_transposed(rows).items())))

    @property
    def rows(self) -> List[Row]:
        """All nrows rows as a new list of new dicts, EMPTY_ROW in every empty slot."""
        rows = [EMPTY_ROW] * self.nrows
        for i, row in _transposed(self._cols).items():
            rows[i] = row
        return rows

    @property
    def num_nonzero(self) -> int:
        return sum(map(len, self._cols.values()))

    def is_zero(self) -> bool:
        return not self._cols

    def hstack(self, other: "Matrix") -> "Matrix":
        """[self | other], sharing both operands' column dicts."""
        if self.nrows != other.nrows:
            raise ValueError("hstack needs equal row counts")
        shift = self.ncols
        cols = dict(self._cols)
        for j, col in other._cols.items():
            cols[j + shift] = col
        return Matrix._of(self.nrows, self.ncols + other.ncols, cols)

    def mul(self, other: "Matrix") -> "Matrix":
        """self times other: column j is the sum over c of other[c, j] * self[:, c]."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        cols: Dict[int, Row] = {}
        for j, bcol in other._cols.items():
            acc: Vec = {}
            for c, v in bcol.items():
                add_scaled(acc, self._cols.get(c, EMPTY_ROW), v)
            if acc:
                cols[j] = acc
        return Matrix._of(self.nrows, other.ncols, cols)

    def rank(self) -> int:
        """The rank, from the columns, with the rows renumbered sparsest first."""
        return len(self._lead_rows())

    def _lead_rows(self) -> List[int]:
        """The row at which each pivot of rank's column echelon leads, as a row index.

        Each pivot is zero at every row labelled before its lead, so the
        pivots and the unit vectors at the other rows form a basis of the
        space of all nrows coordinates.
        """
        cols = self._cols.values()
        label = _sparsest_labels(cols)
        row_of = list(label)
        return [row_of[p] for p in _eliminate(cols, label)]

    def reduced_rows(self) -> List[Tuple[int, Vec]]:
        """Reduced echelon form as (pivot column, row) pairs, pivots ascending.

        Back-substitution clears each pivot column from the other rows of
        the rows' forward echelon, and each row is scaled to a unit pivot, so
        the result is the canonical reduced form of the row space.
        """
        pivots = _eliminate(_transposed(self._cols).values())
        for lead in sorted(pivots, reverse=True):
            piv = pivots[lead]
            for other_lead, other in pivots.items():
                if other_lead < lead and lead in other:
                    pivots[other_lead] = _cancel(other, piv, lead)
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
