"""Independent reference computations shared by the test modules.

Everything here is deliberately naive: dense lists, textbook elimination,
and literal transcriptions of the printed low-degree formulas.  The point
is a second route to the same numbers, not speed.
"""

from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Tuple

from zinbiel import Cochain
from zinbiel.algebras import Bimodule
from zinbiel.complexes import cochain_to_vector, dl_space_dim, dl_tuples


def dense_rref(rows: List[List[Fraction]]) -> List[Tuple[int, List[Fraction]]]:
    """Reduced row echelon form by textbook Gauss-Jordan on dense lists.

    Returns (pivot column, row) pairs, pivots ascending, each row dense with
    a 1 at its pivot and 0 in every other pivot column.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return list(zip(pivots, rows))


def dense_rank(rows: List[List[Fraction]]) -> int:
    return len(dense_rref(rows))


def dense_nullspace(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Right-kernel basis read off dense_rref: one vector per free column f,
    with 1 at f and minus the pivot rows' entries at f on the pivot columns."""
    ncols = len(rows[0]) if rows else 0
    reduced = dense_rref(rows)
    pivot_cols = {c for c, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in reduced:
            vec[c] = -row[f]
        basis.append(vec)
    return basis


def dense_delta_matrix(
    module: Bimodule,
    degree: int,
    delta: Callable[[Cochain, Bimodule], Cochain],
) -> List[List[Fraction]]:
    """Matrix of a differential, one basis cochain at a time, densely."""
    bd = module.algebra.dim
    md = module.dim
    nrows = dl_space_dim(bd, md, degree + 1)
    cols = []
    for key in dl_tuples(bd, degree):
        for k in range(md):
            basis = Cochain("dl", degree, bd, md, {key: {k: Fraction(1)}})
            out = delta(basis, module)
            cols.append(cochain_to_vector(out))
    zero = Fraction(0)
    return [[cols[j].get(i, zero) for j in range(len(cols))] for i in range(nrows)]


LieTable = Dict[Tuple[int, int], Dict[int, Fraction]]


def _bracket(table: LieTable, x: Dict[int, Fraction], y: Dict[int, Fraction]):
    out: Dict[int, Fraction] = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in table.get((i, j), {}).items():
                v = out.get(k, Fraction(0)) + a * b * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def ce_delta1_adjoint(table: LieTable, dim: int, f: Dict[int, Dict[int, Fraction]]):
    """delta f (x, y) = -f([x,y]) + [x, f(y)] - [y, f(x)], alternating output."""
    def ev(i):
        return f.get(i, {})

    out = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            term = {}
            for k, c in _bracket(table, {x: Fraction(1)}, {y: Fraction(1)}).items():
                for m, v in ev(k).items():
                    term[m] = term.get(m, Fraction(0)) - c * v
            for m, v in _bracket(table, {x: Fraction(1)}, ev(y)).items():
                term[m] = term.get(m, Fraction(0)) + v
            for m, v in _bracket(table, {y: Fraction(1)}, ev(x)).items():
                term[m] = term.get(m, Fraction(0)) - v
            out[(x, y)] = {m: v for m, v in term.items() if v}
    return out


def ce_delta2_adjoint(table: LieTable, dim: int, f):
    """Literal transcription of the printed degree-2 formula, adjoint case.

    f is a dict keyed by ordered pairs (i, j) with i < j; evaluation at a
    general pair goes through the sign of the swap.
    """
    def ev(i, j):
        if i == j:
            return {}
        if i < j:
            return f.get((i, j), {})
        return {m: -v for m, v in f.get((j, i), {}).items()}

    def ev_elem(vec, j):
        out = {}
        for i, a in vec.items():
            for m, v in ev(i, j).items():
                w = out.get(m, Fraction(0)) + a * v
                if w:
                    out[m] = w
                else:
                    out.pop(m, None)
        return out

    out = {}
    for x, y, z in product(range(dim), repeat=3):
        if not (x < y < z):
            continue
        term: Dict[int, Fraction] = {}

        def add(vec, sign):
            for m, v in vec.items():
                w = term.get(m, Fraction(0)) + sign * v
                if w:
                    term[m] = w
                else:
                    term.pop(m, None)

        one = Fraction(1)
        add(ev_elem(_bracket(table, {x: one}, {y: one}), z), Fraction(-1))
        add(ev_elem(_bracket(table, {x: one}, {z: one}), y), Fraction(1))
        add(ev_elem(_bracket(table, {y: one}, {z: one}), x), Fraction(-1))
        add(_bracket(table, {x: one}, ev(y, z)), Fraction(1))
        add(_bracket(table, {y: one}, ev(x, z)), Fraction(-1))
        add(_bracket(table, {z: one}, ev(x, y)), Fraction(1))
        out[(x, y, z)] = term
    return out
