"""Exact rational matrices: rank, reduction, nullspace, products."""

import copy
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (
    dense_nullspace,
    dense_rank,
    dense_rref,
    dense_vec,
    from_rows,
    mul_vec,
    to_dense,
    transpose,
)
from zinbiel import Matrix, builtin, dl_delta_matrix, linalg, regular
from zinbiel.complexes import _assemble
from zinbiel.linalg import EMPTY_ROW, _columns, _eliminate, _sparsest_first, parse_scalar


small = st.integers(-4, 4)


def matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw, max_dim=6):
    """Rational matrices with all-zero and duplicated rows mixed in."""
    ncols = draw(st.integers(1, max_dim))
    rows = draw(st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols), min_size=1, max_size=max_dim
    ))
    extras = draw(st.lists(st.one_of(st.none(), st.integers(0, len(rows) - 1)), max_size=3))
    for src in extras:
        row = [Fraction(0)] * ncols if src is None else list(rows[src])
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def _column_matrix(m):
    """m's columns, as _columns builds them in the identity row order, stored as rows."""
    return Matrix.from_nonempty(m.ncols, m.nrows, _columns(m._rows, range(m.nrows)))


def reduced_dense(m):
    return [(c, dense_vec(row, m.ncols)) for c, row in m.reduced_rows()]


def test_parse_scalar():
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar("2/7") == Fraction(2, 7)
    assert parse_scalar(Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(TypeError):
        parse_scalar(True)
    with pytest.raises(ValueError):
        parse_scalar("x")


def test_rank_fixed():
    m = from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    assert from_rows([[int(i == j) for j in range(4)] for i in range(4)]).rank() == 4
    assert Matrix(3, 5).rank() == 0


def test_reduced_rows_give_constraints():
    m = from_rows([[1, 0, 2], [0, 1, -1], [1, 1, 1]])
    reduced = m.reduced_rows()
    pivots = [p for p, _ in reduced]
    assert pivots == sorted(pivots)
    pivot_set = set(pivots)
    for pivot, row in reduced:
        assert row[pivot] == 1
        assert min(row) == pivot
        # fully reduced: no entries under any other pivot
        assert not (set(row) & (pivot_set - {pivot}))


def test_nullspace_fixed():
    m = from_rows([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for vec in basis:
        out = mul_vec(m, vec)
        assert all(x == 0 for x in out)


def test_mul_and_hstack():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[1, 0], [3, 1]])
    assert to_dense(a.mul(b)) == [
        [Fraction(7), Fraction(2)],
        [Fraction(3), Fraction(1)],
    ]
    h = a.hstack(b)
    assert (h.nrows, h.ncols) == (2, 4)
    assert to_dense(h)[0] == [Fraction(1), Fraction(2), Fraction(1), Fraction(0)]
    with pytest.raises(ValueError):
        a.mul(Matrix(3, 3))


@settings(deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle(rows):
    assert from_rows(rows).rank() == dense_rank(rows)


@settings(deadline=None)
@given(rational_matrices())
def test_elimination_matches_dense_rref(rows):
    m = from_rows(rows)
    want = dense_rref(rows)
    assert m.rank() == len(want)
    assert reduced_dense(m) == want
    assert m.nullspace() == dense_nullspace(rows)


@settings(deadline=None)
@given(rational_matrices(), st.data())
def test_extending_an_echelon_keeps_its_pivot_rows(rows, data):
    # Rows split into A and P: extending A's forward echelon by P counts the
    # rank of both, and writes no pivot row that A's elimination made.
    split = data.draw(st.integers(0, len(rows)))
    sparse = from_rows(rows).rows
    pivots = _eliminate(sparse[:split], False)
    before = copy.deepcopy(pivots)
    _eliminate(sparse[split:], False, pivots)
    assert len(pivots) == dense_rank(rows)
    assert all(pivots[c] == row for c, row in before.items())


@settings(deadline=None)
@given(rational_matrices(), st.randoms(use_true_random=False), st.data())
def test_results_do_not_depend_on_row_order(rows, rng, data):
    # Elimination takes rows sparsest first, so its pivot rows depend on the
    # row order; the rank, reduced form, nullspace and extension counts must not.
    m = from_rows(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    p = from_rows(shuffled)
    want = dense_rref(rows)
    assert m.rank() == p.rank() == len(want)
    assert reduced_dense(m) == reduced_dense(p) == want
    assert m.nullspace() == p.nullspace() == dense_nullspace(rows)

    split = data.draw(st.integers(0, len(shuffled)))
    a, rest = shuffled[:split], shuffled[split:]
    pivots = _eliminate(from_rows(a).rows, False)
    _eliminate(from_rows(rest).rows, False, pivots)
    assert len(pivots) == dense_rank(rows)


def _int_matrix(rows):
    """The matrix with its entries stored as given, ints as the integer assembly keeps them."""
    return Matrix.from_nonempty(len(rows), len(rows[0]), {
        i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(rows)
    })


@settings(deadline=None)
@given(matrices(), st.data())
def test_int_rows_are_eliminated_without_being_written(rows, data):
    # _cancel writes into its row in place, so elimination must work on a
    # copy of every incoming row, an int row too.
    m = _int_matrix(rows)
    before = copy.deepcopy(m._rows)
    f = from_rows(rows)
    assert m.rank() == f.rank()
    assert m.reduced_rows() == f.reduced_rows()
    assert m.nullspace() == f.nullspace()
    stored = list(m._rows.values())
    split = data.draw(st.integers(0, len(stored)))
    pivots = _eliminate(stored[:split], False)
    _eliminate(stored[split:], False, pivots)
    assert len(pivots) == dense_rank(rows)
    assert m._rows == before


def test_fractional_complex_rank_and_reduced_form():
    module = regular(builtin("polyzinbiel(3)"))
    assert dl_delta_matrix(module, 3).rank() == 204
    d1 = dl_delta_matrix(module, 1)
    assert (d1.nrows, d1.ncols) == (64, 16)
    assert any(v.denominator > 1 for row in d1.rows for v in row.values())
    assert reduced_dense(d1) == dense_rref(to_dense(d1))


def test_from_cols_parses_like_from_rows():
    for bad in (0.1, True):
        with pytest.raises(TypeError):
            Matrix.from_cols([[bad, 1]], 2)
        with pytest.raises(TypeError):
            from_rows([[bad]])
    m = Matrix.from_cols([[0, "2/3"], [1, 0]], 2)
    assert to_dense(m) == [[0, 1], [Fraction(2, 3), 0]]


def test_from_cols_rejects_dense_column_of_wrong_length():
    for col in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match=rf"column 1 has {len(col)} entries"):
            Matrix.from_cols([[0, 0, 1], col], 3)


def test_empty_rows_are_shared_and_never_written_through():
    m = Matrix(3, 5)
    assert all(row is EMPTY_ROW for row in m.rows)
    assert not EMPTY_ROW and m.is_zero()
    m = Matrix.from_nonempty(3, 5, {1: {2: Fraction(7, 3)}})
    assert m.rows[0] is EMPTY_ROW and m.rows[2] is EMPTY_ROW
    with pytest.raises(TypeError):
        EMPTY_ROW[0] = Fraction(1)

    # Writing into an output's stored rows changes none of its inputs.
    a = from_rows([[1, 0], [0, 0], [0, 2]])
    b = from_rows([[0, 3], [0, 0], [4, 0]])
    eye = from_rows([[1, 0], [0, 1]])
    cols = [[1, 0, 0], [0, 0, 5]]
    before = (to_dense(a), to_dense(b), to_dense(eye), [list(c) for c in cols])
    for out in (a.hstack(b), _column_matrix(a), a.mul(eye), Matrix.from_cols(cols, 3)):
        for r, row in out._rows.items():
            for c in range(out.ncols):
                row[c] = Fraction(r * out.ncols + c + 1)
        assert (to_dense(a), to_dense(b), to_dense(eye), cols) == before


def _dense_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@settings(deadline=None)
@given(rational_matrices(), st.data())
def test_constructors_match_dense_oracle(rows, data):
    nrows, ncols = len(rows), len(rows[0])
    cols = [list(col) for col in zip(*rows)]
    width = data.draw(st.integers(1, 4))
    other = data.draw(st.lists(
        st.lists(rationals, min_size=width, max_size=width), min_size=ncols, max_size=ncols
    ))
    m = from_rows(rows)
    built = [
        (m, rows),
        (_column_matrix(m), cols),
        (m.hstack(from_rows(rows[::-1])), [r + s for r, s in zip(rows, rows[::-1])]),
        (m.mul(from_rows(other)), _dense_mul(rows, other)),
        (Matrix.from_cols(cols, nrows), rows),
    ]
    for out, want in built:
        assert to_dense(out) == want
        assert len(out.rows) == out.nrows
        assert all(row is EMPTY_ROW for row in out.rows if not row)


@settings(deadline=None)
@given(matrices())
def test_rank_of_transpose(rows):
    m = from_rows(rows)
    assert m.rank() == transpose(m).rank()


@settings(deadline=None)
@given(matrices())
def test_rank_nullity(rows):
    m = from_rows(rows)
    basis = m.nullspace()
    assert m.rank() + len(basis) == m.ncols
    for vec in basis:
        assert all(x == 0 for x in mul_vec(m, vec))
    if basis:
        assert Matrix.from_cols(basis, m.ncols).rank() == len(basis)


@settings(deadline=None)
@given(
    st.lists(st.lists(small, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(small, min_size=3, max_size=3), min_size=4, max_size=4),
)
def test_product_against_dense(rows, brows):
    a = from_rows(rows)
    b = from_rows(brows)
    got = to_dense(a.mul(b))
    want = [
        [sum(Fraction(rows[i][k]) * brows[k][j] for k in range(4)) for j in range(3)]
        for i in range(a.nrows)
    ]
    assert got == want


def test_rows_view_lists_the_stored_rows():
    a = from_rows([[1, 0], [0, 0], [0, 2], [0, 0]])
    b = from_rows([[0, 3], [0, 0], [4, 0], [0, 0]])
    built = (
        a,
        Matrix.from_nonempty(4, 2, {3: {0: Fraction(1)}, 1: {}}),
        Matrix.from_cols([[1, 0, 0, 0], [0, 0, 5, 0]], 4),
        _column_matrix(a),
        a.hstack(b),
        a.mul(from_rows([[1, 0], [0, 1]])),
    )
    for m in built:
        view = m.rows
        assert len(view) == m.nrows
        assert all(view[i] is row for i, row in m._rows.items())
        assert all(row is EMPTY_ROW for i, row in enumerate(view) if i not in m._rows)
        assert all(view[i] for i in m._rows)
        assert Matrix.from_nonempty(m.nrows, m.ncols, dict(enumerate(view))).rows == view
    rows = [{1: Fraction(2)}, EMPTY_ROW, {}, {0: Fraction(-1, 3)}]
    m = Matrix.from_nonempty(4, 2, dict(enumerate(rows)))
    assert m.rows == rows and m.rows[0] is rows[0] and m.rows[2] is EMPTY_ROW
    assert sorted(m._rows) == [0, 3]


@st.composite
def tall_sparse(draw, nrows=None):
    """Dense rows of an up to 40x12 int or Fraction matrix, at least 80 % zeros.

    Empty rows, rows with one nonzero and a repeated column are mixed in.
    """
    ncols = draw(st.integers(1, 12))
    nrows = nrows or draw(st.integers(ncols, 40))
    values = draw(st.sampled_from([
        st.integers(-4, 4).filter(bool),
        st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 6)),
    ]))
    rows = [[0] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    for i, j in draw(st.lists(cells, max_size=nrows * ncols // 10)):
        rows[i][j] = draw(values)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                            st.integers(0, ncols - 1)), max_size=1)):
        for row in rows:
            row[dst] = row[src]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
        if not any(rows[i]):
            rows[i][draw(st.integers(0, ncols - 1))] = draw(values)
    assume(sum(map(bool, sum(rows, []))) <= nrows * ncols // 5)
    return rows


@settings(deadline=None)
@given(tall_sparse())
def test_column_rank_of_tall_sparse_matrices(rows):
    m = _int_matrix(rows)
    assert m.rank() == dense_rank(rows) == len(m.reduced_rows())


@settings(deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(tall_sparse(n), tall_sparse(n))))
def test_column_echelon_extends_under_a_shared_row_order(pair):
    # les_report renumbers rows by A's sparsest-first order, then P's other
    # rows, eliminates A's columns and extends those pivots by P's columns.
    a_rows, p_rows = pair
    a, p = _int_matrix(a_rows), _int_matrix(p_rows)
    order = _sparsest_first(a._rows)
    order += [i for i in p._rows if i not in a._rows]
    pivots = _eliminate(_columns(a._rows, order).values(), False)
    assert len(pivots) == dense_rank(a_rows)
    _eliminate(_columns(p._rows, order).values(), False, pivots)
    assert len(pivots) == dense_rank([r + s for r, s in zip(a_rows, p_rows)])


def test_column_rank_of_dl_degree_4_cancels_little(monkeypatch):
    # Renumbering rows sparsest first makes most columns pivots without
    # arithmetic: about 3,500 cancellations, against 22,738 in the stored
    # row order.
    calls = 0
    cancel = linalg._cancel

    def counted(*args):
        nonlocal calls
        calls += 1
        return cancel(*args)

    monkeypatch.setattr(linalg, "_cancel", counted)
    m = _assemble("dl", regular(builtin("polyzinbiel(3)")), 4)
    assert m.rank() == 819
    assert calls <= 5000
