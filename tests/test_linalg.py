"""Exact rational matrices: rank, reduction, nullspace, products."""

import copy
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (
    change_basis,
    dense_nullspace,
    dense_rank,
    dense_rref,
    dense_vec,
    from_cols,
    from_rows,
    identity,
    mul_vec,
    sparsest_labels,
    to_dense,
    transpose,
    whole_lead_rows,
)
from zinbiel import (
    Bimodule,
    Cochain,
    FiniteAlgebra,
    Matrix,
    TensorContext,
    builtin,
    dl_delta_matrix,
    linalg,
    psi_matrix,
    regular,
)
from zinbiel.complexes import _assemble, _delta_map, _matrix
from zinbiel.linalg import EMPTY_ROW, _eliminate, _split_owners
from zinbiel.sparsevec import integral, parse_scalar, unscaled
from zinbiel.tensor_bridge import _psi_map


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
    """m's transpose: its stored columns, in Fractions, read as the rows of a new Matrix."""
    return Matrix.from_nonempty(m.ncols, m.nrows, unscaled((m._scale, m._cols)))


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


# Each builder stores one sparse vector of length 2 and returns what it kept.
ENTRY_RULE_BUILDERS = {
    "FiniteAlgebra": lambda vec: FiniteAlgebra("zinbiel", 2, ("a", "b"), {(0, 1): vec}).products,
    "Bimodule": lambda vec: Bimodule(builtin("B2"), 2, ("m", "n"), left={(0, 1): vec}).left,
    "Cochain": lambda vec: Cochain("dl", 1, 2, 2, {(0,): vec}).values,
    "Matrix.from_nonempty": lambda vec: {
        i: row for i, row in enumerate(Matrix.from_nonempty(1, 2, {0: vec}).rows) if row},
}


@pytest.mark.parametrize("name", ENTRY_RULE_BUILDERS)
def test_one_entry_rule(name):
    build = ENTRY_RULE_BUILDERS[name]
    # True and 1.0 compare like the index 1, so only a type test stops them.
    for index in (True, 1.0, 2, -1):
        with pytest.raises(ValueError, match=f"index {index} out of range"):
            build({index: 1})
    half = Fraction(1, 2)
    kept = [v for vec in build({1: half, 0: Fraction(0)}).values() for v in vec.values()]
    assert kept == [half]
    # A table or a cochain keeps the Fraction it is given; a matrix keeps
    # the integer form, and its rows are made from it when read.
    assert (kept[0] is half) == (name != "Matrix.from_nonempty")
    assert build({0: 0, 1: "0/3"}) == {}


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
    with pytest.raises(ValueError, match="hstack needs equal row counts"):
        a.hstack(Matrix(3, 3))


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
    sparse = _int_rows(rows)
    pivots = _eliminate(sparse[:split])
    before = copy.deepcopy(pivots)
    _eliminate(sparse[split:], pivots=pivots)
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
    pivots = _eliminate(_int_rows(a))
    _eliminate(_int_rows(rest), pivots=pivots)
    assert len(pivots) == dense_rank(rows)


def _int_rows(rows):
    """The dense rows as sparse int vectors, all times one D (sparsevec.integral), in order."""
    return list(integral(dict(enumerate(from_rows(rows).rows)))[1].values())


def _int_matrix(rows):
    """The matrix of dense int or Fraction rows, built by Matrix._of from its columns' integer form."""
    scale, cols = integral({j: col for j in range(len(rows[0]))
                            if (col := {i: row[j] for i, row in enumerate(rows) if row[j]})})
    return Matrix._of(len(rows), len(rows[0]), cols, scale)


@settings(deadline=None)
@given(matrices(), st.data())
def test_int_rows_are_eliminated_without_being_written(rows, data):
    # _cancel writes into its vector in place, so _eliminate must reduce
    # fresh copies of what it is given: of int columns too, and of the
    # column dicts that hstack shares with its operands.
    split = data.draw(st.integers(0, len(rows[0])))
    a = _int_matrix([row[:split] for row in rows])
    b = _int_matrix([row[split:] for row in rows])
    m = a.hstack(b)
    assert all(m._cols[j + a.ncols] is col for j, col in b._cols.items())
    assert all(m._cols[j] is col for j, col in a._cols.items())
    before = copy.deepcopy((a._cols, b._cols))
    f = from_rows(rows)
    assert m.rank() == f.rank()
    assert m.reduced_rows() == f.reduced_rows()
    assert m.nullspace() == f.nullspace()
    assert (a._cols, b._cols) == before
    stored = list(m._cols.values())
    cut = data.draw(st.integers(0, len(stored)))
    pivots = _eliminate(stored[:cut])
    _eliminate(stored[cut:], pivots=pivots)
    assert len(pivots) == dense_rank(rows)
    assert (a._cols, b._cols) == before


def test_fractional_complex_rank_and_reduced_form():
    module = regular(builtin("polyzinbiel(3)"))
    assert dl_delta_matrix(module, 3).rank() == 204
    d1 = dl_delta_matrix(module, 1)
    assert (d1.nrows, d1.ncols) == (64, 16)
    assert any(v.denominator > 1 for row in d1.rows for v in row.values())
    assert reduced_dense(d1) == dense_rref(to_dense(d1))


def test_from_nonempty_parses_like_from_cols():
    m = Matrix.from_nonempty(2, 2, {0: {0: "1/2"}, 1: {1: 3, 0: " 0 "}})
    assert (m._scale, m._cols) == (2, {0: {0: 1}, 1: {1: 6}})
    assert m.rows == [{0: Fraction(1, 2)}, {1: Fraction(3)}]
    assert m.rank() == 2
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            Matrix.from_nonempty(2, 2, {0: {0: bad}})
    with pytest.raises(ValueError, match="not a rational scalar"):
        Matrix.from_nonempty(2, 2, {0: {0: "x"}})


def _values(m):
    return [v for col in m._cols.values() for v in col.values()]


def test_columns_hold_one_number_type():
    # Every Matrix holds int columns over its scale: the ones from_nonempty
    # builds, their products and stacks, the public differentials and psi.
    a, b = from_rows([[1, 2], [0, 3]]), from_cols([[1, 0], [2, "1/3"]], 2)
    B = builtin("polyzinbiel(2)")
    ctx = TensorContext(builtin("lie2"), B, regular(B))
    psi, d1 = psi_matrix(ctx, 2), dl_delta_matrix(ctx.M, 1)
    built = [(a, 1), (b, 3), (a.mul(b), 3), (a.hstack(b), 3),
             (Matrix.from_nonempty(2, 1, {1: {0: 4}}), 1),
             (dl_delta_matrix(regular(builtin("B3")), 2), 1),
             (dl_delta_matrix(ctx.M, 2), 2), (psi, 1), (psi.mul(d1), 2)]
    for m, scale in built:
        assert m._scale == scale
        assert _values(m) and all(type(v) is int for v in _values(m))


int_columns = st.lists(st.dictionaries(st.integers(0, 30), st.integers(-6, 6).filter(bool),
                                       max_size=6), max_size=8)


@settings(deadline=None)
@given(int_columns, st.integers(1, 6), st.one_of(st.none(), st.permutations(range(31))))
def test_integer_columns_eliminate_like_their_multiples(cols, t, perm):
    # A column is only divided by its gcd, so it and t times it, the same
    # column at another scale, are reduced as the same fresh primitive int
    # vectors, relabelled alike: they give the same pivots, and neither
    # input is written.
    label = None if perm is None else dict(enumerate(perm))
    scaled = [{k: t * v for k, v in col.items()} for col in cols]
    before = copy.deepcopy((cols, scaled))
    ints = _eliminate(cols, label)
    assert ints == _eliminate(scaled, label)
    assert (cols, scaled) == before
    assert len(ints) == dense_rank([[col.get(k, 0) for k in range(31)] for col in cols])
    keys = {k if label is None else label[k] for col in cols for k in col}
    for lead, r in ints.items():
        assert all(r is not col for col in cols)
        assert min(r) == lead and set(r) <= keys
        assert all(type(v) is int for v in r.values()) and gcd(*r.values()) == 1


def _twin(kind, n):
    """delta_DL^n of regular(polyzinbiel(3)), or delta_CE^n or psi_n of g (x) polyzinbiel(2),
    g being leibniz2 with its product times 3/2."""
    if kind == "dl":
        return _delta_map("dl", regular(builtin("polyzinbiel(3)")), n)
    g = change_basis(builtin("leibniz2"), identity(2), Fraction(3, 2))
    B = builtin("polyzinbiel(2)")
    ctx = TensorContext(g, B, regular(B))
    return _delta_map("ce", ctx.module, n) if kind == "ce" else _psi_map(ctx, n)


@pytest.mark.parametrize("kind, n", [
    ("dl", 1), ("dl", 2), ("dl", 3), ("ce", 0), ("ce", 1), ("psi", 2), ("psi", 3),
])
def test_a_scaled_matrix_eliminates_like_its_fraction_rows(kind, n):
    # _matrix holds m.scale times the map's values, over m.scale; a matrix
    # rebuilt from its Fraction rows holds them over the lcm of their
    # denominators, and the same values times 7 over 7 * m.scale are the
    # map too. _eliminate makes every column primitive before reducing it,
    # so the three eliminations are the same; the owners' leads, read in
    # each column's order, are the same where that order is kept.
    m = _twin(kind, n)
    assert m.scale > 1
    ints = _matrix(m)
    assert ints._scale == m.scale
    rows = ints.rows
    rebuilt = Matrix.from_nonempty(ints.nrows, ints.ncols, dict(enumerate(rows)))
    sevens = Matrix._of(ints.nrows, ints.ncols, {j: {i: 7 * v for i, v in col.items()}
                                                 for j, col in ints._cols.items()}, 7 * m.scale)
    assert ints._lead_rows() == sevens._lead_rows()
    for twin in (rebuilt, sevens):
        assert twin.rows == rows
        assert ints.rank() == twin.rank()
        assert ints.nullspace() == twin.nullspace()
        assert ints.reduced_rows() == twin.reduced_rows()


def test_empty_rows_are_shared_and_never_written_through():
    m = Matrix(3, 5)
    assert all(row is EMPTY_ROW for row in m.rows)
    assert not EMPTY_ROW and m.is_zero()
    m = Matrix.from_nonempty(3, 5, {1: {2: Fraction(7, 3)}})
    assert m.rows[0] is EMPTY_ROW and m.rows[2] is EMPTY_ROW
    with pytest.raises(TypeError):
        EMPTY_ROW[0] = Fraction(1)

    # Writing into an output's stored columns, or into the dicts of any rows
    # view, changes none of its inputs. hstack is the exception by design:
    # it shares its operands' read-only column dicts, and writes nothing.
    a = from_rows([[1, 0], [0, 0], [0, 2]])
    b = from_rows([[0, 3], [0, 0], [4, 0]])
    eye = from_rows([[1, 0], [0, 1]])
    cols = [[1, 0, 0], [0, 0, 5]]
    dense_rows = [[0, 1], [0, 0], [2, 0]]
    before = (to_dense(a), to_dense(b), to_dense(eye), [list(c) for c in cols])
    h = a.hstack(b)
    assert [h._cols[j] for j in (0, 1, 2, 3)] == [a._cols[0], a._cols[1], b._cols[0], b._cols[1]]
    assert h._cols[3] is b._cols[1]
    outs = (_column_matrix(a), a.mul(eye), from_cols(cols, 3), from_rows(dense_rows))
    for out in outs:
        for c, col in out._cols.items():
            for r in range(out.nrows):
                col[r] = r * out.ncols + c + 1
        for m in (a, b, eye, out):
            for r, row in enumerate(m.rows):
                if row:
                    row[0] = Fraction(-r - 1)
        assert (to_dense(a), to_dense(b), to_dense(eye), cols) == before
    assert dense_rows == [[0, 1], [0, 0], [2, 0]]


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
        (from_cols(cols, nrows), rows),
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
        assert from_cols(basis, m.ncols).rank() == len(basis)


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
        from_cols([[1, 0, 0, 0], [0, 0, 5, 0]], 4),
        _column_matrix(a),
        a.hstack(b),
        a.mul(from_rows([[1, 0], [0, 1]])),
    )
    for m in built:
        view = m.rows
        assert len(view) == m.nrows
        entries = {(i, j): Fraction(v, m._scale)
                   for j, col in m._cols.items() for i, v in col.items()}
        assert {(i, j): v for i, row in enumerate(view) for j, v in row.items()} == entries
        assert all(col for col in m._cols.values())
        assert all(row is EMPTY_ROW for i, row in enumerate(view)
                   if all(i not in col for col in m._cols.values()))
        assert m.num_nonzero == len(entries)
        assert all(a is not b for a, b in zip(view, m.rows) if a)
        assert Matrix.from_nonempty(m.nrows, m.ncols, dict(enumerate(view))).rows == view
    rows = [{1: Fraction(2)}, EMPTY_ROW, {}, {0: Fraction(-1, 3)}]
    m = Matrix.from_nonempty(4, 2, dict(enumerate(rows)))
    assert m.rows == rows and m.rows[1] is EMPTY_ROW and m.rows[2] is EMPTY_ROW
    assert (m._scale, m._cols) == (3, {0: {3: -1}, 1: {0: 6}})


def test_from_nonempty_rejects_indices_out_of_range():
    with pytest.raises(ValueError, match="row index 2 out of range for 2 rows"):
        Matrix.from_nonempty(2, 2, {2: {0: 1}})
    for j in (5, -1, 2, True, 0.0):
        with pytest.raises(ValueError, match=rf"row 1 column index {j} out of range for 2"):
            Matrix.from_nonempty(2, 2, {0: {1: 1}, 1: {j: 2}})
    # Kept, these columns would give rank 2 and a 2-vector kernel at once.
    with pytest.raises(ValueError, match="row 0 column index 5 out of range"):
        Matrix.from_nonempty(2, 2, {0: {5: 1}, 1: {-1: 2}})
    # 0.5 compares like a row in range; kept, it would give a one-row matrix rank 2.
    with pytest.raises(ValueError, match="row index 0.5 out of range for 1 rows"):
        Matrix.from_nonempty(1, 2, {0: {0: 1}, 0.5: {1: 1}})
    for dims in ((2.0, 2), (2, True)):
        with pytest.raises(ValueError, match="matrix dimensions must be nonnegative ints"):
            Matrix(*dims)
        with pytest.raises(ValueError, match="matrix dimensions must be nonnegative ints"):
            Matrix.from_nonempty(*dims, {})


def test_rows_are_labelled_sparsest_first_then_by_first_touch():
    cols = [{5: 1, 2: 1}, {2: 1, 7: 1}, {7: 1, 9: 1, 5: 1}, {9: 1, 7: 1}]
    # counts: 5 twice, 2 twice, 7 three times, 9 twice; first touched 5, 2, 7, 9.
    # No row is single, so no column is an owner and every row is labelled.
    assert _split_owners(cols) == ([], cols, {5: 0, 2: 1, 9: 2, 7: 3})
    assert _split_owners([]) == ([], [], {})
    # The rows only then touches follow, first-touched first, after the others.
    then = [{9: 1, 4: 1}, {3: 1, 4: 1}, range(20, 22)]
    assert _split_owners(cols, then=then) == ([], cols, {5: 0, 2: 1, 9: 2, 7: 3, 4: 4, 3: 5,
                                                         20: 6, 21: 7})
    assert _split_owners([], then=then) == ([], [], {9: 0, 4: 1, 3: 2, 20: 3, 21: 4})
    # Column {8, 5} alone touches 8, and {6, 1, 7} 6 and 1: both are owners, the
    # second leading at 6, its first single row. Rows 8, 6 and 1 get no label,
    # the others keep their order (5 is touched three times now).
    owned = cols + [{8: 1, 5: 1}, {6: 1, 1: 1, 7: 1}]
    assert _split_owners(owned) == ([8, 6], cols, {2: 0, 9: 1, 5: 2, 7: 3})
    assert list(_split_owners(owned)[2]) == [i for i in sparsest_labels(owned)
                                             if i not in (8, 6, 1)]


def test_a_row_then_touches_makes_no_owner():
    # Column 0 alone of the columns touches row 0, but so does the vector
    # that extends the echelon. Taken as an owner, column 0 would never be
    # stored as the pivot at row 0, and e_0 = (e_0 + e_1) - e_1 would come
    # out independent: rank 3, not 2.
    a, p = [{0: 1, 1: 1}, {1: 1}], [{0: 1}]
    assert _split_owners(a)[0] == [0]
    leads, rest, label = _split_owners(a, then=p)
    assert leads == [] and rest == a
    pivots = _eliminate(rest, label)
    _eliminate(p, label, pivots)
    assert len(pivots) == 2 == dense_rank([[1, 0, 1], [1, 1, 0]])


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
    # les_report labels rows sparsest first by A's column counts, then P's
    # other rows in first-touch order, eliminates A's columns and extends
    # those pivots by P's columns; A's owners are counted, never eliminated.
    a_rows, p_rows = pair
    a, p = _int_matrix(a_rows), _int_matrix(p_rows)
    leads, rest, label = _split_owners(a._cols.values(), then=p._cols.values())
    pivots = _eliminate(rest, label)
    assert len(leads) + len(pivots) == dense_rank(a_rows)
    _eliminate(p._cols.values(), label, pivots)
    assert len(leads) + len(pivots) == dense_rank([r + s for r, s in zip(a_rows, p_rows)])


def test_column_rank_of_dl_degree_4_cancels_little(monkeypatch):
    # Labelling rows sparsest first makes most columns pivots without
    # arithmetic: about 3,100 cancellations, against 22,738 in the stored
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


@contextmanager
def _counted_cancels():
    """A one-item list that counts the _cancel calls made inside the block."""
    calls = [0]
    cancel = linalg._cancel

    def counted(*args):
        calls[0] += 1
        return cancel(*args)

    linalg._cancel = counted
    try:
        yield calls
    finally:
        linalg._cancel = cancel


def _assert_split_matches_whole(m):
    """m's owners and other pivots against every column eliminated; returns the owner count.

    Same rank, same lead rows, same cancellations, and the pivots with the
    unit vectors at the other rows form a basis: ordered owner leads first,
    then by label, every pivot is zero before its lead.
    """
    cols = list(m._cols.values())
    with _counted_cancels() as calls:
        whole = whole_lead_rows(cols)
        whole_calls, calls[0] = calls[0], 0
        leads, rest, label = _split_owners(cols)
        pivots = _eliminate(rest, label)
    assert calls[0] == whole_calls
    row_of = list(label)
    split = leads + [row_of[p] for p in pivots]
    assert m._lead_rows() == split and m.rank() == len(whole)
    lead_set = set(split)
    assert len(lead_set) == len(split) and lead_set == set(whole)
    kept = set(map(id, rest))
    owners = [col for col in cols if id(col) not in kept]
    pos = {i: p for p, i in enumerate(chain(leads, label))}
    for lead, col in zip(leads, owners, strict=True):
        assert min(pos.get(i, len(pos)) for i in col) == pos[lead]
    assert all(min(piv) == p for p, piv in pivots.items())
    if m.nrows <= 40:
        basis = owners + [{row_of[k]: v for k, v in piv.items()} for piv in pivots.values()]
        basis += [{i: 1} for i in range(m.nrows) if i not in lead_set]
        assert dense_rank([dense_vec(v, m.nrows) for v in basis]) == m.nrows
    return len(leads)


def _ce1(g_name):
    B = builtin("B2")
    return _assemble("ce", TensorContext(builtin(g_name), B, regular(B)).module, 1)


def _dl(n):
    return _assemble("dl", regular(builtin("polyzinbiel(3)")), n)


def _cleared_dl4():
    # The columns of delta_DL^4 that cohomology_dims ranks: its certificate
    # holds on polyzinbiel(3), so those at delta_DL^3's lead rows are cleared.
    out, cleared = _dl(4), set(_dl(3)._lead_rows())
    return Matrix._of(out.nrows, out.ncols,
                      {j: col for j, col in out._cols.items() if j not in cleared}, out._scale)


@pytest.mark.parametrize("build, owners, nonempty", [
    (lambda: _ce1("freeleibniz(2,4)"), 1024, 2036),
    (lambda: _ce1("freeleibniz(3,3)"), 1248, 3114),
    (lambda: _dl(3), 61, 255),
    (lambda: _dl(4), 187, 1023),
    (_cleared_dl4, 337, 820),
], ids=["ce1 fl(2,4)xB2", "ce1 fl(3,3)xB2", "dl3 pz(3)", "dl4 pz(3)", "cleared dl4 pz(3)"])
def test_owners_split_off_like_the_whole_column_route(build, owners, nonempty):
    m = build()
    assert (_assert_split_matches_whole(m), len(m._cols)) == (owners, nonempty)


@settings(deadline=None)
@given(tall_sparse())
def test_owners_split_off_like_the_whole_column_route_on_sparse_matrices(rows):
    m = _int_matrix(rows)
    _assert_split_matches_whole(m)
    assert m.rank() == dense_rank(rows)


def test_mul_drops_cancelled_entries_and_multiplies_scales():
    # a's third column is twice its first. Column 0 of a*b cancels at row 0,
    # column 1 at row 0 too, and column 2 everywhere, so it is not stored.
    # b holds 4 times its values, so a*b does too, over 1 * 4.
    a_rows = [[1, 2, 2], [1, 3, 2], [0, 0, 0]]
    b_rows = [[2, Fraction(1, 2), 1], [-1, Fraction(-1, 4), 0], [0, 0, Fraction(-1, 2)]]
    a, b = _int_matrix(a_rows), from_rows(b_rows)
    assert (a._scale, b._scale) == (1, 4)
    before = copy.deepcopy((a._cols, b._cols))
    ab = a.mul(b)
    assert (ab._scale, ab._cols) == (4, {0: {1: -4}, 1: {1: -1}})
    assert to_dense(ab) == _dense_mul(a_rows, b_rows)
    assert to_dense(b.mul(a)) == _dense_mul(b_rows, a_rows)
    assert 0 not in _values(b.mul(a))
    assert (b.mul(b)._scale, a.mul(a)._scale) == (16, 1)
    # hstack brings both to the lcm of their scales: a's columns are scaled
    # into new dicts, and b's, already there, are shared.
    h = a.hstack(b)
    assert h._scale == 4 and h._cols[0] == {0: 4, 1: 4}
    assert all(h._cols[j + a.ncols] is col for j, col in b._cols.items())
    assert to_dense(h) == [r + s for r, s in zip(a_rows, b_rows)]
    assert (a._cols, b._cols) == before


def test_the_ranks_of_package_matrices_make_no_fraction(monkeypatch):
    # The matrices hold ints over a scale, and elimination reads only the
    # ints, so ranking psi and a differential with fractional constants
    # builds no Fraction.
    B = builtin("polyzinbiel(3)")
    M = regular(B)
    ctx = TensorContext(builtin("freeleibniz(2,3)"), B, M)
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    ranks = [psi_matrix(ctx, 1).rank(), psi_matrix(ctx, 2).rank(), dl_delta_matrix(M, 2).rank()]
    monkeypatch.undo()
    assert made == 0
    assert ranks == [16, 64, 51]
