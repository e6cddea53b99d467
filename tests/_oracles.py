"""Independent reference computations shared by the test modules.

Everything here is deliberately naive: dense lists, textbook elimination,
and literal transcriptions of the printed low-degree formulas.  The point
is a second route to the same numbers, not speed.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from zinbiel import Cochain
from zinbiel.algebras import (
    AxiomReport,
    Bimodule,
    Case,
    FiniteAlgebra,
    Table,
    _vec_display,
)
from zinbiel.complexes import (
    CE_MAX_DEGREE,
    DL_MAX_DEGREE,
    Key,
    Term,
    Terms,
    _THEORY,
    _block,
    _ce_generator,
    _ce_rank,
    _dl_rank,
    _Map,
    _net_terms,
    _sort_sign,
    ce_delta_matrix,
    ce_space_dim,
    ce_tuples,
    dl_delta_matrix,
    dl_space_dim,
    dl_tuples,
)
from zinbiel.linalg import Matrix, _eliminate
from zinbiel.sparsevec import Scalar, Vec, add_scaled, integral
from zinbiel.tensor_bridge import PsiNotInjectiveError, TensorContext, psi_matrix

ZERO = Fraction(0)
ONE = Fraction(1)
_NEG = Fraction(-1)


def add_at(vec: Vec, key: int, val: Fraction) -> None:
    """vec[key] += val, in place, dropping the key if the sum is zero."""
    nv = vec.get(key, 0) + val
    if nv:
        vec[key] = nv
    else:
        vec.pop(key, None)


def entry(table: Table, i: int, j: int) -> Vec:
    """The sparse vector a structure table holds at (i, j): e_i * e_j for an
    algebra's products, an action's result for a module's left or right table."""
    return table.get((i, j), {})


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


# Dense views of a Matrix and a cochain, and the arithmetic the tests check
# linearity with; the library itself never needs them.

def from_rows(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Matrix of dense rows; entries may be ints, strings or Fractions."""
    ncols = len(rows[0]) if rows else 0
    return Matrix.from_nonempty(len(rows), ncols, {
        i: dict(enumerate(row)) for i, row in enumerate(rows)
    })


def from_cols(cols: Sequence[Sequence[Scalar]], nrows: int) -> Matrix:
    """Matrix of dense columns, each nrows long; entries may be ints, strings or Fractions."""
    assert all(len(col) == nrows for col in cols)
    return Matrix.from_nonempty(nrows, len(cols), {
        i: {j: col[i] for j, col in enumerate(cols)} for i in range(nrows)
    })


def from_sparse_cols(cols: Sequence[Vec], nrows: int) -> Matrix:
    """Matrix whose column j is the sparse vector cols[j]."""
    return transpose(Matrix.from_nonempty(len(cols), nrows, dict(enumerate(cols))))


def dense_vec(vec: Vec, length: int) -> List[Fraction]:
    return [vec.get(i, ZERO) for i in range(length)]


def to_dense(m: Matrix) -> List[List[Fraction]]:
    return [dense_vec(row, m.ncols) for row in m.rows]


def transpose(m: Matrix) -> Matrix:
    """m's transpose, entry by entry from the full rows view."""
    cols: Dict[int, Vec] = {}
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            cols.setdefault(j, {})[i] = v
    return Matrix.from_nonempty(m.ncols, m.nrows, cols)


def mul_vec(m: Matrix, vec: Sequence[Fraction]) -> List[Fraction]:
    """m times a dense vector, densely."""
    return [sum((v * vec[j] for j, v in row.items()), ZERO) for row in m.rows]


def cochain_to_vector(f: Cochain) -> Vec:
    """Sparse coordinates of a cochain in the matrix basis order."""
    rank = _dl_rank if f.theory == "dl" else _ce_rank
    out: Vec = {}
    for key, vec in f.values.items():
        base = rank(key, f.algebra_dim) * f.module_dim
        for k, v in vec.items():
            out[base + k] = v
    return out


def linear_combination(f: Cochain, g: Cochain, c: Fraction) -> Cochain:
    """f + c g, entry by entry on the values dicts."""
    values = {key: dict(vec) for key, vec in f.values.items()}
    for key, vec in g.values.items():
        add_scaled(values.setdefault(key, {}), vec, c)
    return Cochain(f.theory, f.degree, f.algebra_dim, f.module_dim, values)


def dense_delta_matrix(
    module: Bimodule,
    degree: int,
    delta: Callable[[Cochain, Bimodule], Cochain],
    theory: str = "dl",
) -> List[List[Fraction]]:
    """Matrix of a differential, one basis cochain at a time, densely."""
    bd = module.algebra.dim
    md = module.dim
    keys, space = (dl_tuples, dl_space_dim) if theory == "dl" else (ce_tuples, ce_space_dim)
    nrows = space(bd, md, degree + 1)
    cols = []
    for key in keys(bd, degree):
        for k in range(md):
            basis = Cochain(theory, degree, bd, md, {key: {k: Fraction(1)}})
            out = delta(basis, module)
            cols.append(cochain_to_vector(out))
    zero = Fraction(0)
    return [[cols[j].get(i, zero) for j in range(len(cols))] for i in range(nrows)]


def _dl_generator_unmerged(n: int, pre, ident, left, right) -> Terms:
    """The DL terms with every shuffle word yielded on its own, unmerged.

    complexes._dl_generator sums the words that place an input with a
    repeated letter as the same Z; here each of the 2^(n-1) words is
    expanded against the left blocks, and the consumers do the summing.
    """
    shuffles = _net_terms(n)
    last = 1 if n % 2 else -1

    def terms(X: Key) -> Iterator[Term]:
        for c, place in shuffles:
            Z = tuple(X[i] for i in place)
            for x, block in left:
                yield c, (x,) + Z, block
        for q in range(n):
            head, tail = X[:q], X[q + 1:]
            for u, w, c in pre.get(X[q], ()):
                s = c if q % 2 else -c
                yield s, head + (u, w) + tail, ident
                if q:
                    yield s, head + (w, u) + tail, ident
        for y, block in right:
            yield last, X + (y,), block

    return terms


def delta_map_probed(theory: str, module: Bimodule, n: int) -> _Map:
    """complexes._delta_map, with its action blocks probed at every (x, k) pair
    and, for "dl", the unmerged shuffle terms."""
    right = module.right if theory == "dl" else {}
    d, (products, left, right) = integral(module.algebra.products, module.left, right)
    pre: Dict[int, List[Tuple[int, int, int]]] = {}
    for (u, w), vec in products.items():
        for p, c in vec.items():
            pre.setdefault(p, []).append((u, w, c))
    md = module.dim
    lblocks, rblocks = [], []
    for x in range(module.algebra.dim):
        lb = {k: v for k in range(md) if (v := left.get((x, k)))}
        rb = {k: v for k in range(md) if (v := right.get((k, x)))}
        if lb:
            lblocks.append((x, lb))
        if rb:
            rblocks.append((x, rb))
    generator = _dl_generator_unmerged if theory == "dl" else _ce_generator
    terms = generator(n, pre, _block({k: {k: 1} for k in range(md)}),
                      [(x, _block(b)) for x, b in lblocks], [(x, _block(b)) for x, b in rblocks])
    dims = (module.algebra.dim, md)
    return _Map((theory, n, *dims), (theory, n + 1, *dims), terms, d)


def column_entries(m: Matrix) -> List[Tuple[int, List[Tuple[int, Scalar]]]]:
    """Each stored column with its entries, both in stored order."""
    return [(j, list(col.items())) for j, col in m._cols.items()]


def matrix_nested(m: _Map) -> Matrix:
    """complexes._matrix of a map whose blocks are left as the {k: image of
    m_k} dicts they are built from (complexes._block as the identity), by a
    nested walk of each block k by k, then each image's entries."""
    theory, degree, dim, md = m.source
    out_theory, out_degree, out_dim, out_md = m.target
    tuples = _THEORY[theory][2]
    rank, size = _THEORY[out_theory][3:]
    cols: Dict[int, Vec] = {}
    col_base = 0
    for X in tuples(dim, degree):
        acc: List[Vec] = [{} for _ in range(md)]
        for coeff, Y, block in m.terms(X):
            row_base = rank(Y, out_dim) * out_md
            for k, img in block.items():
                col = acc[k]
                for j, v in img.items():
                    i = row_base + j
                    col[i] = col.get(i, 0) + coeff * v
        for k, col in enumerate(acc):
            col = {i: v for i, v in col.items() if v}
            if col:
                cols[col_base + k] = col
        col_base += md
    return Matrix._of(size(out_dim, out_md, out_degree), col_base, cols)


def left_normed_probed(g: FiniteAlgebra, n: int) -> Tuple[List[Tuple[Key, Vec]], int]:
    """The n-tuples G with a nonzero left-normed bracket of g's integer table
    (g's products times the lcm of their denominators), with the brackets, in
    lexicographic order; each prefix is tried against every right factor j.
    Also returns the number of (prefix, j) pairs so probed."""
    _, (products,) = integral(g.products)
    level: List[Tuple[Key, Vec]] = [((i,), {i: 1}) for i in range(g.dim)]
    probes = 0
    for _ in range(n - 1):
        nxt = []
        for G, v in level:
            for j in range(g.dim):
                probes += 1
                w: Vec = {}
                for i, c in v.items():
                    add_scaled(w, products.get((i, j), {}), c)
                if w:
                    nxt.append((G + (j,), w))
        level = nxt
    return level, probes


def psi_map_probed(ctx: TensorContext, n: int) -> _Map:
    """tensor_bridge._psi_map, with its brackets grown by probing every right
    factor of every prefix (left_normed_probed)."""
    g, bd, md = ctx.g, ctx.B.dim, ctx.M.dim
    brackets = [(G, _block({k: {ga * md + k: c for ga, c in L.items()} for k in range(md)}))
                for G, L in left_normed_probed(g, n)[0]]

    def terms(X: Key) -> Iterator[Term]:
        for G, block in brackets:
            sign, T = _sort_sign(tuple(a * bd + b for a, b in zip(G, X)))
            if sign:
                yield sign, T, block

    return _Map(("dl", n, bd, md), ("ce", n, ctx.lie.dim, ctx.module.dim), terms,
                integral(g.products)[0] ** (n - 1))


def identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(P: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(P)
    reduced = dense_rref([list(row) + e for row, e in zip(P, identity(n))])
    if [c for c, _ in reduced] != list(range(n)):
        raise ValueError("change of basis is not invertible")
    return [row[n:] for _, row in reduced]


def _rebased(table: Table, left: Sequence[Sequence[Fraction]], right: Sequence[Sequence[Fraction]],
             out: Sequence[Sequence[Fraction]], t: Fraction) -> Table:
    """t * table with its two inputs in the bases given by the columns of left and
    right, and its result in the basis whose coordinate map is out."""
    new: Table = {}
    for a in range(len(left)):
        for b in range(len(right)):
            acc: Vec = {}
            for (i, j), vec in table.items():
                c = t * left[i][a] * right[j][b]
                if c:
                    for k, v in vec.items():
                        for m in range(len(out)):
                            add_at(acc, m, c * v * out[m][k])
            if acc:
                new[(a, b)] = acc
    return new


def change_basis(alg: FiniteAlgebra, P: Sequence[Sequence[Fraction]], t: Fraction) -> FiniteAlgebra:
    """alg in the basis f_j = sum_i P[i][j] e_i, with its product times t.

    Every identity family is quadratic in the product, so the result satisfies
    the same ones as alg; with fractional P or t its constants are fractional.
    P must be invertible.
    """
    products = _rebased(alg.products, P, P, _inverse(P), t)
    return FiniteAlgebra(alg.kind, alg.dim, alg.basis_names, products)


def change_module_basis(M: Bimodule, Q: Sequence[Sequence[Fraction]]) -> Bimodule:
    """M in the module basis f_j = sum_i Q[i][j] m_i: the same bimodule, other constants."""
    inv = _inverse(Q)
    eye = identity(M.algebra.dim)
    return Bimodule(M.algebra, M.dim, M.basis_names,
                    left=_rebased(M.left, eye, Q, inv, ONE),
                    right=_rebased(M.right, Q, eye, inv, ONE))


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
            term: Vec = {}
            for k, c in _bracket(table, {x: ONE}, {y: ONE}).items():
                add_scaled(term, ev(k), -c)
            add_scaled(term, _bracket(table, {x: ONE}, ev(y)))
            add_scaled(term, _bracket(table, {y: ONE}, ev(x)), _NEG)
            out[(x, y)] = term
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
        out: Vec = {}
        for i, a in vec.items():
            add_scaled(out, ev(i, j), a)
        return out

    out = {}
    for x, y, z in product(range(dim), repeat=3):
        if not (x < y < z):
            continue
        term: Vec = {}
        add_scaled(term, ev_elem(_bracket(table, {x: ONE}, {y: ONE}), z), _NEG)
        add_scaled(term, ev_elem(_bracket(table, {x: ONE}, {z: ONE}), y))
        add_scaled(term, ev_elem(_bracket(table, {y: ONE}, {z: ONE}), x), _NEG)
        add_scaled(term, _bracket(table, {x: ONE}, ev(y, z)))
        add_scaled(term, _bracket(table, {y: ONE}, ev(x, z)), _NEG)
        add_scaled(term, _bracket(table, {z: ONE}, ev(x, y)))
        out[(x, y, z)] = term
    return out


def _check_module(f: Cochain, module: Bimodule) -> None:
    if f.algebra_dim != module.algebra.dim or f.module_dim != module.dim:
        raise ValueError("cochain dimensions do not match the module")


def dl_delta_lowdeg(f: Cochain, module: Bimodule) -> Cochain:
    """Degrees 1..3 of the non-symmetric differential, written out literally.

    This is an independent transcription of the low-degree formulas, kept as a
    cross-check of the general routine; the two must agree wherever both apply.
    """
    if f.theory != "dl":
        raise ValueError("dl_delta_lowdeg needs a 'dl' cochain")
    _check_module(f, module)
    alg = module.algebra
    dim = alg.dim
    n = f.degree

    def F(*args: int) -> Vec:
        return f.values.get(args, {})

    def Fp(pos: int, prod: Vec, args: Key) -> Vec:
        out: Vec = {}
        for p, c in prod.items():
            v = f.values.get(args[:pos] + (p,) + args[pos + 1:])
            if v:
                add_scaled(out, v, c)
        return out

    def L(i: int, vec: Vec) -> Vec:
        out: Vec = {}
        for k, v in vec.items():
            add_scaled(out, entry(module.left, i, k), v)
        return out

    def R(vec: Vec, i: int) -> Vec:
        out: Vec = {}
        for k, v in vec.items():
            add_scaled(out, entry(module.right, k, i), v)
        return out

    values: Dict[Key, Vec] = {}
    if n == 1:
        for x, y in dl_tuples(dim, 2):
            acc = L(x, F(y))
            add_scaled(acc, Fp(0, entry(alg.products, x, y), (y,)), _NEG)
            add_scaled(acc, R(F(x), y))
            if acc:
                values[(x, y)] = acc
    elif n == 2:
        for x, y, z in dl_tuples(dim, 3):
            acc = L(x, F(y, z))
            add_scaled(acc, L(x, F(z, y)))
            add_scaled(acc, Fp(0, entry(alg.products, x, y), (y, z)), _NEG)
            add_scaled(acc, Fp(1, entry(alg.products, y, z), (x, z)))
            add_scaled(acc, Fp(1, entry(alg.products, z, y), (x, z)))
            add_scaled(acc, R(F(x, y), z), _NEG)
            if acc:
                values[(x, y, z)] = acc
    elif n == 3:
        for w, x, y, z in dl_tuples(dim, 4):
            acc = L(w, F(x, y, z))
            add_scaled(acc, L(w, F(y, z, x)), _NEG)
            add_scaled(acc, L(w, F(y, x, z)))
            add_scaled(acc, L(w, F(z, y, x)), _NEG)
            add_scaled(acc, Fp(0, entry(alg.products, w, x), (x, y, z)), _NEG)
            add_scaled(acc, Fp(1, entry(alg.products, x, y), (w, y, z)))
            add_scaled(acc, Fp(1, entry(alg.products, y, x), (w, y, z)))
            add_scaled(acc, Fp(2, entry(alg.products, y, z), (w, x, z)), _NEG)
            add_scaled(acc, Fp(2, entry(alg.products, z, y), (w, x, z)), _NEG)
            add_scaled(acc, R(F(w, x, y), z))
            if acc:
                values[(w, x, y, z)] = acc
    else:
        raise ValueError("literal formulas cover degrees 1 to 3 only")
    return Cochain("dl", n + 1, dim, module.dim, values)


def _inversion_sign(seq) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def _alternating_value(f: Cochain, args) -> Vec:
    """f at any argument tuple: its value at the sorted tuple times the sorting sign.

    A repeated argument sorts to a tuple that is never stored, so it gives zero.
    """
    vec = f.values.get(tuple(sorted(args)))
    if not vec:
        return {}
    sign = _inversion_sign(args)
    return {k: sign * v for k, v in vec.items()}


def ce_delta_gather(f: Cochain, module: Bimodule) -> Cochain:
    """The alternating differential, literally, at every increasing output tuple:

    (delta f)(y_0..y_n) = sum_{a<b} (-1)^(a+b) f([y_a, y_b], y_0..^a..^b..y_n)
                        + sum_a (-1)^a y_a f(y_0..^a..y_n).
    """
    alg = module.algebra
    n = f.degree
    values: Dict[Tuple[int, ...], Vec] = {}
    for Y in combinations(range(alg.dim), n + 1):
        acc: Vec = {}
        for a, b in combinations(range(n + 1), 2):
            rest = Y[:a] + Y[a + 1: b] + Y[b + 1:]
            sign = -1 if (a + b) % 2 else 1
            for p, c in entry(alg.products, Y[a], Y[b]).items():
                add_scaled(acc, _alternating_value(f, (p,) + rest), sign * c)
        for a in range(n + 1):
            sign = -1 if a % 2 else 1
            for k, v in _alternating_value(f, Y[:a] + Y[a + 1:]).items():
                add_scaled(acc, entry(module.left, Y[a], k), sign * v)
        if acc:
            values[Y] = acc
    return Cochain("ce", n + 1, alg.dim, module.dim, values)


def psi_gather(ctx: TensorContext, f: Cochain) -> Cochain:
    """psi at every increasing tuple of g (x) B basis indices, literally:

    psi(f)(a_1 (x) b_1, ..., a_n (x) b_n) = sum over permutations s of
        sign(s) [[a_s(1), a_s(2)], ..., a_s(n)] (x) f(b_s(1), ..., b_s(n)).
    """
    g, bd, md = ctx.g, ctx.B.dim, ctx.M.dim
    n = f.degree
    values: Dict[Tuple[int, ...], Vec] = {}
    for T in combinations(range(ctx.lie.dim), n):
        pairs = [divmod(t, bd) for t in T]
        acc: Vec = {}
        for perm in permutations(range(n)):
            fv = f.values.get(tuple(pairs[p][1] for p in perm))
            if not fv:
                continue
            bracket = {pairs[perm[0]][0]: Fraction(1)}
            for p in perm[1:]:
                bracket = _bracket(g.products, bracket, {pairs[p][0]: Fraction(1)})
            sign = _inversion_sign(perm)
            for ga, ca in bracket.items():
                for k, v in fv.items():
                    add_scaled(acc, {ga * md + k: ca * v}, sign)
        if acc:
            values[T] = acc
    return Cochain("ce", n, ctx.lie.dim, ctx.module.dim, values)


# Full-scan axiom checks: every basis triple, in lexicographic order, with no
# support gating. check_axioms must return exactly the same report.

def _units(dim: int) -> List[Vec]:
    return [{i: ONE} for i in range(dim)]


def _leibniz_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    identity = "[x, [y, z]] = [[x, y], z] - [[x, z], y]"
    e = _units(alg.dim)
    m = partial(_bracket, alg.products)
    for i, j, k in product(range(alg.dim), repeat=3):
        lhs = m(e[i], m(e[j], e[k]))
        rhs = dict(m(m(e[i], e[j]), e[k]))
        add_scaled(rhs, m(m(e[i], e[k]), e[j]), _NEG)
        names = (alg.basis_names[i], alg.basis_names[j], alg.basis_names[k])
        yield identity, names, lhs, rhs


def _zinbiel_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    identity = "(x . y) . z = x . (y . z) + x . (z . y)"
    e = _units(alg.dim)
    m = partial(_bracket, alg.products)
    for i, j, k in product(range(alg.dim), repeat=3):
        lhs = m(m(e[i], e[j]), e[k])
        inner = dict(m(e[j], e[k]))
        add_scaled(inner, m(e[k], e[j]))
        rhs = m(e[i], inner)
        names = (alg.basis_names[i], alg.basis_names[j], alg.basis_names[k])
        yield identity, names, lhs, rhs


def _lie_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    e = _units(alg.dim)
    m = partial(_bracket, alg.products)
    nm = alg.basis_names
    for i in range(alg.dim):
        yield "[x, x] = 0", (nm[i],), m(e[i], e[i]), {}
    for i, j in product(range(alg.dim), repeat=2):
        if i < j:
            lhs = dict(m(e[i], e[j]))
            add_scaled(lhs, m(e[j], e[i]))
            yield "[x, y] + [y, x] = 0", (nm[i], nm[j]), lhs, {}
    identity = "[[x, y], z] + [[y, z], x] + [[z, x], y] = 0"
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                lhs = dict(m(m(e[i], e[j]), e[k]))
                add_scaled(lhs, m(m(e[j], e[k]), e[i]))
                add_scaled(lhs, m(m(e[k], e[i]), e[j]))
                yield identity, (nm[i], nm[j], nm[k]), lhs, {}


def _zinbiel_bimodule_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    l, r = partial(_bracket, mod.left), partial(_bracket, mod.right)
    for k, i, j in product(range(mod.dim), range(alg.dim), range(alg.dim)):
        lhs = r(r(e[k], e[i]), e[j])
        inner = dict(entry(alg.products, i, j))
        add_scaled(inner, entry(alg.products, j, i))
        rhs = r(e[k], inner)
        yield "(m . y) . z = m . (y . z + z . y)", (mn[k], an[i], an[j]), lhs, rhs
    for i, k, j in product(range(alg.dim), range(mod.dim), range(alg.dim)):
        lhs = r(l(e[i], e[k]), e[j])
        rhs = dict(l(e[i], r(e[k], e[j])))
        add_scaled(rhs, l(e[i], l(e[j], e[k])))
        yield "(x . m) . z = x . (m . z + z . m)", (an[i], mn[k], an[j]), lhs, rhs
    for i, j, k in product(range(alg.dim), range(alg.dim), range(mod.dim)):
        lhs = l(entry(alg.products, i, j), e[k])
        rhs = dict(l(e[i], l(e[j], e[k])))
        add_scaled(rhs, l(e[i], r(e[k], e[j])))
        yield "(x . y) . m = x . (y . m + m . y)", (an[i], an[j], mn[k]), lhs, rhs


def _leibniz_representation_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    l, r = partial(_bracket, mod.left), partial(_bracket, mod.right)
    for i, j, k in product(range(alg.dim), range(alg.dim), range(mod.dim)):
        lhs = l(e[i], l(e[j], e[k]))
        rhs = dict(l(entry(alg.products, i, j), e[k]))
        add_scaled(rhs, r(l(e[i], e[k]), e[j]), _NEG)
        yield "x(ym) = [x,y]m - (xm)y", (an[i], an[j], mn[k]), lhs, rhs
    for i, k, j in product(range(alg.dim), range(mod.dim), range(alg.dim)):
        lhs = l(e[i], r(e[k], e[j]))
        rhs = dict(r(l(e[i], e[k]), e[j]))
        add_scaled(rhs, l(entry(alg.products, i, j), e[k]), _NEG)
        yield "x(my) = (xm)y - [x,y]m", (an[i], mn[k], an[j]), lhs, rhs
    for k, i, j in product(range(mod.dim), range(alg.dim), range(alg.dim)):
        lhs = r(e[k], entry(alg.products, i, j))
        rhs = dict(r(r(e[k], e[i]), e[j]))
        add_scaled(rhs, r(r(e[k], e[j]), e[i]), _NEG)
        yield "m[y,z] = (my)z - (mz)y", (mn[k], an[i], an[j]), lhs, rhs


def _lie_module_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    identity = "[x, y]v = x(yv) - y(xv)"
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    l = partial(_bracket, mod.left)
    for i, j, k in product(range(alg.dim), range(alg.dim), range(mod.dim)):
        lhs = l(entry(alg.products, i, j), e[k])
        rhs = dict(l(e[i], l(e[j], e[k])))
        add_scaled(rhs, l(e[j], l(e[i], e[k])), _NEG)
        yield identity, (an[i], an[j], mn[k]), lhs, rhs


_FULL_ALGEBRA_CHECKS = {
    "leibniz": _leibniz_cases,
    "zinbiel": _zinbiel_cases,
    "lie": _lie_cases,
}

_FULL_MODULE_CHECKS = {
    "zinbiel-bimodule": _zinbiel_bimodule_cases,
    "leibniz-representation": _leibniz_representation_cases,
    "lie-module": _lie_module_cases,
}


def full_scan_cases(
    alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None
) -> Iterator[Case]:
    if which in _FULL_ALGEBRA_CHECKS:
        return _FULL_ALGEBRA_CHECKS[which](alg)
    return _FULL_MODULE_CHECKS[which](alg, module)


def check_axioms_full_scan(
    alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None
) -> AxiomReport:
    """check_axioms by evaluating the identity on every basis triple."""
    value_names = alg.basis_names if which in _FULL_ALGEBRA_CHECKS else module.basis_names
    for identity, inputs, lhs, rhs in full_scan_cases(alg, which, module):
        if lhs != rhs:
            return AxiomReport(
                ok=False,
                checked=which,
                witness={
                    "identity": identity,
                    "inputs": list(inputs),
                    "lhs": _vec_display(lhs, value_names),
                    "rhs": _vec_display(rhs, value_names),
                },
            )
    return AxiomReport(ok=True, checked=which)


# Tensor structure constants over the full grid of basis pairs: the reference
# that tensor_lie and tensor_module, which walk only nonzero entries, must match.

def tensor_lie_grid(g: FiniteAlgebra, B: FiniteAlgebra) -> Table:
    bd = B.dim
    products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i1 in range(g.dim):
        for p1 in range(bd):
            for i2 in range(g.dim):
                for p2 in range(bd):
                    acc: Vec = {}
                    for ga, ca in entry(g.products, i1, i2).items():
                        for qb, cb in entry(B.products, p1, p2).items():
                            add_at(acc, ga * bd + qb, ca * cb)
                    for ga, ca in entry(g.products, i2, i1).items():
                        for qb, cb in entry(B.products, p2, p1).items():
                            add_at(acc, ga * bd + qb, -ca * cb)
                    if acc:
                        products[(i1 * bd + p1, i2 * bd + p2)] = acc
    return products


def tensor_module_grid(g: FiniteAlgebra, B: FiniteAlgebra, M: Bimodule) -> Tuple[Table, Table]:
    bd, md = B.dim, M.dim
    left: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    right: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i1 in range(g.dim):
        for p in range(bd):
            for i2 in range(g.dim):
                for k in range(md):
                    acc: Vec = {}
                    for ga, ca in entry(g.products, i1, i2).items():
                        for mk, cm in entry(M.left, p, k).items():
                            add_at(acc, ga * md + mk, ca * cm)
                    for ga, ca in entry(g.products, i2, i1).items():
                        for mk, cm in entry(M.right, k, p).items():
                            add_at(acc, ga * md + mk, -ca * cm)
                    if acc:
                        a_idx = i1 * bd + p
                        m_idx = i2 * md + k
                        left[(a_idx, m_idx)] = acc
                        right[(m_idx, a_idx)] = {j: -c for j, c in acc.items()}
    return left, right


# les_report by the row-wise route: every rank is a row elimination in the
# canonical order of the assembled matrix or of hstack(...), the reference for
# the single column echelon of each delta_CE that les_report builds with its
# rows renumbered sparsest first.

def row_rank(m: Matrix) -> int:
    """The rank by eliminating m's rows in row order, not by Matrix.rank's column route.

    Each row is cleared of denominators and made primitive here, so this
    route does not lean on _eliminate's own clearing.
    """
    rows = []
    for row in m.rows:
        if row:
            den = lcm(*(v.denominator for v in row.values()))
            ints = {j: int(v * den) for j, v in row.items()}
            g = gcd(*ints.values())
            rows.append({j: v // g for j, v in ints.items()})
    return len(_eliminate(rows))


def cohomology_dims_full(module: Bimodule, theory: str, degree: int) -> Tuple[int, int, int, int]:
    """(dim C, dim Z, dim B, dim H), each rank taken by row_rank on every column.

    The reference for cohomology_dims, which ranks delta^n only on the
    columns that delta^(n-1)'s pivots leave: here nothing is cleared or
    certified, and outside the complex's family dim H may come out negative.
    """
    matrix = dl_delta_matrix if theory == "dl" else ce_delta_matrix
    out = matrix(module, degree)
    dim_z = out.ncols - row_rank(out)
    start = 1 if theory == "dl" else 0
    dim_b = row_rank(matrix(module, degree - 1)) if degree > start else 0
    return out.ncols, dim_z, dim_b, dim_z - dim_b


def les_report_rowwise(g: FiniteAlgebra, B: FiniteAlgebra, M: Bimodule, max_degree: int) -> dict:
    """les_report by the row-wise route: each rank is its own elimination.

    delta_CE^n is eliminated by rows for its own rank, again hstacked with
    psi_{n+1} for the quotient differential, and again hstacked with the
    image under psi_n of the DL cocycles for the induced map.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if max_degree + 1 > DL_MAX_DEGREE:
        raise ValueError(f"max_degree can be at most {DL_MAX_DEGREE - 1}")
    if max_degree > CE_MAX_DEGREE:
        raise ValueError(f"max_degree can be at most {CE_MAX_DEGREE}")
    ctx = TensorContext(g, B, M)
    tdim, tmd = ctx.lie.dim, ctx.module.dim
    bd, md = B.dim, M.dim

    psi_mats = {k: psi_matrix(ctx, k) for k in range(1, max_degree + 2)}
    psi_rank = {0: 0, **{k: row_rank(m) for k, m in psi_mats.items()}}
    expected = {k: dl_space_dim(bd, md, k) for k in psi_mats}
    failures = [
        {"degree": k, "rank": psi_rank[k], "expected": expected[k]}
        for k in sorted(psi_mats)
        if psi_rank[k] != expected[k]
    ]
    precheck = {
        "degrees": sorted(psi_mats),
        "psi_ranks": {k: psi_rank[k] for k in sorted(psi_mats)},
        "expected_ranks": expected,
        "injective": not failures,
    }
    if failures:
        raise PsiNotInjectiveError(failures)

    dl_mats = {n: dl_delta_matrix(M, n) for n in range(1, max_degree + 2)}
    dl_rank = {0: 0, **{n: row_rank(m) for n, m in dl_mats.items()}}
    ce_mats = {n: ce_delta_matrix(ctx.module, n) for n in range(0, max_degree + 1)}
    ce_rank = {-1: 0, **{n: row_rank(m) for n, m in ce_mats.items()}}

    def h_dl(n: int) -> int:
        return dl_space_dim(bd, md, n) - dl_rank[n] - dl_rank[n - 1]

    def h_lie(n: int) -> int:
        return ce_space_dim(tdim, tmd, n) - ce_rank[n] - ce_rank[n - 1]

    @lru_cache(maxsize=None)
    def rank_q(n: int) -> int:
        return row_rank(ce_mats[n].hstack(psi_mats[n + 1])) - psi_rank[n + 1]

    def dim_q(n: int) -> int:
        return ce_space_dim(tdim, tmd, n) - psi_rank[n]

    @lru_cache(maxsize=None)
    def induced_rank(n: int) -> int:
        kernel = dl_mats[n].nullspace()
        if not kernel:
            return 0
        pz = psi_mats[n].mul(from_cols(kernel, dl_space_dim(bd, md, n)))
        return row_rank(pz.hstack(ce_mats[n - 1])) - ce_rank[n - 1]

    rows = []
    for n in range(1, max_degree + 1):
        hq = dim_q(n) - rank_q(n) - rank_q(n - 1)
        r_n = induced_rank(n)
        r_next = induced_rank(n + 1)
        rhs = (h_lie(n) - r_n) + (h_dl(n + 1) - r_next)
        rows.append({
            "degree": n,
            "h_dl": h_dl(n),
            "h_dl_next": h_dl(n + 1),
            "h_lie": h_lie(n),
            "dim_quotient": dim_q(n),
            "h_quotient": hq,
            "induced_rank": r_n,
            "induced_rank_next": r_next,
            "identity_lhs": hq,
            "identity_rhs": rhs,
            "identity_holds": hq == rhs,
        })
    return {
        "tensor_dim": tdim,
        "tensor_module_dim": tmd,
        "max_degree": max_degree,
        "precheck": precheck,
        "rows": rows,
    }


# Shuffle combinatorics: signed (s, t)-shuffles enumerated block by block and
# inverted, the second route to the signed sum that the differential reads
# off the left-normed expansion (free_leibniz.leibniz_expansion).
#
# Shuffle combinatorics and signed permutation sums.
#
# Conventions used throughout:
#
# * Permutations of {1, ..., n} are tuples w with w[i-1] = w(i), so everything
#   here is 1-based.
# * shuffles1(s, t) enumerates the (s, t)-shuffles of {1, ..., s+t} whose first
#   block contains 1. Each shuffle is returned as the pair (alpha, beta) of
#   increasing blocks, alpha of length s with alpha[0] == 1. There are
#   C(s+t-1, t) of them, and s == 0 is rejected since the pin has nowhere to go.
# * signed_shuffle_terms(n) and leibniz_expansion(m) both run over the same
#   double enumeration: i = 0..n-1, then (alpha, beta) in shuffles1(n-i, i),
#   forming the word
#
#       w = (beta[i-1], ..., beta[0], alpha[0], ..., alpha[n-i-1]),
#
#   i.e. beta reversed, then alpha. leibniz_expansion emits ((-1)^i, w);
#   signed_shuffle_terms emits ((-1)^i * sign(w), w^{-1}). Results come out in
#   enumeration order, which is deterministic.

Perm = Tuple[int, ...]
SignedPerm = Tuple[int, Perm]


def _validate_permutation(perm: Perm) -> None:
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")


def permutation_sign(perm: Perm) -> int:
    """Sign of a 1-based permutation tuple, by inversion count."""
    _validate_permutation(perm)
    return _inversion_sign(perm)


def invert_permutation(perm: Perm) -> Perm:
    _validate_permutation(perm)
    inv = [0] * len(perm)
    for pos, val in enumerate(perm, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def shuffles1(s: int, t: int) -> List[Tuple[Perm, Perm]]:
    """All (s, t)-shuffles of {1, ..., s+t} with 1 pinned to the first block."""
    if s <= 0:
        raise ValueError("first block must be nonempty: it holds the pinned letter 1")
    if t < 0:
        raise ValueError("second block size must be nonnegative")
    n = s + t
    universe = range(2, n + 1)
    out: List[Tuple[Perm, Perm]] = []
    for rest in combinations(universe, s - 1):
        alpha = (1,) + rest
        chosen = set(rest)
        beta = tuple(x for x in universe if x not in chosen)
        out.append((alpha, beta))
    return out


def _shuffle_words(n: int) -> List[Tuple[int, Perm]]:
    """Pairs (i, w) in enumeration order; see the module docstring for w."""
    if n <= 0:
        raise ValueError("need n >= 1")
    out: List[Tuple[int, Perm]] = []
    for i in range(n):
        for alpha, beta in shuffles1(n - i, i):
            out.append((i, beta[::-1] + alpha))
    return out


def leibniz_expansion(m: int) -> List[SignedPerm]:
    """Left-normed expansion words for a bracket with an m-letter right argument.

    [u, z_1 ... z_m] = sum of sign * (u followed by z_{w(1)}, ..., z_{w(m)})
    over the returned (sign, w) pairs. There are 2^(m-1) of them.
    """
    return [(-1 if i % 2 else 1, w) for i, w in _shuffle_words(m)]


def signed_shuffle_terms(n: int) -> List[SignedPerm]:
    """Raw signed permutation terms ((-1)^i * sign(w), w^{-1}), in order."""
    out: List[SignedPerm] = []
    for i, w in _shuffle_words(n):
        sign = permutation_sign(w)
        if i % 2:
            sign = -sign
        out.append((sign, invert_permutation(w)))
    return out


def net_signed_shuffle_terms(n: int) -> List[SignedPerm]:
    """signed_shuffle_terms with coefficients merged per permutation.

    Zero totals are dropped; first-appearance order is kept.
    """
    totals: dict = {}
    for sign, perm in signed_shuffle_terms(n):
        totals[perm] = totals.get(perm, 0) + sign
    return [(c, perm) for perm, c in totals.items() if c]
