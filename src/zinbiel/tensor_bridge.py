"""Tensor products that turn a Leibniz algebra and a Zinbiel algebra into a Lie algebra.

For a Leibniz algebra g and a Zinbiel algebra B, the space g (x) B carries the
bracket

    (a (x) b) * (a' (x) b') = [a, a'] (x) (b . b') - [a', a] (x) (b' . b),

which is antisymmetric by construction and satisfies Jacobi whenever the input
axioms hold. A bimodule M over B extends this to a left action of g (x) B on
g (x) M by the same two-term pattern, using the bimodule's two actions.

The map psi sends a degree-n cochain f on B (valued in M) to the alternating
cochain

    psi(f)(a_1 (x) b_1, ..., a_n (x) b_n)
        = sum over permutations s of sign(s) *
          [a_{s(1)}, ..., a_{s(n)}] (x) f(b_{s(1)}, ..., b_{s(n)}),

with left-normed brackets. Like the differentials in complexes, psi at each
degree is one map, _psi_map: its source and target spaces, a term generator
and the scale D_g^(n-1) of its integer terms, read by both its applied form
and its matrix. From an input B-tuple the generator pairs up every g-tuple
whose left-normed bracket is nonzero (a prefix is extended only by the right
factors of g's nonzero products, and one with a zero bracket never), so
neither form looks at the output tuples that no term reaches.
psi intertwines the two differentials; this module verifies that exactly on
seeded random cochains, and computes the rank bookkeeping that compares the
two cohomologies through the quotient complex.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import groupby
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebras import AxiomReport, Bimodule, FiniteAlgebra, check_axioms
from .complexes import (
    DL_MAX_DEGREE,
    Cochain,
    Key,
    Term,
    _apply,
    _assemble,
    _block,
    _check_degree,
    _check_input,
    _exact,
    _int_form,
    _Map,
    _matrix,
    ce_delta,
    ce_space_dim,
    dl_delta,
    random_dl_cochain,
)
from .linalg import EMPTY_ROW, Matrix, _eliminate, _split_owners
from .sparsevec import Scaled, Vec, add_scaled, common_scale, lowest_terms, same_values

BRACKET_BOUND_CAP = 16


def _tensor_names(left: Sequence[str], right: Sequence[str]) -> Tuple[str, ...]:
    return tuple(f"{a}⊗{b}" for a in left for b in right)


def _validation_error(side: str, report: AxiomReport) -> ValueError:
    w = report.witness or {}
    return ValueError(
        f"{side} failed the {report.checked} check at {tuple(w.get('inputs', ()))}: "
        f"lhs {w.get('lhs')} != rhs {w.get('rhs')}"
    )


def _tensor_table(g: FiniteAlgebra, S: Scaled, S_swap: Scaled, xd: int, yd: int) -> Scaled:
    """[a, a'] (x) S(x, y) - [a', a] (x) S_swap(y, x), keyed (a * xd + x, a' * yd + y).

    Walks only the nonzero entries of g's product against those of S and
    S_swap; a result index is g-index * yd + S-index. Every key gets at most
    one term from each table, added in that order, and keys come out in key
    order, less the ones that cancel to {}. The products accumulate as ints,
    from the integer forms of g's table, at D_g, and of the two S tables,
    brought to one D_S; the result is the integer form of the table, the
    sums over D_g * D_S in lowest terms (sparsevec.lowest_terms).
    """
    dg, gp = g._products_int
    ds, (s, s_swap) = common_scale(S, S_swap)
    acc: Dict[Tuple[int, int], Vec] = defaultdict(dict)
    for sign, table, swap in ((1, s, False), (-1, s_swap, True)):
        for (i1, i2), gv in gp.items():
            for (x, y), sv in table.items():
                key = (i2 * xd + y, i1 * yd + x) if swap else (i1 * xd + x, i2 * yd + y)
                out = acc[key]
                for ga, ca in gv.items():
                    for k, cb in sv.items():
                        i = ga * yd + k
                        out[i] = out.get(i, 0) + sign * ca * cb
    return lowest_terms(dict(sorted(acc.items())), dg * ds)


def tensor_lie(g: FiniteAlgebra, B: FiniteAlgebra, validate: bool = True) -> FiniteAlgebra:
    """The bracket above on g (x) B, with basis index (i, p) at i * B.dim + p.

    With validate, the inputs are first checked to be Leibniz and Zinbiel
    respectively; the output is then a Lie algebra. Without it the bracket is
    built regardless, which is how a deliberately broken input gets examined.
    The algebra takes over the integer form of the table built here, and
    only its basis names are checked: two can coincide, as "a" with "b⊗c"
    and "a⊗b" with "c" do, and then ValueError is raised. Its Fractions are
    made when its products are first read.
    """
    if validate:
        rep = check_axioms(g, "leibniz")
        if not rep.ok:
            raise _validation_error("left factor", rep)
        rep = check_axioms(B, "zinbiel")
        if not rep.ok:
            raise _validation_error("right factor", rep)
    return FiniteAlgebra._of("lie", g.dim * B.dim, _tensor_names(g.basis_names, B.basis_names),
                             _tensor_table(g, B._products_int, B._products_int, B.dim, B.dim))


def tensor_module(g: FiniteAlgebra, B: FiniteAlgebra, M: Bimodule) -> Bimodule:
    """g (x) M as a module over tensor_lie(g, B), which it builds without validation.

    Left action: (a (x) b) * (a' (x) m) = [a, a'] (x) (b m) - [a', a] (x) (m b).
    The right action is stored as its negative, matching the antisymmetry of
    the bracket on the algebra side. Both are held as integer forms until read.
    """
    if M.algebra != B:
        raise ValueError("module must be over the Zinbiel factor")
    d, left = _tensor_table(g, M._left_int, M._right_int, B.dim, M.dim)
    return Bimodule._of(tensor_lie(g, B, validate=False), g.dim * M.dim,
                        _tensor_names(g.basis_names, M.basis_names),
                        (d, left), (d, _negated_transpose(left)))


def _negated_transpose(table: Dict[Tuple[int, int], Vec]) -> Dict[Tuple[int, int], Vec]:
    return {(m, a): {j: -c for j, c in vec.items()} for (a, m), vec in table.items()}


class TensorContext:
    """One tensor construction: g, B, M, the Lie algebra g (x) B and its module g (x) M.

    _psi_maps holds psi by degree, each map built on first use. It is left
    out of the pickled state and starts empty in a copy.
    """

    def __init__(self, g: FiniteAlgebra, B: FiniteAlgebra, M: Bimodule):
        self.g = g
        self.B = B
        self.M = M
        self.module = tensor_module(g, B, M)
        self.lie = self.module.algebra
        self.bracket_bound = _bracket_length_bound(g)
        self._psi_maps: Dict[int, _Map] = {}

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_psi_maps"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _psi_maps={})


def _bracket_length_bound(g: FiniteAlgebra) -> int:
    """Length beyond which every left-normed bracket in g is certainly zero.

    Tracks only index support, so it is an upper bound on the true nilpotency
    length, never an undercount; graded truncations make it exact. It reads
    g's integer form, which has the support of g's products.
    """
    products = g._products_int[1]
    supp = set(range(g.dim))
    for k in range(1, BRACKET_BOUND_CAP):
        supp = {p for (i, _), v in products.items() if i in supp for p in v}
        if not supp:
            return k
    return BRACKET_BOUND_CAP


def _psi_map(ctx: TensorContext, n: int) -> _Map:
    """psi at degree n, built on first use (_new_psi_map) and kept by ctx."""
    m = ctx._psi_maps.get(n)
    if m is None:
        m = ctx._psi_maps[n] = _new_psi_map(ctx, n)
    return m


def _new_psi_map(ctx: TensorContext, n: int) -> _Map:
    """psi at degree n, from dl cochains on B in M to ce cochains on g (x) B in g (x) M.

    Every n-tuple G of basis indices of g whose left-normed bracket
    L = [[G_1, G_2], ...] is nonzero is built one letter at a time, in
    lexicographic order, from g's nonzero products indexed by left factor:
    a prefix's bracket v extends by j only where some e_i in v has a nonzero
    product e_i * e_j, so each level reads only those products, and a prefix
    whose bracket vanishes is dropped, since every bracket extending it
    vanishes too. Read from an input B-tuple X, G pairs up with X into the
    tensor indices G_j * B.dim + X_j; sorted, they give the output tuple T and
    the sign of the sorting permutation, and m_k goes to sign * L (x) m_k. A
    repeated index drops the term, as the output is alternating. The sort is
    worked out once per bracket (_sorted_letters): G's letters in stable
    sorted order, that permutation's sign and the runs of equal letters, so
    a term adds X in that order to the sorted G_j * B.dim and sorts only
    within the runs (_sort_runs). g's constants are read from the integer
    form g holds, at D_g, the lcm of their denominators, so each bracket,
    n - 1 constants to a term, is D_g^(n-1) times its value: the map's scale.
    """
    g, bd, md = ctx.g, ctx.B.dim, ctx.M.dim
    d, products = g._products_int
    by_left: Dict[int, List[Tuple[int, Vec]]] = {}
    for (i, j), vec in products.items():
        by_left.setdefault(i, []).append((j, vec))
    level: List[Tuple[Key, Vec]] = [((i,), {i: 1}) for i in range(g.dim)]
    for _ in range(n - 1):
        nxt = []
        for G, v in level:
            ext: Dict[int, Vec] = {}
            for i, c in v.items():
                for j, vec in by_left.get(i, ()):
                    add_scaled(ext.setdefault(j, {}), vec, c)
            nxt.extend((G + (j,), ext[j]) for j in sorted(ext) if ext[j])
        level = nxt
    brackets = [(*_sorted_letters(G, bd),
                 _block({k: {ga * md + k: c for ga, c in L.items()} for k in range(md)}))
                for G, L in level]

    def terms(X: Key) -> Iterator[Term]:
        for base, perm, sign, runs, block in brackets:
            T = [b + X[p] for b, p in zip(base, perm)]
            if runs:
                sign *= _sort_runs(T, runs)
                if not sign:
                    continue
            yield sign, tuple(T), block

    return _Map(("dl", n, bd, md), ("ce", n, ctx.lie.dim, ctx.module.dim), terms, d ** (n - 1))


Runs = Tuple[Tuple[int, int], ...]


def _sorted_letters(G: Key, bd: int) -> Tuple[Key, Key, int, Runs]:
    """(G_j * bd in sorted order, the stable sorting permutation, its sign,
    the runs [s, e) of two or more equal letters in sorted order).

    Indices built on different letters order as the letters do, since every
    X_j is below bd; only a run's order depends on X.
    """
    perm = tuple(sorted(range(len(G)), key=G.__getitem__))
    inversions = sum(a > b for i, a in enumerate(G) for b in G[i + 1:])
    letters = [G[p] for p in perm]
    runs, s = [], 0
    for _, same in groupby(letters):
        e = s + len(list(same))
        if e - s > 1:
            runs.append((s, e))
        s = e
    return tuple(a * bd for a in letters), perm, -1 if inversions % 2 else 1, tuple(runs)


def _sort_runs(t: List[int], runs: Runs) -> int:
    """Insertion-sort t within each run, in place: the sign of the sort, or 0 at an equal pair."""
    sign = 1
    for s, e in runs:
        for i in range(s + 1, e):
            x = t[i]
            j = i
            while j > s and t[j - 1] > x:
                t[j] = t[j - 1]
                j -= 1
                sign = -sign
            if j > s and t[j - 1] == x:
                return 0
            t[j] = x
    return sign


def psi_apply(ctx: TensorContext, f: Cochain) -> Cochain:
    """The alternating image of a degree-n cochain on B under the map above."""
    _check_input("psi_apply", f, "dl", ctx.M)
    return _apply(_psi_map(ctx, f.degree), f)


def psi_matrix(ctx: TensorContext, degree: int) -> Matrix:
    """Matrix of psi at one degree, in the standard basis orders of both sides, in Fractions."""
    _check_degree("dl", degree)
    return _exact(_psi_map(ctx, degree))


@dataclass
class ChainMapReport:
    """Outcome of the exact chain-map check on seeded random cochains, compared in ints."""

    degree: int
    trials: int
    seed: int
    passed: bool
    failed_trials: List[int]
    witness: Optional[dict]
    axioms: Dict[str, AxiomReport]

    @property
    def axioms_ok(self) -> bool:
        return all(r.ok for r in self.axioms.values())

    def to_dict(self) -> dict:
        """The fields as plain JSON data, with passed under the key chain_map_holds."""
        data = asdict(self)
        data["chain_map_holds"] = data.pop("passed")
        return data


def _first_difference(ctx: TensorContext, lhs: Cochain, rhs: Cochain, trial: int) -> Optional[dict]:
    names = ctx.lie.basis_names
    mnames = ctx.module.basis_names
    for key in sorted(set(lhs.values) | set(rhs.values)):
        va = lhs.values.get(key, {})
        vb = rhs.values.get(key, {})
        if va == vb:
            continue
        for k in sorted(set(va) | set(vb)):
            a = va.get(k, 0)
            b = vb.get(k, 0)
            if a != b:
                return {
                    "trial": trial,
                    "arguments": [names[i] for i in key],
                    "component": mnames[k],
                    "lhs": str(a),
                    "rhs": str(b),
                }
    return None


def verify_chain_map(
    g: FiniteAlgebra,
    B: FiniteAlgebra,
    M: Bimodule,
    degree: int,
    trials: int = 10,
    seed: int = 0,
    with_axioms: bool = True,
) -> ChainMapReport:
    """Check delta(psi f) == psi(delta f) exactly on seeded random cochains.

    Trial t draws its cochain from Random(seed + t). Both sides stay integer
    forms from the draw on and are compared in ints (sparsevec.same_values);
    Fractions are made only for a witness. The report separates the equality
    outcome from the axiom checks on the inputs and on the built tensor
    algebra, because the equality is insensitive to some broken inputs while
    the axioms are not.
    """
    _check_degree("dl", degree)
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    ctx = TensorContext(g, B, M)
    failed: List[int] = []
    witness = None
    for t in range(trials):
        rng = Random(seed + t)
        f = random_dl_cochain(B.dim, M.dim, degree, rng)
        lhs = ce_delta(psi_apply(ctx, f), ctx.module)
        rhs = psi_apply(ctx, dl_delta(f, M))
        if not same_values(_int_form(lhs), _int_form(rhs)):
            failed.append(t)
            if witness is None:
                witness = _first_difference(ctx, lhs, rhs, t)
    axioms: Dict[str, AxiomReport] = {}
    if with_axioms:
        axioms["g_leibniz"] = check_axioms(g, "leibniz")
        axioms["b_zinbiel"] = check_axioms(B, "zinbiel")
        axioms["tensor_lie"] = check_axioms(ctx.lie, "lie")
        axioms["tensor_lie_module"] = check_axioms(ctx.lie, "lie-module", ctx.module)
    return ChainMapReport(
        degree=degree,
        trials=trials,
        seed=seed,
        passed=not failed,
        failed_trials=failed,
        witness=witness,
        axioms=axioms,
    )


class PsiNotInjectiveError(ValueError):
    """psi dropped rank at some degree, so the quotient comparison is off."""

    def __init__(self, failures: List[dict]):
        self.failures = failures
        first = min(f["degree"] for f in failures)
        super().__init__(
            f"embedding not injective at degree {first}; LES hypothesis not met"
        )


def les_report(g: FiniteAlgebra, B: FiniteAlgebra, M: Bimodule, max_degree: int) -> dict:
    """Rank bookkeeping comparing the two cohomologies through the quotient.

    For each degree n up to max_degree the report gives the cohomology of the
    non-symmetric complex of B, of the tensor Lie algebra, and of the quotient
    of the latter by the image of psi, together with the ranks of the induced
    maps, and checks the exactness identity

        dim H^n(Q) = (dim H^n_lie - r_n) + (dim H^{n+1} - r_{n+1}),

    where r_k is the rank of the induced map in degree k. The comparison only
    makes sense when psi is injective in every involved degree (1 through
    max_degree + 1); if not, a PsiNotInjectiveError is raised.

    The ranks are read off the mapping cone of psi (Weibel, An Introduction
    to Homological Algebra, 1.5), S_n = [[delta_CE^n, psi_{n+1}],
    [0, delta_DL^(n+1)]]: delta_CE^n's columns are eliminated once, and
    those pivots extended once by the other columns, C_n. rank S_n is
    rank [delta_CE^n | psi_{n+1} Z] + rank delta_DL^(n+1), Z the DL
    cocycles of degree n + 1, which gives r_{n+1}. Every CE^(n+1) row is
    numbered before every DL^(n+2) row and a pivot is zero before its lead,
    so the pivots that lead on a CE row count rank [delta_CE^n | psi_{n+1}],
    the quotient rank in degree n plus rank psi_{n+1}. Neither count needs
    psi injective; the identity they feed does, hence the precheck. A
    delta_CE^n column that alone touches some CE row, which no psi_{n+1}
    column touches either, owns it (_split_owners): no other vector of
    S_n ever holds that row, so the column is a pivot leading there, on a
    CE row, and is counted without being eliminated. The split is one
    round: removing the owners leaves new single rows, but peeling those
    too made the cones slower, not faster. The other CE rows are
    delta_CE^n's, sparsest first by how many of its columns touch them,
    then the others psi_{n+1} touches, in first-touch order; _eliminate
    relabels each remaining column under that one numbering as it reduces
    it, so the pivots stay valid as they are extended. psi and both
    differentials are the integer matrices of _matrix, nonzero multiples of
    the maps: scaling a block's rows and columns changes no rank, nor which
    rows the pivots lead on.
    """
    if type(max_degree) is not int:
        raise ValueError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if max_degree + 1 > DL_MAX_DEGREE:
        raise ValueError(f"max_degree can be at most {DL_MAX_DEGREE - 1}")
    ctx = TensorContext(g, B, M)
    tdim, tmd = ctx.lie.dim, ctx.module.dim

    psi_mats = {k: _matrix(_psi_map(ctx, k)) for k in range(1, max_degree + 2)}
    psi_rank = {0: 0, **{k: m.rank() for k, m in psi_mats.items()}}
    expected = {k: m.ncols for k, m in psi_mats.items()}
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

    dl_rank, ce_rank = {0: 0}, {-1: 0}
    h_dl, h_lie, rank_q, induced_rank = {}, {}, {}, {}
    for n in range(max_degree + 1):
        psi = psi_mats[n + 1]
        dl = _assemble("dl", M, n + 1)
        # A kernel's length and an hstack, where dl.rank() and the two column
        # sets would do, because perfbench/tracer.py needs both spans.
        dim_z = len(dl.nullspace())
        dl_rank[n + 1] = psi.ncols - dim_z
        h_dl[n + 1] = dim_z - dl_rank[n]
        ce = _assemble("ce", ctx.module, n)
        # C_n's column j is psi's over delta_DL's, delta_DL's row i at row off + i.
        off, nrows = ce.nrows, ce.nrows + dl.nrows
        cone = {j: {**col, **{off + i: v for i, v in dl._cols.get(j, EMPTY_ROW).items()}}
                for j, col in psi._cols.items()}
        s = Matrix._of(nrows, ce.ncols, ce._cols).hstack(Matrix._of(nrows, psi.ncols, cone))._cols
        # CE rows are labelled below top, DL rows from top up in index order: a pivot leading
        # on a DL row before some CE row could be nonzero there, and rank_q would come out short.
        # Every owner leads on a CE row, so it counts as below top too.
        leads, rest, label = _split_owners(
            ce._cols.values(), then=(*psi._cols.values(), range(off, nrows)))
        top = len(label) - dl.nrows
        pivots = _eliminate(rest, label)
        ce_rank[n] = len(leads) + len(pivots)
        h_lie[n] = ce_space_dim(tdim, tmd, n) - ce_rank[n] - ce_rank[n - 1]
        _eliminate((col for j, col in s.items() if j >= ce.ncols), label, pivots)
        induced_rank[n + 1] = len(leads) + len(pivots) - ce_rank[n] - dl_rank[n + 1]
        rank_q[n] = len(leads) + sum(p < top for p in pivots) - psi_rank[n + 1]

    rows = []
    for n in range(1, max_degree + 1):
        dim_q = ce_space_dim(tdim, tmd, n) - psi_rank[n]
        hq = dim_q - rank_q[n] - rank_q[n - 1]
        r_n, r_next = induced_rank[n], induced_rank[n + 1]
        rhs = (h_lie[n] - r_n) + (h_dl[n + 1] - r_next)
        rows.append({
            "degree": n,
            "h_dl": h_dl[n],
            "h_dl_next": h_dl[n + 1],
            "h_lie": h_lie[n],
            "dim_quotient": dim_q,
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
