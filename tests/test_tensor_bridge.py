"""Tensor Lie algebra, the embedding of cochain complexes, and the
dimension-exactness report.

The quotient-complex tests recompute the report's headline numbers from
scratch: reduce the embedded image out of each Chevalley-Eilenberg space,
take honest ranks of what remains, and compare.
"""

import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    ce_delta_gather,
    change_basis,
    change_module_basis,
    cochain_to_vector,
    column_entries,
    dense_rank,
    dl_delta_lowdeg,
    entry,
    from_cols,
    from_sparse_cols,
    identity,
    left_normed_probed,
    les_report_rowwise,
    linear_combination,
    mul_vec,
    psi_gather,
    psi_map_probed,
    to_dense,
    transpose,
)
from _strategies import basis_changes, fractional
from zinbiel import (
    Cochain,
    FiniteAlgebra,
    builtin,
    ce_delta,
    ce_delta_matrix,
    check_axioms,
    cohomology_dims,
    dl_delta,
    dl_delta_matrix,
    perturbed_b2,
    random_dl_cochain,
    regular,
    tensor_bridge,
)
from zinbiel import fileio, linalg, sparsevec
from zinbiel.complexes import _apply, _matrix, ce_space_dim, ce_tuples, dl_tuples
from zinbiel.linalg import Matrix, _eliminate, parse_scalar
from zinbiel.sparsevec import add_scaled
from zinbiel.tensor_bridge import (
    PsiNotInjectiveError,
    TensorContext,
    _psi_map,
    les_report,
    psi_apply,
    psi_matrix,
    tensor_lie,
    tensor_module,
    verify_chain_map,
)

LEIBNIZ_FACTORS = ("leibniz2", "freeleibniz(2,2)", "lie2")
ZINBIEL_FACTORS = ("B2", "B3", "polyzinbiel(2)")


def make_ctx(g_name="freeleibniz(2,2)", b_name="B2"):
    g, B = builtin(g_name), builtin(b_name)
    return TensorContext(g, B, regular(B))


@pytest.mark.parametrize("g_name", LEIBNIZ_FACTORS)
@pytest.mark.parametrize("b_name", ZINBIEL_FACTORS)
def test_tensor_bracket_is_lie(g_name, b_name):
    lie = tensor_lie(builtin(g_name), builtin(b_name))
    assert lie.kind == "lie"
    report = check_axioms(lie, "lie")
    assert report.ok, report.witness


@pytest.mark.parametrize("g_name,b_name", [("leibniz2", "B2"), ("lie2", "polyzinbiel(2)")])
def test_tensor_bracket_transcription(g_name, b_name):
    # [x (x) a, y (x) b] = xy (x) ab - yx (x) ba, expanded entry by entry
    g, B = builtin(g_name), builtin(b_name)
    lie = tensor_lie(g, B)
    bd = B.dim
    for i1 in range(g.dim):
        for p1 in range(bd):
            for i2 in range(g.dim):
                for p2 in range(bd):
                    want = {}
                    for ga, ca in entry(g.products, i1, i2).items():
                        for qb, cb in entry(B.products, p1, p2).items():
                            k = ga * bd + qb
                            want[k] = want.get(k, Fraction(0)) + ca * cb
                    for ga, ca in entry(g.products, i2, i1).items():
                        for qb, cb in entry(B.products, p2, p1).items():
                            k = ga * bd + qb
                            want[k] = want.get(k, Fraction(0)) - ca * cb
                    want = {k: v for k, v in want.items() if v}
                    assert entry(lie.products, i1 * bd + p1, i2 * bd + p2) == want


def test_tensor_lie_validates_both_factors():
    with pytest.raises(ValueError) as err:
        tensor_lie(builtin("leibniz2"), perturbed_b2())
    assert str(err.value) == (
        "right factor failed the zinbiel check at ('e1', 'e1', 'e2'): lhs {'e1': '1'} != rhs {}")
    g = FiniteAlgebra("leibniz", 2, ("a", "b"), {(1, 0): {0: 1}})
    with pytest.raises(ValueError) as err:
        tensor_lie(g, builtin("B2"))
    assert str(err.value) == (
        "left factor failed the leibniz check at ('b', 'b', 'a'): lhs {'a': '1'} != rhs {}")


def test_tensor_names():
    lie = tensor_lie(builtin("leibniz2"), builtin("B2"))
    assert lie.basis_names == ("a⊗e1", "a⊗e2", "b⊗e1", "b⊗e2")


def test_tensor_module_over_regular_coefficients_mirrors_bracket():
    ctx = make_ctx("leibniz2", "B2")
    lie, mod = ctx.lie, ctx.module
    assert mod.dim == lie.dim
    for a in range(lie.dim):
        for m in range(lie.dim):
            assert entry(mod.left, a, m) == entry(lie.products, a, m)
            assert entry(mod.right, m, a) == {k: -c for k, c in entry(lie.products, a, m).items()}


@pytest.mark.parametrize("g_name,b_name", [("leibniz2", "B2"), ("freeleibniz(2,2)", "B3")])
def test_tensor_module_satisfies_lie_module_axioms(g_name, b_name):
    g, B = builtin(g_name), builtin(b_name)
    lie = tensor_lie(g, B)
    mod = tensor_module(g, B, regular(B))
    report = check_axioms(lie, "lie-module", module=mod)
    assert report.ok, report.witness


def test_module_requires_matching_algebra():
    with pytest.raises(ValueError):
        tensor_module(builtin("leibniz2"), builtin("B2"), regular(builtin("B3")))


@pytest.mark.parametrize("g_name,b_name,degrees", [
    ("leibniz2", "B2", (1, 2)),
    ("freeleibniz(2,2)", "B2", (1,)),
])
def test_embedding_is_a_chain_map_as_matrices(g_name, b_name, degrees):
    ctx = make_ctx(g_name, b_name)
    M = regular(ctx.B)
    for n in degrees:
        lhs = ce_delta_matrix(ctx.module, n).mul(psi_matrix(ctx, n))
        rhs = psi_matrix(ctx, n + 1).mul(dl_delta_matrix(M, n))
        assert to_dense(lhs) == to_dense(rhs), (g_name, b_name, n)


def test_psi_is_linear():
    from random import Random

    ctx = make_ctx("leibniz2", "B2")
    rng = Random(21)
    f = random_dl_cochain(2, 2, 2, rng)
    g = random_dl_cochain(2, 2, 2, rng)
    combo = linear_combination(f, g, Fraction(-5, 2))
    lhs = psi_apply(ctx, combo)
    rhs = linear_combination(psi_apply(ctx, f), psi_apply(ctx, g), Fraction(-5, 2))
    assert lhs.values == rhs.values

    zero = Cochain("dl", 2, 2, 2, {})
    assert psi_apply(ctx, zero).values == {}


def test_psi_matrix_columns_match_psi_apply():
    ctx = make_ctx("freeleibniz(2,2)", "B2")
    mat = psi_matrix(ctx, 2)
    col = 0
    for key in dl_tuples(2, 2):
        for k in range(2):
            basis = Cochain("dl", 2, 2, 2, {key: {k: Fraction(1)}})
            want = cochain_to_vector(psi_apply(ctx, basis))
            got = {i: row[col] for i, row in enumerate(mat.rows) if col in row}
            assert got == want
            col += 1
    assert col == mat.ncols == 8


def _operand(name):
    return perturbed_b2() if name == "perturbed_b2" else builtin(name)


def _assert_psi_matches_probed(ctx, degrees):
    # _psi_map grows each bracket only by the right factors of g's nonzero
    # products; the oracle tries every right factor of every prefix. Same
    # terms in the same order: equal columns, entry order included, and
    # equal images of a cochain with fractional coefficients.
    rng = Random(repr(ctx.g.products))
    bd, md = ctx.B.dim, ctx.M.dim
    for n in degrees:
        fast, slow = _psi_map(ctx, n), psi_map_probed(ctx, n)
        assert fast.scale == slow.scale
        assert column_entries(_matrix(fast)) == column_entries(_matrix(slow)), n
        f = Cochain("dl", n, bd, md, {
            key: {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in range(md)}
            for key in dl_tuples(bd, n)
        })
        assert _apply(fast, f) == _apply(slow, f), n


@pytest.mark.parametrize("g_name, b_name", [
    *((g, b) for g in LEIBNIZ_FACTORS for b in ZINBIEL_FACTORS),
    ("freeleibniz(2,3)", "B2"), ("freeleibniz(3,3)", "B2"), ("leibniz2", "perturbed_b2"),
])
def test_psi_matches_the_probed_route(g_name, b_name):
    B = _operand(b_name)
    _assert_psi_matches_probed(TensorContext(builtin(g_name), B, regular(B)), (1, 2, 3))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(LEIBNIZ_FACTORS).flatmap(fractional),
       st.sampled_from(ZINBIEL_FACTORS).flatmap(fractional), st.data())
def test_psi_matches_the_probed_route_in_any_basis(g, B, data):
    # g and B in random bases with fractional constants, so D_g differs from
    # 1 and a bracket can cancel to zero after several products are added.
    M = change_module_basis(regular(B), data.draw(basis_changes(B.dim)))
    _assert_psi_matches_probed(TensorContext(g, B, M), (1, 2, 3))


def test_psi_brackets_read_only_nonzero_products(monkeypatch):
    # psi_3 of fl(3,3)(x)B2: growing the brackets from g's nonzero products
    # reads 81 of them (one add_scaled each), where trying every right
    # factor of every nonzero prefix probes 3,627 (prefix, factor) pairs.
    ctx = make_ctx("freeleibniz(3,3)", "B2")
    reads = 0

    def counted(*args):
        nonlocal reads
        reads += 1
        return add_scaled(*args)

    monkeypatch.setattr(tensor_bridge, "add_scaled", counted)
    _psi_map(ctx, 3)
    assert reads == 81
    assert left_normed_probed(ctx.g, 3)[1] == 3_627


def test_tensor_context_parses_no_scalar(monkeypatch):
    # The algebra and the module keep the Fractions _tensor_table just made
    # as they are: their indices are range-checked, but nothing is parsed.
    g, B = builtin("freeleibniz(3,3)"), builtin("B2")
    M = regular(B)
    calls = 0

    def counted(value):
        nonlocal calls
        calls += 1
        return parse_scalar(value)

    for module in (fileio, sparsevec):
        monkeypatch.setattr(module, "parse_scalar", counted)
    ctx = TensorContext(g, B, M)
    assert calls == 0
    assert (ctx.lie.dim, ctx.module.dim) == (78, 78)
    tables = (ctx.lie.products, ctx.module.left, ctx.module.right)
    assert all(type(c) is Fraction and c
               for t in tables for vec in t.values() for c in vec.values())
    # The spy sits where the entry rule parses: an int value reaches it.
    regular(FiniteAlgebra("zinbiel", 1, ("a",), {(0, 0): {0: 1}}))
    assert calls == 1


# (leibniz, zinbiel, dl and psi degrees, ce degrees on the tensor module)
ORACLE_CASES = [
    pytest.param(g, b, degrees, ce_degrees, id=f"{g}-{b}")
    for g, b, degrees, ce_degrees in (
        ("leibniz2", "B2", (1, 2, 3), (0, 1, 2, 3)),
        ("lie2", "polyzinbiel(2)", (1, 2, 3), (0, 1, 2, 3)),
        ("freeleibniz(2,2)", "B3", (1, 2, 3), (0, 1)),
        ("freeleibniz(2,3)", "B2", (1, 2, 3), (0, 1)),
        ("leibniz2", "perturbed_b2", (1, 2, 3), (0, 1, 2, 3)),
    )
]


def _seeded_cochain(theory, degree, dim, md, density, rng):
    keys = dl_tuples if theory == "dl" else ce_tuples
    values = {
        key: {k: Fraction(rng.randint(-9, 9)) for k in range(md)}
        for key in keys(dim, degree)
        if rng.random() < density
    }
    return Cochain(theory, degree, dim, md, values)


def _columns_match(mat, oracle, theory, degree, dim, md):
    keys = dl_tuples if theory == "dl" else ce_tuples
    want = [
        cochain_to_vector(oracle(Cochain(theory, degree, dim, md, {key: {k: Fraction(1)}})))
        for key in keys(dim, degree)
        for k in range(md)
    ]
    return transpose(mat).rows == want


@pytest.mark.parametrize("g_name,b_name,degrees,ce_degrees", ORACLE_CASES)
def test_kernels_match_gather_oracles(g_name, b_name, degrees, ce_degrees):
    # psi, delta_DL and delta_CE, applied to seeded dense and 10%-support
    # cochains and as matrices column by column, against literal gather sums
    B = _operand(b_name)
    M = regular(B)
    ctx = TensorContext(builtin(g_name), B, M)
    T, tdim = ctx.module, ctx.lie.dim
    rng = Random(f"{g_name}|{b_name}")
    for n in degrees:
        for density in (1.0, 0.1):
            f = _seeded_cochain("dl", n, B.dim, M.dim, density, rng)
            assert psi_apply(ctx, f) == psi_gather(ctx, f)
            assert dl_delta(f, M) == dl_delta_lowdeg(f, M)
        assert _columns_match(psi_matrix(ctx, n), lambda e: psi_gather(ctx, e),
                              "dl", n, B.dim, M.dim)
        assert _columns_match(dl_delta_matrix(M, n), lambda e: dl_delta_lowdeg(e, M),
                              "dl", n, B.dim, M.dim)
    for n in ce_degrees:
        for density in (1.0, 0.1):
            h = _seeded_cochain("ce", n, tdim, T.dim, density, rng)
            assert ce_delta(h, T) == ce_delta_gather(h, T)
        assert _columns_match(ce_delta_matrix(T, n), lambda e: ce_delta_gather(e, T),
                              "ce", n, tdim, T.dim)


def test_embedding_ranks():
    # full column rank whenever the truncation is deep enough for the degree
    assert psi_matrix(make_ctx("freeleibniz(2,1)"), 1).rank() == 4
    assert psi_matrix(make_ctx("freeleibniz(2,2)"), 2).rank() == 8
    # a one-dimensional abelian left factor kills every bracket
    assert psi_matrix(make_ctx("freeleibniz(1,1)"), 2).rank() == 0


def test_embedding_rank_collapses_past_the_truncation_depth():
    # at degree equal to the word-length cap, repeated letters in the
    # left-normed brackets wipe out half the columns
    assert psi_matrix(make_ctx("freeleibniz(2,3)"), 3).rank() == 8


@pytest.mark.xfail(
    strict=True,
    reason="two generators at word-length cap 3 leave rank 8 of 16 at degree 3; "
    "full rank needs a deeper truncation or more generators",
)
def test_embedding_full_rank_at_cap_boundary():
    assert psi_matrix(make_ctx("freeleibniz(2,3)"), 3).rank() == 16


def _psi_column_rank(g_name, degree):
    # rank via one application per basis cochain, indexing only the
    # coordinates that actually appear; the full matrix would not fit
    ctx = make_ctx(g_name)
    bd = ctx.B.dim
    idx = {}
    vecs = []
    for key in dl_tuples(bd, degree):
        for k in range(bd):
            f = Cochain("dl", degree, bd, bd, {key: {k: Fraction(1)}})
            out = psi_apply(ctx, f)
            v = {}
            for tup, vec in out.values.items():
                for mk, c in vec.items():
                    v[idx.setdefault((tup, mk), len(idx))] = c
            vecs.append(v)
    return Matrix.from_nonempty(len(vecs), len(idx) or 1, dict(enumerate(vecs))).rank()


@pytest.mark.parametrize("g_name", ["freeleibniz(2,4)", "freeleibniz(3,3)"])
def test_embedding_recovers_full_rank_beyond_the_boundary(g_name):
    assert _psi_column_rank(g_name, 3) == 16


def test_tall_sparse_psi_matrix_stays_small():
    # 2,053,200 rows, 352 of them nonempty: only the nonempty rows are stored,
    # so the matrix, its rank and its hstack cost nothing per empty row; a
    # dict per row would take over 250 MB here
    ctx = make_ctx("freeleibniz(2,4)")
    tracemalloc.start()
    try:
        m = psi_matrix(ctx, 3)
        rank = m.rank()
        stacked = m.hstack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.nrows, m.ncols) == (2_053_200, 16)
    assert rank == 16
    assert m.num_nonzero == 536
    assert sum(1 for row in m.rows if row) == 352
    assert (stacked.nrows, stacked.ncols, stacked.num_nonzero) == (2_053_200, 32, 1072)
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_tallest_psi_matrix_costs_nothing_per_empty_row():
    # 5,933,928 rows and 240 nonzeros: a list slot per row alone would take
    # about 45 MB, and storing only the nonempty rows keeps it far below 8 MB
    ctx = make_ctx("freeleibniz(3,3)")
    tracemalloc.start()
    try:
        m = psi_matrix(ctx, 3)
        rank = m.rank()
        stacked = m.hstack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.nrows, m.ncols, rank, m.num_nonzero) == (5_933_928, 16, 16, 240)
    assert (stacked.nrows, stacked.ncols, stacked.num_nonzero) == (5_933_928, 32, 480)
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_bracket_bounds():
    assert make_ctx("freeleibniz(2,2)").bracket_bound == 2
    assert make_ctx("freeleibniz(2,3)").bracket_bound == 3
    assert make_ctx("leibniz2").bracket_bound == 2


@pytest.mark.parametrize("degree", (1, 2, 3))
def test_verify_chain_map_passes(degree):
    B = builtin("B2")
    report = verify_chain_map(builtin("leibniz2"), B, regular(B), degree, trials=5)
    assert report.passed and report.axioms_ok
    assert report.failed_trials == [] and report.witness is None
    assert set(report.axioms) == {"g_leibniz", "b_zinbiel", "tensor_lie", "tensor_lie_module"}


def test_chain_map_with_both_sides_nonzero():
    # at the criterion-2 grid's top degree both sides are zero; here psi is
    # nonzero in degrees 3 and 4, so the identity compares real cochains
    g, B = builtin("freeleibniz(2,4)"), builtin("B3")
    M = regular(B)
    report = verify_chain_map(g, B, M, 3, trials=3)
    assert report.passed and report.axioms_ok
    ctx = TensorContext(g, B, M)
    f = random_dl_cochain(B.dim, M.dim, 3, Random(0))
    lhs = ce_delta(psi_apply(ctx, f), ctx.module)
    rhs = psi_apply(ctx, dl_delta(f, M))
    assert lhs == rhs
    assert len(lhs.values) == len(rhs.values) == 15


def test_verify_chain_map_flags_broken_input():
    # the identity is formal in the right factor, so equality still holds,
    # but the axiom gate must catch the broken product
    B = perturbed_b2()
    report = verify_chain_map(builtin("leibniz2"), B, regular(B), 2, trials=5)
    assert report.passed
    assert not report.axioms_ok
    bad = report.axioms["b_zinbiel"]
    assert not bad.ok
    assert bad.witness["inputs"] == ["e1", "e1", "e2"]
    assert not report.to_dict()["axioms"]["b_zinbiel"]["ok"]


def test_perturbed_tensor_bracket_fails_jacobi_beyond_cap_two():
    lie = tensor_lie(builtin("freeleibniz(2,3)"), perturbed_b2(), validate=False)
    report = check_axioms(lie, "lie")
    assert not report.ok
    assert report.witness["inputs"] == ["a⊗e1", "a⊗e2", "b⊗e1"]


@pytest.mark.xfail(
    strict=True,
    reason="word-length cap 2 kills every triple bracket, so the Jacobi "
    "identity holds vacuously even over the broken product",
)
def test_perturbed_tensor_bracket_fails_jacobi_at_cap_two():
    lie = tensor_lie(builtin("freeleibniz(2,2)"), perturbed_b2(), validate=False)
    assert not check_axioms(lie, "lie").ok


# ---------------------------------------------------------------------------
# the dimension report and its from-scratch cross-check


LES_TOP = {"tensor_dim": 12, "tensor_module_dim": 12, "max_degree": 1}
LES_ROW_1 = {
    "degree": 1,
    "h_dl": 2,
    "h_dl_next": 1,
    "h_lie": 112,
    "dim_quotient": 140,
    "h_quotient": 111,
    "induced_rank": 2,
    "induced_rank_next": 1,
    "identity_lhs": 111,
    "identity_rhs": 110,
    "identity_holds": False,
}


@pytest.fixture(scope="module")
def les_22():
    B = builtin("B2")
    return les_report(builtin("freeleibniz(2,2)"), B, regular(B), max_degree=1)


def test_les_report_shape_and_precheck(les_22):
    for key, val in LES_TOP.items():
        assert les_22[key] == val
    pre = les_22["precheck"]
    assert pre["degrees"] == [1, 2]
    assert pre["psi_ranks"] == pre["expected_ranks"] == {1: 4, 2: 8}
    assert pre["injective"] is True


def test_les_report_frozen_row(les_22):
    assert les_22["rows"] == [LES_ROW_1]


def test_les_row_cohomology_inputs(les_22):
    B = builtin("B2")
    mod = regular(B)
    assert cohomology_dims(mod, "dl", 1).dim_cohomology == LES_ROW_1["h_dl"]
    assert cohomology_dims(mod, "dl", 2).dim_cohomology == LES_ROW_1["h_dl_next"]
    ctx = make_ctx("freeleibniz(2,2)")
    assert cohomology_dims(ctx.module, "ce", 1).dim_cohomology == LES_ROW_1["h_lie"]


class QuotientScratch:
    """Everything recomputed without the report code path."""

    def __init__(self):
        ctx = make_ctx("freeleibniz(2,2)")
        M = regular(ctx.B)
        self.psi = {k: psi_matrix(ctx, k) for k in (1, 2)}
        self.dl = {n: dl_delta_matrix(M, n) for n in (1, 2)}
        self.ce = {n: ce_delta_matrix(ctx.module, n) for n in (0, 1)}
        self.dim_c1 = ce_space_dim(12, 12, 1)
        self.dim_c2 = ce_space_dim(12, 12, 2)

    @staticmethod
    def reduced_cols(mat):
        return transpose(mat).reduced_rows()

    @staticmethod
    def residual(vec, reduced):
        vec = dict(vec)
        for pivot, row in reduced:
            c = vec.get(pivot)
            if c:
                add_scaled(vec, row, -c)
        return vec

    @staticmethod
    def col_of(mat, j):
        return {i: row[j] for i, row in enumerate(mat.rows) if j in row}


@pytest.fixture(scope="module")
def scratch():
    return QuotientScratch()


def test_quotient_complex_from_scratch(scratch, les_22):
    red1 = scratch.reduced_cols(scratch.psi[1])
    red2 = scratch.reduced_cols(scratch.psi[2])
    pivots1 = {p for p, _ in red1}
    complement = [j for j in range(scratch.dim_c1) if j not in pivots1]
    assert len(complement) == LES_ROW_1["dim_quotient"]

    dq0 = [scratch.residual(scratch.col_of(scratch.ce[0], k), red1) for k in range(12)]
    dq1 = [scratch.residual(scratch.col_of(scratch.ce[1], j), red2) for j in complement]
    rank_dq0 = from_sparse_cols(dq0, scratch.dim_c1).rank()
    rank_dq1 = from_sparse_cols(dq1, scratch.dim_c2).rank()
    assert (rank_dq0, rank_dq1) == (2, 27)

    h_q = len(complement) - rank_dq1 - rank_dq0
    assert h_q == LES_ROW_1["h_quotient"] == les_22["rows"][0]["h_quotient"]


def test_induced_ranks_from_scratch(scratch):
    red_b1 = scratch.reduced_cols(scratch.ce[0])
    red_b2 = scratch.reduced_cols(scratch.ce[1])

    def sparse(dense):
        return {i: c for i, c in enumerate(dense) if c}

    r1 = from_sparse_cols(
        [scratch.residual(sparse(mul_vec(scratch.psi[1], z)), red_b1)
         for z in scratch.dl[1].nullspace()],
        scratch.dim_c1,
    ).rank()
    r2 = from_sparse_cols(
        [scratch.residual(sparse(mul_vec(scratch.psi[2], z)), red_b2)
         for z in scratch.dl[2].nullspace()],
        scratch.dim_c2,
    ).rank()
    assert (r1, r2) == (LES_ROW_1["induced_rank"], LES_ROW_1["induced_rank_next"])


def test_identity_gap_is_the_boundary_leak(scratch):
    # cochains whose differential lands in the embedded image, versus those
    # whose differential is the image of an embedded cocycle; the one
    # dimension between them is exactly the defect in the frozen row
    d1, p2 = scratch.ce[1], scratch.psi[2]
    pre_image = scratch.dim_c1 - (d1.hstack(p2).rank() - p2.rank())
    z2 = from_cols(scratch.dl[2].nullspace(), 8)
    pz2 = p2.mul(z2)
    pre_cocycle = scratch.dim_c1 - (d1.hstack(pz2).rank() - pz2.rank())
    assert (pre_image, pre_cocycle) == (117, 116)
    leak = pre_image - pre_cocycle
    assert LES_ROW_1["identity_lhs"] == LES_ROW_1["identity_rhs"] + leak


@pytest.mark.xfail(
    strict=True,
    reason="the connecting map can leave the embedded cocycles when the "
    "embedding is not injective two degrees up; here it does, by one dimension",
)
def test_exactness_identity_at_degree_one(les_22):
    assert les_22["rows"][0]["identity_holds"]


def test_les_precheck_failure_message():
    B = builtin("B2")
    with pytest.raises(PsiNotInjectiveError) as exc:
        les_report(builtin("freeleibniz(1,1)"), B, regular(B), max_degree=1)
    assert str(exc.value) == "embedding not injective at degree 2; LES hypothesis not met"


def _report_or_failures(les, g, B, max_degree):
    try:
        return les(g, B, regular(B), max_degree)
    except PsiNotInjectiveError as exc:
        return exc.failures


@pytest.mark.parametrize("g_name, b_name, max_degree", [
    ("leibniz2", "B2", 1),
    ("leibniz2", "B2", 2),
    ("freeleibniz(2,3)", "B2", 1),
    ("freeleibniz(2,3)", "B2", 2),
    ("leibniz2", "B3", 2),
    ("lie2", "B3", 2),
    ("freeleibniz(2,2)", "B2", 1),
    ("freeleibniz(2,2)", "B3", 1),
    ("freeleibniz(2,3)", "polyzinbiel(2)", 1),
    ("lie2", "B2", 1),
    ("freeleibniz(2,2)", "polyzinbiel(3)", 1),
    ("freeleibniz(3,2)", "polyzinbiel(2)", 1),
])
def test_les_report_matches_rowwise_oracle(g_name, b_name, max_degree):
    # One column echelon per delta_CE against three row eliminations of it:
    # the whole report, or the precheck failures when both raise.
    args = (builtin(g_name), builtin(b_name), max_degree)
    assert _report_or_failures(les_report, *args) == _report_or_failures(les_report_rowwise, *args)


def test_les_report_eliminates_only_ints(monkeypatch):
    # The cone's blocks are the integer matrices of psi and both
    # differentials; no Fraction column reaches the elimination.
    seen = []

    def spy(vecs, label=None, pivots=None):
        vecs = list(vecs)
        seen.extend(v for vec in vecs for v in vec.values())
        return _eliminate(vecs, label, pivots)

    monkeypatch.setattr(tensor_bridge, "_eliminate", spy)
    B = builtin("polyzinbiel(2)")
    les_report(builtin("freeleibniz(2,3)"), B, regular(B), 1)
    assert seen and all(type(v) is int for v in seen)


def test_les_report_cone_cancels_little(monkeypatch):
    # The cone's CE rows sparsest first, then psi's other rows by first
    # touch, then the DL rows: 1,116 cancellations on this input.
    calls = 0
    cancel = linalg._cancel

    def counted(*args):
        nonlocal calls
        calls += 1
        return cancel(*args)

    monkeypatch.setattr(linalg, "_cancel", counted)
    B = builtin("B2")
    report = les_report(builtin("freeleibniz(2,4)"), B, regular(B), 1)
    assert report["rows"][0]["identity_holds"]
    assert calls <= 1500


def _rescaled(name, t):
    alg = builtin(name)
    return change_basis(alg, identity(alg.dim), t)


@pytest.mark.parametrize("g_name", ["leibniz2", "freeleibniz(2,3)"])
def test_psi_and_les_report_with_fractional_constants(g_name):
    # g's product times 3/2 and B2's times 2/5. psi_n is assembled from g's
    # integer table as 2^(n-1) psi_n and divided back, and applied to a
    # cochain with fractional coefficients the same way; les_report reads psi
    # and the differentials as integer multiples of themselves.
    g, B = _rescaled(g_name, Fraction(3, 2)), _rescaled("B2", Fraction(2, 5))
    M = regular(B)
    ctx = TensorContext(g, B, M)
    rng = Random(g_name)
    for n in (1, 2, 3):
        assert _columns_match(psi_matrix(ctx, n), lambda e: psi_gather(ctx, e),
                              "dl", n, B.dim, M.dim)
        f = Cochain("dl", n, B.dim, M.dim, {
            key: {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in range(M.dim)}
            for key in dl_tuples(B.dim, n)
        })
        before = {key: dict(vec) for key, vec in f.values.items()}
        assert psi_apply(ctx, f) == psi_gather(ctx, f) and f.values == before
        assert dl_delta(f, M) == dl_delta_lowdeg(f, M) and f.values == before
    report = verify_chain_map(g, B, M, 3)
    assert report.passed and report.axioms_ok
    args = (g, B, 1)
    assert _report_or_failures(les_report, *args) == _report_or_failures(les_report_rowwise, *args)


def test_trivial_product_coefficients():
    # zero product: every differential vanishes, one class per degree
    B = FiniteAlgebra(kind="zinbiel", dim=1, basis_names=("t",), products={})
    mod = regular(B)
    for n in (1, 2, 3, 4):
        dims = cohomology_dims(mod, "dl", n)
        assert (dims.dim_cochains, dims.dim_cohomology) == (1, 1)


def test_dense_rank_agrees_with_sparse_on_psi():
    mat = psi_matrix(make_ctx("freeleibniz(2,2)"), 1)
    assert dense_rank(to_dense(mat)) == mat.rank() == 4


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_degrees_and_trial_counts_must_be_ints(bad):
    # True compares like degree 1 and 2.0 like degree 2, so only a type test stops them.
    g, B = builtin("leibniz2"), builtin("B2")
    M, lie = regular(B), regular(builtin("lie2"))
    entry_points = [
        lambda: cohomology_dims(M, "dl", bad),
        lambda: cohomology_dims(lie, "ce", bad),
        lambda: dl_delta_matrix(M, bad),
        lambda: ce_delta_matrix(lie, bad),
        lambda: psi_matrix(TensorContext(g, B, M), bad),
        lambda: verify_chain_map(g, B, M, bad),
        lambda: verify_chain_map(g, B, M, 2, trials=bad),
        lambda: les_report(g, B, M, bad),
        lambda: Cochain("dl", bad, 2, 2),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="must be (an int|ints)"):
            call()


# rank psi_n of freeleibniz(k, c) (x) B on regular(B), measured: psi_n is injective
# on these inputs exactly when c >= n + max(0, n - k).
PSI_RANKS = [
    ("B2", 1, 3, 3, 0), ("B2", 1, 4, 3, 4), ("B2", 2, 2, 3, 0), ("B2", 2, 3, 3, 8),
    ("B2", 2, 4, 3, 16), ("B2", 2, 4, 4, 4), ("B2", 3, 3, 3, 16), ("B2", 3, 3, 4, 0),
    ("B2", 2, 5, 4, 22), ("B2", 3, 4, 4, 22), ("B2", 2, 6, 4, 32),
    ("B3", 2, 5, 4, 198), ("B3", 3, 4, 4, 198), ("B3", 2, 6, 4, 243),
    ("polyzinbiel(2)", 2, 5, 4, 198), ("polyzinbiel(2)", 3, 4, 4, 198),
    ("polyzinbiel(2)", 2, 6, 4, 243),
]


@pytest.mark.parametrize("b_name, k, c, n, rank", [
    pytest.param(*case, id=f"fl({case[1]},{case[2]})-{case[0]}-n{case[3]}") for case in PSI_RANKS
])
def test_psi_injectivity_range(b_name, k, c, n, rank):
    ctx = make_ctx(f"freeleibniz({k},{c})", b_name)
    m = psi_matrix(ctx, n)
    assert (m.rank(), m.ncols) == (rank, ctx.B.dim ** (n + 1))
    assert (rank == m.ncols) == (c >= n + max(0, n - k))
