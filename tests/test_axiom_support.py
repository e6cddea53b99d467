"""check_axioms visits only the basis triples that touch a nonzero product,
and the tensor tables are built from the nonzero entries only.

The full scan over every triple lives in _oracles.check_axioms_full_scan; the
reports, witness included, must be identical. The work counts pin the gain so
that a regression to the full scan fails without timing anything. The tensor
tables must equal, key order included, the ones built on the full grid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    change_module_basis,
    check_axioms_full_scan,
    full_scan_cases,
    tensor_lie_grid,
    tensor_module_grid,
)
from _strategies import basis_changes, fractional
from zinbiel import Bimodule, FiniteAlgebra, builtin, check_axioms, perturbed_b2, regular
from zinbiel.algebras import AXIOM_KINDS, _cases
from zinbiel.tensor_bridge import TensorContext, tensor_lie, tensor_module

CATALOG = (
    "B2", "B3", "polyzinbiel(2)", "polyzinbiel(3)",
    "leibniz2", "lie2", "freeleibniz(2,2)", "freeleibniz(2,3)",
)
SMALL_CATALOG = ("B2", "B3", "polyzinbiel(3)", "leibniz2", "lie2", "freeleibniz(2,2)")
TENSORS = (("leibniz2", "B2"), ("lie2", "polyzinbiel(2)"), ("freeleibniz(2,2)", "B3"))


def _failures(cases):
    return [case for case in cases if case[2] != case[3]]


def _assert_same_reports(alg, mod):
    """Same report, and the same failing cases in the same order: a triple the
    support skips must hold in the full scan too."""
    for which in AXIOM_KINDS:
        assert check_axioms(alg, which, mod) == check_axioms_full_scan(alg, which, mod), which
        cases = _cases(alg, which, mod)
        assert _failures(cases) == _failures(full_scan_cases(alg, which, mod)), which


def _operand(name):
    return perturbed_b2() if name == "perturbed_b2" else builtin(name)


@pytest.mark.parametrize("name", CATALOG + ("perturbed_b2",))
def test_catalog_reports_match_full_scan(name):
    alg = _operand(name)
    _assert_same_reports(alg, regular(alg))


@pytest.mark.parametrize("g, b", TENSORS + (("leibniz2", "perturbed_b2"),))
def test_tensor_reports_match_full_scan(g, b):
    B = _operand(b)
    ctx = TensorContext(builtin(g), B, regular(B))
    _assert_same_reports(ctx.lie, ctx.module)


def _names(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


@st.composite
def _tables(draw, n1, n2, nout):
    keys = draw(st.sets(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
                        max_size=n1 * n2 // 2 + 1))
    coeffs = st.sampled_from([-2, -1, 1, 2])
    return {
        key: draw(st.dictionaries(st.integers(0, nout - 1), coeffs, min_size=1, max_size=2))
        for key in sorted(keys)
    }


@st.composite
def sparse_structures(draw):
    """An algebra and a bimodule with random sparse tables."""
    d = draw(st.integers(1, 4))
    md = draw(st.integers(1, 3))
    alg = FiniteAlgebra("random", d, _names("a", d), draw(_tables(d, d, d)))
    mod = Bimodule(alg, md, _names("m", md), draw(_tables(d, md, md)), draw(_tables(md, d, md)))
    return alg, mod


@st.composite
def antisymmetric_algebras(draw):
    """Random brackets with [y, x] = -[x, y], so that the first failure of the
    lie family, if any, is a Jacobi triple."""
    d = draw(st.integers(3, 5))
    products = {}
    for (i, j), vec in draw(_tables(d, d, d)).items():
        if i < j:
            products[(i, j)] = vec
            products[(j, i)] = {k: -c for k, c in vec.items()}
    return FiniteAlgebra("random", d, _names("a", d), products)


@st.composite
def corrupted_catalog(draw):
    """A small catalog algebra and its regular module with a few table entries
    overwritten or deleted, so identities that held fail at varied triples."""
    base = builtin(draw(st.sampled_from(SMALL_CATALOG)))
    d = base.dim
    tables = [{k: dict(v) for k, v in base.products.items()} for _ in range(3)]
    for _ in range(draw(st.integers(1, 3))):
        table = tables[draw(st.integers(0, 2))]
        key = (draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
        table[key] = {draw(st.integers(0, d - 1)): draw(st.sampled_from([-1, 0, 1, 2]))}
    products, left, right = tables
    alg = FiniteAlgebra(base.kind, d, base.basis_names, products)
    return alg, Bimodule(alg, d, base.basis_names, left, right)


@settings(deadline=None, max_examples=100)
@given(sparse_structures())
def test_sparse_tables_match_full_scan(structure):
    _assert_same_reports(*structure)


@settings(deadline=None, max_examples=100)
@given(antisymmetric_algebras())
def test_antisymmetric_tables_match_full_scan(alg):
    assert check_axioms(alg, "lie") == check_axioms_full_scan(alg, "lie")
    assert _failures(_cases(alg, "lie")) == _failures(full_scan_cases(alg, "lie"))


@settings(deadline=None, max_examples=100)
@given(corrupted_catalog())
def test_corrupted_catalog_matches_full_scan(structure):
    _assert_same_reports(*structure)


def test_witness_where_the_first_pair_has_no_product():
    # The first failing triple (a1, a0, a2) has no product a1.a0: only the
    # gates on (y, z) and (x, z) reach it.
    alg = FiniteAlgebra("x", 3, _names("a", 3), {(1, 2): {2: 2}, (2, 0): {0: 2}})
    report = check_axioms(alg, "leibniz")
    assert report.witness["inputs"] == ["a1", "a0", "a2"]
    assert report == check_axioms_full_scan(alg, "leibniz")
    # An abelian algebra with a non-commuting action: [x, y]v is always 0, so
    # only the two action gates find the witness.
    alg = FiniteAlgebra("x", 2, _names("a", 2), {})
    mod = Bimodule(alg, 3, _names("m", 3),
                   {(0, 1): {2: 1}, (0, 2): {0: -1}, (1, 0): {1: 1}, (1, 1): {2: 1}})
    report = check_axioms(alg, "lie-module", mod)
    assert report.witness["inputs"] == ["a0", "a1", "m0"]
    assert report == check_axioms_full_scan(alg, "lie-module", mod)


def test_axiom_checks_visit_only_the_support():
    ctx = TensorContext(builtin("freeleibniz(2,3)"), builtin("B3"), regular(builtin("B3")))
    assert ctx.lie.dim ** 2 * ctx.module.dim == 74_088
    assert sum(1 for _ in _cases(ctx.lie, "lie-module", ctx.module)) <= 5_000
    g = builtin("freeleibniz(3,3)")
    assert g.dim ** 3 == 59_319
    assert sum(1 for _ in _cases(g, "leibniz")) <= 8_000


def _ordered(table):
    return [(key, list(vec.items())) for key, vec in table.items()]


def _assert_tensor_tables_match_grid(g, B, M):
    lie = tensor_lie(g, B, validate=False)
    assert _ordered(lie.products) == _ordered(tensor_lie_grid(g, B))
    mod = tensor_module(g, B, M)
    left, right = tensor_module_grid(g, B, M)
    assert _ordered(mod.left) == _ordered(left)
    assert _ordered(mod.right) == _ordered(right)


@pytest.mark.parametrize("g, b", TENSORS + (
    ("freeleibniz(3,3)", "B2"), ("leibniz2", "perturbed_b2"),
    ("leibniz2", "polyzinbiel(3)"), ("freeleibniz(2,3)", "polyzinbiel(3)"),
))
def test_tensor_tables_match_grid(g, b):
    B = _operand(b)
    _assert_tensor_tables_match_grid(builtin(g), B, regular(B))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(("leibniz2", "lie2", "freeleibniz(2,2)")).flatmap(fractional),
       st.sampled_from(("B2", "B3", "polyzinbiel(2)")).flatmap(fractional), st.data())
def test_fractional_tensor_tables_match_grid(g, B, data):
    # g and B in random bases with fractional constants, and the module in
    # one of its own, so D_g, D_B and the actions' lcm all differ from 1.
    M = change_module_basis(regular(B), data.draw(basis_changes(B.dim)))
    _assert_tensor_tables_match_grid(g, B, M)


@st.composite
def tensor_operands(draw):
    """A random sparse g, and a random sparse B with a bimodule over it."""
    d = draw(st.integers(1, 4))
    g = FiniteAlgebra("random", d, _names("g", d), draw(_tables(d, d, d)))
    B, M = draw(sparse_structures())
    return g, B, M


@settings(deadline=None, max_examples=100)
@given(tensor_operands())
def test_sparse_tensor_tables_match_grid(operands):
    _assert_tensor_tables_match_grid(*operands)
