"""check_axioms visits only the basis triples that touch a nonzero product,
in ints, and the tensor tables are built from the nonzero entries only.

The full scan over every triple lives in _oracles.check_axioms_full_scan; the
reports, witness included, must be identical, and so must the cases once
_cases' integer sides are divided by their scales. The work counts pin the
gain so that a regression to the full scan fails without timing anything.
The tensor tables must equal, key order included, the ones built on the full
grid, and every object's integer form must be integral of its Fraction table.
"""

from fractions import Fraction

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
from zinbiel.algebras import _MODULE_FAMILY, AXIOM_KINDS, _cases
from zinbiel.sparsevec import integral
from zinbiel.tensor_bridge import TensorContext, tensor_lie, tensor_module

CATALOG = (
    "B2", "B3", "polyzinbiel(2)", "polyzinbiel(3)",
    "leibniz2", "lie2", "freeleibniz(2,2)", "freeleibniz(2,3)",
)
SMALL_CATALOG = ("B2", "B3", "polyzinbiel(3)", "leibniz2", "lie2", "freeleibniz(2,2)")
TENSORS = (("leibniz2", "B2"), ("lie2", "polyzinbiel(2)"), ("freeleibniz(2,2)", "B3"))


def _failures(cases):
    return [case for case in cases if case[2] != case[3]]


def _unscaled_cases(cases):
    """_cases' integer sides divided by their scales, as the full scan gives them."""
    for identity, inputs, lhs, rhs, scale in cases:
        yield (identity, inputs, {k: Fraction(v, scale) for k, v in lhs.items()},
               {k: Fraction(v, scale) for k, v in rhs.items()})


def _assert_same_reports(alg, mod):
    """Same report, and the same failing cases in the same order: a triple the
    support skips must hold in the full scan too."""
    for which in AXIOM_KINDS:
        assert check_axioms(alg, which, mod) == check_axioms_full_scan(alg, which, mod), which
        cases = _unscaled_cases(_cases(alg, which, mod))
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


# lie2 with [e1, e2] = e1 / 7 but [e2, e1] = -e1: D = 7, and not antisymmetric.
LIE2_SEVENTH = FiniteAlgebra("lie", 2, ("e1", "e2"),
                             {(0, 1): {0: Fraction(1, 7)}, (1, 0): {0: -1}})


@pytest.mark.parametrize("alg", [builtin("polyzinbiel(2)"), LIE2_SEVENTH], ids=["poly2", "lie2/7"])
def test_scaled_sides_match_full_scan_when_d_exceeds_one(alg):
    # Identity cases read two constants and are D^2 times the true sides,
    # antisymmetry cases one, D times; both kinds fail on both inputs here.
    mod = regular(alg)
    d = alg._products_int[0]
    assert d > 1
    failing = {scale for which in AXIOM_KINDS
               for *_, scale in _failures(_cases(alg, which, mod))}
    assert failing == {d, d * d}
    _assert_same_reports(alg, mod)


def test_witness_strings_of_scaled_sides():
    # Divided by D (the antisymmetry cases) and by D^2 (a triple), as read
    # from the Fractions before the sides were compared in ints.
    assert check_axioms(LIE2_SEVENTH, "lie").witness == {
        "identity": "[x, y] + [y, x] = 0", "inputs": ["e1", "e2"],
        "lhs": {"e1": "-6/7"}, "rhs": {}}
    assert check_axioms(LIE2_SEVENTH, "lie-module", regular(LIE2_SEVENTH)).witness == {
        "identity": "[x, y]v = x(yv) - y(xv)", "inputs": ["e1", "e2", "e2"],
        "lhs": {"e1": "1/49"}, "rhs": {"e1": "1/7"}}
    assert check_axioms(builtin("polyzinbiel(2)"), "leibniz").witness == {
        "identity": "[x, [y, z]] = [[x, y], z] - [[x, z], y]", "inputs": ["p0", "p0", "p0"],
        "lhs": {"p2": "1/2"}, "rhs": {}}


def test_passing_checks_build_no_fraction(monkeypatch):
    # The sides are compared as ints; Fractions are made only for a witness.
    checks = []
    for name in CATALOG:
        alg = builtin(name)
        checks += [(alg, alg.kind, None), (alg, _MODULE_FAMILY[alg.kind], regular(alg))]
    ctx = TensorContext(builtin("freeleibniz(2,3)"), builtin("polyzinbiel(2)"),
                        regular(builtin("polyzinbiel(2)")))
    checks += [(ctx.lie, "lie", None), (ctx.lie, "lie-module", ctx.module)]
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    reports = [check_axioms(*check) for check in checks]
    monkeypatch.undo()
    assert all(r.ok for r in reports)
    assert made == 0
    assert not check_axioms(LIE2_SEVENTH, "lie").ok  # the spy's complement: a witness is made


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
    assert _failures(_unscaled_cases(_cases(alg, "lie"))) == _failures(full_scan_cases(alg, "lie"))


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


def _assert_integer_forms(alg, mod):
    """Each table's integer form is integral of its Fractions, which are all Fractions."""
    tables = (alg.products, mod.left, mod.right)
    assert all(type(c) is Fraction for t in tables for vec in t.values() for c in vec.values())
    assert alg._products_int == integral(alg.products)
    assert mod._left_int == integral(mod.left)
    assert mod._right_int == integral(mod.right)


def _assert_tensor_tables_match_grid(g, B, M):
    lie = tensor_lie(g, B, validate=False)
    assert _ordered(lie.products) == _ordered(tensor_lie_grid(g, B))
    mod = tensor_module(g, B, M)
    left, right = tensor_module_grid(g, B, M)
    assert _ordered(mod.left) == _ordered(left)
    assert _ordered(mod.right) == _ordered(right)
    _assert_integer_forms(lie, mod)
    _assert_integer_forms(g, regular(g))
    _assert_integer_forms(B, M)


@pytest.mark.parametrize("g", [n for n in CATALOG if builtin(n).kind != "zinbiel"])
@pytest.mark.parametrize("b", [n for n in CATALOG if builtin(n).kind == "zinbiel"])
def test_tensor_objects_equal_the_validated_ones(g, b):
    # The tensor constructions hand their tables over unparsed; the
    # validating constructors, given the same Fractions, build equal objects
    # with equal integer forms.
    B = builtin(b)
    ctx = TensorContext(builtin(g), B, regular(B))
    lie, mod = ctx.lie, ctx.module
    checked_lie = FiniteAlgebra(lie.kind, lie.dim, lie.basis_names, lie.products)
    checked = Bimodule(checked_lie, mod.dim, mod.basis_names, mod.left, mod.right)
    assert (lie, mod) == (checked_lie, checked)
    assert lie._products_int == checked_lie._products_int
    assert (mod._left_int, mod._right_int) == (checked._left_int, checked._right_int)
    _assert_integer_forms(lie, mod)


@pytest.mark.parametrize("g", [n for n in CATALOG if builtin(n).kind != "zinbiel"])
@pytest.mark.parametrize("b", [n for n in CATALOG if builtin(n).kind == "zinbiel"])
def test_tensor_tables_are_made_on_first_read_as_the_validated_ones(g, b):
    # The context holds g (x) B and g (x) M as integer forms alone and reads
    # no Fraction of g; once read, each table is the one the validating
    # constructors build from the full-grid tables, key and entry order
    # included, and it is kept.
    name, g, B = g, builtin(g), builtin(b)
    M = regular(B)
    ctx = TensorContext(g, B, M)
    lie, mod = ctx.lie, ctx.module
    assert "products" not in vars(lie) and not {"left", "right"} & vars(mod).keys()
    # a truncated free Leibniz algebra is built in ints, the fixed ones validated
    assert ("products" in vars(g)) != name.startswith("freeleibniz")
    checked_lie = FiniteAlgebra("lie", lie.dim, lie.basis_names, tensor_lie_grid(g, B))
    checked = Bimodule(checked_lie, mod.dim, mod.basis_names, *tensor_module_grid(g, B, M))
    for table, name, want in ((lie.products, "products", checked_lie.products),
                              (mod.left, "left", checked.left), (mod.right, "right", checked.right)):
        assert _ordered(table) == _ordered(want)
        assert getattr(lie if name == "products" else mod, name) is table
    assert (lie, mod) == (checked_lie, checked)
    _assert_integer_forms(lie, mod)


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
