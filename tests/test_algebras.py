"""Structure constants, axiom checking, bimodules, and the file format."""

import copy
import dataclasses
import json
import pickle
from collections.abc import Hashable
from fractions import Fraction

import pytest

from _oracles import _bracket, entry
from zinbiel import (
    Bimodule,
    FiniteAlgebra,
    builtin,
    check_axioms,
    load_algebra,
    load_bimodule,
    perturbed_b2,
    regular,
    save_algebra,
    save_bimodule,
)
from zinbiel.fileio import (
    algebra_from_dict,
    algebra_to_dict,
    bimodule_from_dict,
    bimodule_to_dict,
)
from zinbiel.tensor_bridge import TensorContext, tensor_lie

CATALOG_ZINBIEL = ("B2", "B3", "polyzinbiel(2)", "polyzinbiel(3)")
CATALOG_LEIBNIZ = ("leibniz2", "freeleibniz(2,2)", "freeleibniz(2,3)", "lie2")


def test_b2_table():
    alg = builtin("B2")
    assert alg.dim == 2
    assert entry(alg.products, 0, 0) == {1: Fraction(1)}
    assert entry(alg.products, 0, 1) == {}
    assert _bracket(alg.products, {0: Fraction(1)}, {0: Fraction(1)}) == {1: Fraction(1)}
    assert alg.basis_names == ("e1", "e2")


def test_polyzinbiel_table():
    # p_a . p_b = binom-style weight on the degree-(a+b+1) generator
    alg = builtin("polyzinbiel(3)")
    assert alg.dim == 4
    assert entry(alg.products, 0, 0) == {1: Fraction(1)}
    assert entry(alg.products, 1, 0) == {2: Fraction(1)}
    assert entry(alg.products, 0, 1) == {2: Fraction(1, 2)}
    assert entry(alg.products, 2, 1) == {}


@pytest.mark.parametrize("name", CATALOG_ZINBIEL)
def test_catalog_zinbiel_axioms(name):
    report = check_axioms(builtin(name), "zinbiel")
    assert report.ok, report.witness


@pytest.mark.parametrize("name", CATALOG_LEIBNIZ)
def test_catalog_leibniz_axioms(name):
    report = check_axioms(builtin(name), "leibniz")
    assert report.ok, report.witness


def test_lie2_is_lie():
    report = check_axioms(builtin("lie2"), "lie")
    assert report.ok


def test_perturbed_b2_fails_zinbiel_at_known_witness():
    report = check_axioms(perturbed_b2(), "zinbiel")
    assert not report.ok
    assert report.witness["inputs"] == ["e1", "e1", "e2"]
    assert report.witness["lhs"] == {"e1": "1"}
    assert report.witness["rhs"] == {}


def test_the_families_genuinely_differ():
    # the 2-dim nilpotent tables satisfy both identities, these do not
    assert not check_axioms(builtin("polyzinbiel(2)"), "leibniz").ok
    assert not check_axioms(builtin("lie2"), "zinbiel").ok


@pytest.mark.parametrize("name", CATALOG_ZINBIEL)
def test_regular_bimodule_axioms(name):
    alg = builtin(name)
    mod = regular(alg)
    report = check_axioms(alg, "zinbiel-bimodule", module=mod)
    assert report.ok, report.witness


@pytest.mark.parametrize("name", CATALOG_LEIBNIZ)
def test_regular_representation_axioms(name):
    alg = builtin(name)
    family = "lie-module" if name == "lie2" else "leibniz-representation"
    report = check_axioms(alg, family, module=regular(alg))
    assert report.ok, report.witness


def test_unknown_family():
    with pytest.raises(ValueError):
        check_axioms(builtin("B2"), "jordan")
    with pytest.raises(ValueError):
        check_axioms(builtin("B2"), "zinbiel-bimodule")
    with pytest.raises(ValueError, match="module was built over a different algebra"):
        check_axioms(builtin("B2"), "zinbiel-bimodule", regular(builtin("B3")))


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteAlgebra("zinbiel", 2, ("a", "b"), {(0, 5): {0: Fraction(1)}})
    with pytest.raises(ValueError):
        FiniteAlgebra("zinbiel", 2, ("a",), {})
    # 0.5 and True compare like indices in range, so only a type test stops them.
    one = Fraction(1)
    for key, result, message in [
        ((0.5, 0), 0, r"product key \(0.5, 0\) out of range"),
        ((0, True), 0, r"product key \(0, True\) out of range"),
        ((0, 1), False, "product result index False out of range"),
    ]:
        with pytest.raises(ValueError, match=message):
            FiniteAlgebra("zinbiel", 2, ("a", "b"), {key: {result: one}})
    with pytest.raises(ValueError, match="algebra dimension must be a positive int"):
        FiniteAlgebra("zinbiel", 2.0, ("a", "b"), {})
    B2 = builtin("B2")
    with pytest.raises(ValueError, match="module dimension must be a positive int"):
        Bimodule(B2, True, ("m",))
    with pytest.raises(ValueError, match=r"left action key \(1.0, 0\) out of range"):
        Bimodule(B2, 1, ("m",), left={(1.0, 0): {0: one}})
    with pytest.raises(ValueError, match="right action result index 0.0 out of range"):
        Bimodule(B2, 1, ("m",), right={(0, 1): {0.0: one}})


def test_fraction_values_are_range_checked_and_kept():
    # A Fraction is kept as it is, not parsed again, but its result index is
    # still checked and a zero is still dropped.
    half = Fraction(1, 2)
    alg = FiniteAlgebra("zinbiel", 2, ("a", "b"),
                        {(0, 1): {0: half, 1: Fraction(0)}, (1, 1): {0: Fraction(0)}})
    assert alg.products == {(0, 1): {0: half}}
    assert alg.products[(0, 1)][0] is half
    with pytest.raises(ValueError, match="result index 2 out of range"):
        FiniteAlgebra("zinbiel", 2, ("a", "b"), {(0, 1): {2: half}})


def test_basis_names_are_kept_as_a_tuple(tmp_path):
    # A str is refused, though it has dim distinct one-letter names; any
    # other sequence is stored as a tuple, so it survives a save and load.
    with pytest.raises(ValueError, match="algebra basis names must be 2 distinct strings"):
        FiniteAlgebra("zinbiel", 2, "ab", {})
    alg = FiniteAlgebra("zinbiel", 2, ["a", "b"], {(0, 0): {1: 1}})
    assert alg.basis_names == ("a", "b")
    path = tmp_path / "alg.json"
    save_algebra(alg, path)
    assert load_algebra(path) == alg
    mod = Bimodule(alg, 1, ["m"], left={(0, 0): {0: 1}})
    assert mod.basis_names == ("m",)
    with pytest.raises(ValueError, match="module basis names must be 1 distinct strings"):
        Bimodule(alg, 1, "m")
    save_bimodule(mod, path)
    assert load_bimodule(path) == mod


def test_algebras_and_bimodules_say_they_are_unhashable():
    # Frozen dataclasses holding dict tables: a generated __hash__ would
    # only fail inside, on 'dict'.
    B = builtin("B2")
    for obj in (B, regular(B)):
        assert not isinstance(obj, Hashable)
        with pytest.raises(TypeError, match=f"unhashable type: '{type(obj).__name__}'"):
            hash(obj)
    assert B == builtin("B2") and regular(B) == regular(builtin("B2"))


def test_algebra_roundtrip(tmp_path):
    for name in CATALOG_ZINBIEL + CATALOG_LEIBNIZ:
        alg = builtin(name)
        path = tmp_path / "alg.json"
        save_algebra(alg, path)
        assert load_algebra(path) == alg


def test_bimodule_roundtrip(tmp_path):
    for name in ("B3", "leibniz2"):
        mod = regular(builtin(name))
        path = tmp_path / "mod.json"
        save_bimodule(mod, path)
        loaded = load_bimodule(path)
        assert loaded == mod
        assert loaded.algebra == mod.algebra


def test_serialization_is_canonical(tmp_path):
    alg = builtin("freeleibniz(2,2)")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_algebra(alg, p1)
    save_algebra(alg, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    entries = [(e["left"], e["right"]) for e in data["products"]]
    assert entries == sorted(entries)


def test_duplicate_product_entries_rejected():
    data = algebra_to_dict(builtin("B2"))
    data["products"].append(dict(data["products"][0]))
    with pytest.raises(ValueError):
        algebra_from_dict(data)


def test_file_shape_is_checked_and_the_rest_left_to_the_constructors():
    # A JSON list or object cannot be a key, so the reader refuses it; every
    # other dim, name or index is checked by FiniteAlgebra and Bimodule.
    data = algebra_to_dict(builtin("B2"))
    for edit, message in [
        (lambda d: d["products"][0].update(left=[0]), "product indices must be integers"),
        (lambda d: d["products"][0]["result"][0].__setitem__(0, {}),
         r"product result terms must be \[index, coefficient\] pairs"),
        (lambda d: d.update(dim=2.0), "algebra dimension must be a positive int"),
        (lambda d: d.update(basis=["e1", 2]), "algebra basis names must be 2 distinct strings"),
        (lambda d: d.update(basis="e1"), "algebra basis must be a list of strings"),
        (lambda d: d["products"][0].update(left=True),
         r"product key \(True, 0\) out of range"),
        (lambda d: d["products"][0]["result"][0].__setitem__(0, 1.0),
         "product result index 1.0 out of range"),
    ]:
        bad = json.loads(json.dumps(data))
        edit(bad)
        with pytest.raises(ValueError, match=message):
            algebra_from_dict(bad)
    mod = bimodule_to_dict(regular(builtin("B2")))
    with pytest.raises(ValueError, match="module dimension must be a positive int"):
        bimodule_from_dict({**mod, "module_dim": "2"})


def test_fraction_coefficients_survive_the_file(tmp_path):
    alg = builtin("polyzinbiel(3)")
    path = tmp_path / "poly.json"
    save_algebra(alg, path)
    assert entry(load_algebra(path).products, 0, 1) == {2: Fraction(1, 2)}


@pytest.mark.parametrize("load", [load_algebra, load_bimodule])
def test_load_errors_name_the_path_once(tmp_path, load):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValueError) as bad_utf8:
        load(path)
    assert str(bad_utf8.value) == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte")
    data = algebra_to_dict(builtin("B2"))
    data["products"][0]["result"][0][1] = 0.5
    if load is load_bimodule:
        data = {**bimodule_to_dict(regular(builtin("B2"))), "algebra": data}
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError) as bad_scalar:
        load(path)
    assert str(bad_scalar.value) == (
        f"{path}: product entry (0, 0), index 1: "
        "scalar must be an int, string, or Fraction, not float")


def test_regular_actions_mirror_the_product():
    alg = builtin("B3")
    mod = regular(alg)
    for i in range(alg.dim):
        for k in range(alg.dim):
            assert entry(mod.left, i, k) == entry(alg.products, i, k)
            assert entry(mod.right, k, i) == entry(alg.products, k, i)


def _eager(obj):
    """obj rebuilt by the validating constructors from its tables."""
    if isinstance(obj, FiniteAlgebra):
        return FiniteAlgebra(obj.kind, obj.dim, obj.basis_names, obj.products)
    return Bimodule(_eager(obj.algebra), obj.dim, obj.basis_names, obj.left, obj.right)


_LAZY = {
    "tensor_lie": lambda: tensor_lie(builtin("freeleibniz(2,2)"), builtin("polyzinbiel(2)")),
    "tensor_module": lambda: TensorContext(
        builtin("lie2"), builtin("polyzinbiel(2)"), regular(builtin("polyzinbiel(2)"))).module,
    "build_truncated": lambda: builtin("freeleibniz(2,3)"),
    "regular": lambda: regular(builtin("freeleibniz(2,2)")),
}


@pytest.mark.parametrize("name", _LAZY)
def test_a_lazily_held_table_behaves_like_an_eager_one(name):
    # An object the package builds holds its integer forms alone until a
    # table is read; every way of reading a dataclass reads them.
    tables = ("products",) if name in ("tensor_lie", "build_truncated") else ("left", "right")

    def lazy():
        obj = _LAZY[name]()
        assert not set(tables) & vars(obj).keys()
        return obj

    eager = _eager(lazy())
    assert lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert copy.copy(lazy()) == eager and copy.deepcopy(lazy()) == eager
    assert pickle.loads(pickle.dumps(lazy())) == eager
    assert dataclasses.replace(lazy()) == eager
    read = lazy()
    for t in tables:
        assert getattr(read, t) == getattr(eager, t) and getattr(read, t) is getattr(read, t)
    assert vars(read) == vars(eager)
    cls = type(eager)
    for h in (lazy(), read, eager, object.__new__(cls)):
        with pytest.raises(AttributeError, match=f"'{cls.__name__}' object has no attribute 'x'"):
            h.x
    for t in tables:
        with pytest.raises(AttributeError):
            getattr(object.__new__(cls), t)


def test_regular_shares_a_lazily_held_table():
    mod = regular(builtin("freeleibniz(2,2)"))
    assert mod._left_int is mod._right_int is mod.algebra._products_int
    assert mod.left is mod.right is mod.algebra.products


def test_module_dims_and_names():
    mod = regular(builtin("B2"))
    assert isinstance(mod, Bimodule)
    assert mod.dim == 2
    assert mod.basis_names == ("e1", "e2")
    assert bimodule_to_dict(mod)["module_dim"] == 2
