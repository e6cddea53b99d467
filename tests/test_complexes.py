"""Both cochain complexes: differentials, matrices, dimensions.

The dense routes in _oracles recompute everything the sparse machinery
produces, from independent transcriptions of the printed formulas.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, astuple, replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (
    apply_via_fractions,
    ce_delta1_adjoint,
    ce_delta2_adjoint,
    change_module_basis,
    ce_delta_gather,
    cochain_to_vector,
    column_entries,
    cohomology_dims_full,
    delta_map_probed,
    dense_delta_matrix,
    dense_nullspace,
    dense_rank,
    dense_vec,
    dl_delta_lowdeg,
    linear_combination,
    matrix_nested,
    mul_vec,
    to_dense,
)
from _strategies import basis_changes, fractional
from zinbiel import (
    Bimodule,
    Cochain,
    builtin,
    ce_delta,
    ce_delta_matrix,
    ce_space_dim,
    check_axioms,
    cohomology_dims,
    dl_delta,
    dl_delta_matrix,
    dl_space_dim,
    perturbed_b2,
    random_dl_cochain,
    regular,
)
from zinbiel import complexes, linalg, tensor_bridge
from zinbiel.complexes import (
    DL_MAX_DEGREE,
    _apply,
    _assemble,
    _delta_map,
    _matrix,
    ce_tuples,
    dl_tuples,
)
from zinbiel.sparsevec import common_scale, integral, lowest_terms, same_values, unscaled
from zinbiel.tensor_bridge import TensorContext, _psi_map, psi_apply, psi_matrix, verify_chain_map

CATALOG = ("B2", "B3", "polyzinbiel(2)", "leibniz2", "lie2", "freeleibniz(2,2)")
ZINBIEL_CATALOG = ("B2", "B3", "polyzinbiel(2)", "polyzinbiel(3)")

# Second cohomology of B2 with regular coefficients: the worked example.
B2_EXPECTED = {"dim_C": 8, "dim_Z": 3, "dim_B": 2, "dim_H": 1}

# lie2 with adjoint coefficients is rigid: everything vanishes.
LIE2_ADJOINT = {0: (2, 0, 0, 0), 1: (4, 2, 2, 0), 2: (2, 2, 2, 0)}


def seeded_cochains(algebra_name, per_degree=3, seed_base=100):
    alg = builtin(algebra_name)
    mod = regular(alg)
    out = []
    for degree in (1, 2, 3):
        for t in range(per_degree):
            rng = Random(seed_base + 10 * degree + t)
            out.append((mod, random_dl_cochain(alg.dim, mod.dim, degree, rng)))
    return out


def test_low_degree_transcription_agrees_everywhere():
    total = 0
    for name in CATALOG:
        for mod, f in seeded_cochains(name):
            lhs = dl_delta(f, mod)
            rhs = dl_delta_lowdeg(f, mod)
            assert lhs.values == rhs.values, (name, f.degree)
            total += 1
    assert total == 54


def test_worked_example_dims_by_dense_route():
    mod = regular(builtin("B2"))
    d1 = dense_delta_matrix(mod, 1, dl_delta_lowdeg)
    d2 = dense_delta_matrix(mod, 2, dl_delta_lowdeg)
    rank1, rank2 = dense_rank(d1), dense_rank(d2)
    assert (rank1, rank2) == (2, 5)
    dim_c = dl_space_dim(2, 2, 2)
    assert dim_c == B2_EXPECTED["dim_C"]
    assert dim_c - rank2 == B2_EXPECTED["dim_Z"]
    assert rank1 == B2_EXPECTED["dim_B"]

    dims = cohomology_dims(mod, "dl", 2)
    assert dims.dim_cochains == B2_EXPECTED["dim_C"]
    assert dims.dim_cocycles == B2_EXPECTED["dim_Z"]
    assert dims.dim_coboundaries == B2_EXPECTED["dim_B"]
    assert dims.dim_cohomology == B2_EXPECTED["dim_H"]


@pytest.mark.parametrize("name", CATALOG)
def test_dl_matrix_matches_application(name):
    alg = builtin(name)
    mod = regular(alg)
    for degree in (1, 2):
        mat = dl_delta_matrix(mod, degree)
        rng = Random(7 + degree)
        f = random_dl_cochain(alg.dim, mod.dim, degree, rng)
        via_matrix = mul_vec(mat, dense_vec(cochain_to_vector(f), mat.ncols))
        direct = dense_vec(cochain_to_vector(dl_delta(f, mod)), mat.nrows)
        assert via_matrix == direct


@pytest.mark.parametrize("name", ZINBIEL_CATALOG)
def test_dl_delta_squares_to_zero(name):
    mod = regular(builtin(name))
    for n in (1, 2):
        a = dl_delta_matrix(mod, n + 1)
        b = dl_delta_matrix(mod, n)
        assert a.mul(b).is_zero(), (name, n)


def test_dl_delta_square_detects_non_zinbiel():
    # the vanishing of the square is equivalent to the right identity,
    # so the perturbed product must break it
    mod = regular(perturbed_b2())
    assert not dl_delta_matrix(mod, 2).mul(dl_delta_matrix(mod, 1)).is_zero()
    assert not dl_delta_matrix(mod, 3).mul(dl_delta_matrix(mod, 2)).is_zero()


def _cochain_from_pairs(pairs, dim, mdim):
    values = {k: {m: Fraction(v) for m, v in vec.items()} for k, vec in pairs.items()}
    return Cochain("ce", 2, dim, mdim, values)


def test_ce_degree1_matches_printed_formula():
    alg = builtin("lie2")
    mod = regular(alg)
    rng = Random(3)
    f_table = {
        i: {m: Fraction(rng.randint(-9, 9)) for m in range(2)} for i in range(2)
    }
    f = Cochain("ce", 1, 2, 2, {(i,): dict(v) for i, v in f_table.items()})
    got = ce_delta(f, mod)
    want = ce_delta1_adjoint(alg.products, 2, f_table)
    for key, vec in want.items():
        assert got.values.get(key, {}) == vec


def test_ce_degree2_matches_printed_formula():
    for name in ("lie2",):
        alg = builtin(name)
        mod = regular(alg)
        dim = alg.dim
        rng = Random(5)
        pairs = {
            key: {m: Fraction(rng.randint(-9, 9)) for m in range(dim)}
            for key in ce_tuples(dim, 2)
        }
        f = _cochain_from_pairs(pairs, dim, dim)
        got = ce_delta(f, mod)
        want = ce_delta2_adjoint(alg.products, dim, pairs)
        for key, vec in want.items():
            assert got.values.get(key, {}) == vec, key


def test_ce_degree2_matches_printed_formula_on_tensor_algebra():
    ctx = TensorContext(builtin("leibniz2"), builtin("B2"), regular(builtin("B2")))
    lie = ctx.lie
    rng = Random(11)
    pairs = {
        key: {m: Fraction(rng.randint(-9, 9)) for m in range(lie.dim)}
        for key in ce_tuples(lie.dim, 2)
    }
    f = _cochain_from_pairs(pairs, lie.dim, lie.dim)
    got = ce_delta(f, ctx.module)
    want = ce_delta2_adjoint(lie.products, lie.dim, pairs)
    for key, vec in want.items():
        assert got.values.get(key, {}) == vec, key


def test_ce_delta_squares_to_zero_lie2():
    mod = regular(builtin("lie2"))
    mats = {n: ce_delta_matrix(mod, n) for n in range(4)}
    for n in (0, 1, 2):
        assert mats[n + 1].mul(mats[n]).is_zero()


def test_ce_matrix_matches_application():
    mod = regular(builtin("lie2"))
    rng = Random(9)
    pairs = {
        key: {m: Fraction(rng.randint(-9, 9)) for m in range(2)}
        for key in ce_tuples(2, 2)
    }
    f = _cochain_from_pairs(pairs, 2, 2)
    mat = ce_delta_matrix(mod, 2)
    assert mul_vec(mat, dense_vec(cochain_to_vector(f), mat.ncols)) == \
        dense_vec(cochain_to_vector(ce_delta(f, mod)), mat.nrows)


def test_lie2_adjoint_dims_frozen():
    mod = regular(builtin("lie2"))
    for degree, (c, z, b, h) in LIE2_ADJOINT.items():
        dims = cohomology_dims(mod, "ce", degree)
        assert (dims.dim_cochains, dims.dim_cocycles,
                dims.dim_coboundaries, dims.dim_cohomology) == (c, z, b, h)


def test_ce_cochain_rejects_repeated_indices():
    with pytest.raises(ValueError):
        Cochain("ce", 2, 2, 2, {(0, 0): {0: Fraction(1)}})
    with pytest.raises(ValueError):
        Cochain("ce", 2, 2, 2, {(1, 0): {0: Fraction(1)}})


def test_cochain_indices_and_dims_must_be_ints():
    # Kept, the key (0.5,) would reach dl_delta and come out as (0, 0.5) and (0.5, 0).
    with pytest.raises(ValueError, match=r"key \(0.5,\) out of range for dim 2"):
        dl_delta(Cochain("dl", 1, 2, 2, {(0.5,): {0: 1}}), regular(builtin("B2")))
    with pytest.raises(ValueError, match=r"key \(True, 0\) out of range for dim 2"):
        Cochain("dl", 2, 2, 2, {(True, 0): {0: 1}})
    with pytest.raises(ValueError, match=r"key \(0,\) has length 1, expected 2"):
        Cochain("dl", 2, 2, 2, {(0,): {0: 1}})
    with pytest.raises(ValueError, match="module index False out of range"):
        Cochain("ce", 1, 2, 2, {(0,): {False: 1}})
    for args in ((1.0, 2, 2), (1, 2.0, 2), (1, 2, True)):
        with pytest.raises(ValueError, match="cochain degree and dims must be ints"):
            Cochain("dl", *args, {})
    # As Matrix refuses negative sizes; a dim of 0 is an empty space.
    for theory, args, dims in (("dl", (1, -3, -2), "-3 and -2"), ("ce", (0, 2, -1), "2 and -1")):
        with pytest.raises(ValueError, match=f"^cochain dims must be nonnegative, got {dims}$"):
            Cochain(theory, *args, {})
    assert Cochain("dl", 1, 0, 0).values == random_dl_cochain(0, 0, 1, Random(0)).values == {}


@pytest.mark.parametrize("theory, degree, build, message", [
    ("dl", 0, dl_delta_matrix, "dl cochains start at degree 1, got 0"),
    ("ce", -1, ce_delta_matrix, "ce cochains start at degree 0, got -1"),
])
def test_cochain_degree_message_matches_the_degree_check(theory, degree, build, message):
    with pytest.raises(ValueError) as direct:
        Cochain(theory, degree, 2, 2, {})
    with pytest.raises(ValueError) as checked:
        build(regular(builtin("B2")), degree)
    assert str(direct.value) == str(checked.value) == message


@pytest.mark.parametrize("apply, theory, f", [
    (dl_delta, "dl", Cochain("ce", 0, 2, 2, {})),
    (dl_delta, "dl", Cochain("dl", 1, 3, 2, {})),
    (ce_delta, "ce", Cochain("dl", 1, 2, 2, {})),
    (ce_delta, "ce", Cochain("ce", 1, 2, 3, {})),
    (psi_apply, "dl", Cochain("ce", 1, 2, 2, {})),
    (psi_apply, "dl", Cochain("dl", 2, 2, 1, {})),
])
def test_applied_maps_check_their_input_before_building(monkeypatch, apply, theory, f):
    def no_map(*args):
        raise AssertionError("a map was built before the input check")

    monkeypatch.setattr("zinbiel.complexes._delta_map", no_map)
    monkeypatch.setattr("zinbiel.tensor_bridge._psi_map", no_map)
    mod = regular(builtin("B2"))
    with pytest.raises(ValueError) as err:
        if apply is psi_apply:
            psi_apply(TensorContext(builtin("leibniz2"), mod.algebra, mod), f)
        else:
            apply(f, mod)
    assert str(err.value) == (
        f"{apply.__name__} needs a {theory} cochain with algebra dim 2 and module dim 2, "
        f"got {f.theory} with {f.algebra_dim} and {f.module_dim}")


def test_space_dims():
    assert dl_space_dim(2, 2, 3) == 16
    assert ce_space_dim(4, 4, 2) == 24
    assert ce_space_dim(4, 4, 0) == 4
    assert len(list(dl_tuples(2, 3))) == 8
    assert len(list(ce_tuples(4, 2))) == 6


def test_degree_caps():
    mod = regular(builtin("B2"))
    g = builtin("leibniz2")
    ctx = TensorContext(g, builtin("B2"), mod)
    for degree in (0, DL_MAX_DEGREE + 1):
        with pytest.raises(ValueError) as want:
            dl_delta_matrix(mod, degree)
        with pytest.raises(ValueError) as got:
            psi_matrix(ctx, degree)
        assert str(got.value) == str(want.value)
    # psi_apply never sees degree 0, as no such cochain can be built (see
    # test_cochain_degree_message_matches_the_degree_check), and takes
    # DL_MAX_DEGREE + 1, since the chain-map check applies it to delta f.
    assert verify_chain_map(g, ctx.B, mod, DL_MAX_DEGREE, trials=1).passed
    with pytest.raises(ValueError):
        cohomology_dims(mod, "ce", -1)
    with pytest.raises(ValueError):
        cohomology_dims(mod, "hochschild", 1)


def test_cohomology_dims_rejects_input_outside_the_family():
    # lie2 is not Zinbiel, so delta_DL o delta_DL != 0: at degree 3 its DL
    # coboundaries (6) would outnumber its cocycles (4), giving dim H = -2
    with pytest.raises(ValueError, match=r"dl complex, degree 3: dim B = 6 > dim Z = 4"):
        cohomology_dims(regular(builtin("lie2")), "dl", 3)


def test_random_cochain_is_seed_stable():
    a = random_dl_cochain(2, 2, 2, Random(42))
    b = random_dl_cochain(2, 2, 2, Random(42))
    assert a.values == b.values
    flat = [c for vec in a.values.values() for c in vec.values()]
    assert all(-9 <= c <= 9 for c in flat)


@pytest.mark.parametrize("md", [1, 2])
def test_random_cochain_equals_the_validated_one(md):
    # The draws skip the entry parse: given the same draws, the validating
    # constructor builds an equal cochain. Seed 0 draws a zero, which is
    # dropped, and with md = 1 it empties a vector, which is dropped too.
    f = random_dl_cochain(3, md, 2, Random(0))
    rng = Random(0)
    draws = {key: {k: rng.randint(-9, 9) for k in range(md)} for key in dl_tuples(3, 2)}
    assert f == Cochain("dl", 2, 3, md, draws)
    assert sum(map(len, f.values.values())) < 9 * md
    assert all(type(c) is Fraction and c for vec in f.values.values() for c in vec.values())
    for args, message in (((3, md, 0), "dl cochains start at degree 1, got 0"),
                          ((3, md, True), "cochain degree and dims must be ints"),
                          ((3.0, md, 2), "cochain degree and dims must be ints"),
                          ((-1, md, 1), f"cochain dims must be nonnegative, got -1 and {md}"),
                          ((3, -md, 2), f"cochain dims must be nonnegative, got 3 and {-md}")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_dl_cochain(*args, Random(0))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_delta_is_linear(seed):
    mod = regular(builtin("B3"))
    rng = Random(seed)
    f = random_dl_cochain(3, 3, 2, rng)
    g = random_dl_cochain(3, 3, 2, rng)
    lhs = dl_delta(linear_combination(f, g, Fraction(3)), mod)
    rhs = linear_combination(dl_delta(f, mod), dl_delta(g, mod), Fraction(3))
    assert lhs.values == rhs.values


def _assert_integer_assembly_matches(theory, module, degree, oracle):
    # The public matrix is _assemble's: its int columns are D times the
    # map's, held over D, the map's scale. Its rows, rank and nullspace are
    # the map's, and so is the applied form. The oracle reads the Fraction
    # tables.
    want = dense_delta_matrix(module, degree, oracle, theory)
    d = _delta_map(theory, module, degree).scale
    m = (dl_delta_matrix if theory == "dl" else ce_delta_matrix)(module, degree)
    internal = _assemble(theory, module, degree)
    assert (m._scale, m._cols) == (internal._scale, internal._cols) and m._scale == d
    ints = {(i, j): v for j, col in m._cols.items() for i, v in col.items()}
    assert all(type(v) is int for v in ints.values())
    assert ints == {(i, j): d * x for i, row in enumerate(want) for j, x in enumerate(row) if x}
    assert to_dense(m) == want
    kernel = dense_nullspace(want)
    assert m.rank() == len(want[0]) - len(kernel)
    assert m.nullspace() == kernel
    applied = dl_delta if theory == "dl" else ce_delta
    assert dense_delta_matrix(module, degree, applied, theory) == want


@settings(deadline=None, max_examples=15)
@given(st.sampled_from(("B2", "B3", "polyzinbiel(2)")).flatmap(fractional), st.data())
def test_integer_dl_assembly_matches_the_fraction_route(B, data):
    # The regular bimodule in a basis of its own, so the actions' denominators
    # need not be the product's.
    M = change_module_basis(regular(B), data.draw(basis_changes(B.dim)))
    assert check_axioms(B, "zinbiel").ok and check_axioms(B, "zinbiel-bimodule", M).ok
    assume(_delta_map("dl", M, 1).scale > 1)
    for n in (1, 2):
        _assert_integer_assembly_matches("dl", M, n, dl_delta_lowdeg)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(("leibniz2", "lie2")).flatmap(fractional), fractional("B2"))
def test_integer_ce_assembly_matches_the_fraction_route(g, B):
    T = TensorContext(g, B, regular(B)).module
    assume(_delta_map("ce", T, 0).scale > 1)
    for n in (0, 1, 2):
        _assert_integer_assembly_matches("ce", T, n, ce_delta_gather)


def test_ce_map_scales_only_the_tables_it_reads():
    # delta_CE never reads the right action, so a denominator of 7 there
    # leaves its scale at 1; delta_DL reads it and is scaled by 7.
    lie = builtin("lie2")
    M = Bimodule(lie, 2, ("m1", "m2"), left=regular(lie).left, right={(0, 1): {0: Fraction(3, 7)}})
    assert _delta_map("ce", M, 0).scale == 1
    assert _delta_map("dl", M, 1).scale == 7
    for n in (0, 1):
        _assert_integer_assembly_matches("ce", M, n, ce_delta_gather)


def test_scaling_rule_round_trips_and_drops_zeros():
    a = {(0, 1): {0: Fraction(1, 3), 2: Fraction(2)}, (1, 1): {1: Fraction(-5, 4)}}
    b = {(0,): {3: Fraction(7, 6)}}
    form = integral(a)
    assert form == (12, {(0, 1): {0: 4, 2: 24}, (1, 1): {1: -15}})
    assert unscaled(form) == a
    assert integral(b) == (6, {(0,): {3: 7}})
    assert integral({}) == (1, {})
    # Integer forms brought to one D, the lcm of 3, 4 and 6, and a table
    # already at D is passed on, not copied.
    forms = [integral(a), integral(b)]
    d, (ai, bi) = common_scale(*forms)
    assert (d, bi) == (12, {(0,): {3: 14}}) and ai is forms[0][1]
    assert unscaled((d, ai)) == a and unscaled((d, bi)) == b
    assert common_scale() == (1, []) and common_scale((1, {})) == (1, [{}])
    # Sums over 12 in lowest terms are the form integral gives their values.
    sums = {(0, 1): {0: 4, 1: 0, 2: 24}, (1, 1): {1: -18}, (2, 2): {0: 0}}
    assert lowest_terms(sums, 12) == (6, {(0, 1): {0: 2, 2: 12}, (1, 1): {1: -9}})
    assert lowest_terms(sums, 12) == integral(unscaled((12, sums)))
    assert lowest_terms({(0, 0): {0: 0}}, 5) == (1, {})
    # The zeros a sum leaves are dropped, and so are the vectors they empty.
    assert unscaled((4, {"x": {0: 0, 1: 6}, "y": {2: 0}, "z": {}})) == {"x": {1: Fraction(3, 2)}}


def _fractional_cochain(theory, degree, dim, md, rng):
    tuples = dl_tuples if theory == "dl" else ce_tuples
    return Cochain(theory, degree, dim, md, {
        key: {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in range(md)}
        for key in tuples(dim, degree)
    })


def _fraction_route(apply, m, f):
    """apply(f), checked against the Fraction route on copies, so f and the output stay unread."""
    out = apply(f)
    d, ints = out._form
    assert type(d) is int
    assert all(vec and all(type(v) is int and v for v in vec.values()) for vec in ints.values())
    values = copy.copy(out).values
    assert values == apply_via_fractions(m, copy.copy(f))
    assert all(type(c) is Fraction for vec in values.values() for c in vec.values())
    assert "values" not in vars(out)
    return out


@settings(deadline=None, max_examples=15)
@given(st.sampled_from(("leibniz2", "lie2")).flatmap(fractional), fractional("B2"),
       st.booleans(), st.integers(0, 10_000))
def test_applied_maps_keep_ints_and_match_the_fraction_route(g, B, draw_ints, seed):
    # Each output is an integer form, zero-free, whose values are those of the
    # Fraction route. The inputs: an int draw or a cochain with fractional
    # coefficients, the outputs of maps (both sides of the chain-map identity),
    # and coboundaries, whose images cancel to an empty cochain, read either
    # from their integer form or from an equal Cochain built from Fractions.
    ctx = TensorContext(g, B, regular(B))
    M, T = ctx.M, ctx.module
    rng = Random(seed)
    for n in (1, 2):
        f = (random_dl_cochain(B.dim, M.dim, n, rng) if draw_ints
             else _fractional_cochain("dl", n, B.dim, M.dim, rng))
        up = _fraction_route(lambda h: psi_apply(ctx, h), _psi_map(ctx, n), f)
        dl = _fraction_route(lambda h: dl_delta(h, M), _delta_map("dl", M, n), f)
        _fraction_route(lambda h: psi_apply(ctx, h), _psi_map(ctx, n + 1), dl)
        ce = _fraction_route(lambda h: ce_delta(h, T), _delta_map("ce", T, n), up)
        # Over leibniz2, psi f is a CE cocycle already; over lie2 it is not.
        assert dl._form[1] and bool(ce._form[1]) == (g.kind == "lie")
        for apply, m, h in ((lambda h: dl_delta(h, M), _delta_map("dl", M, n + 1), dl),
                            (lambda h: ce_delta(h, T), _delta_map("ce", T, n + 1), ce)):
            for x in (h, Cochain(h.theory, h.degree, h.algebra_dim, h.module_dim,
                                 copy.copy(h).values)):
                assert _fraction_route(apply, m, x)._form[1] == {}
        assert verify_chain_map(g, B, M, n, trials=2, seed=seed, with_axioms=False).passed


_int_tables = st.dictionaries(
    st.tuples(st.integers(0, 2)),
    st.dictionaries(st.integers(0, 2), st.integers(-5, 5).filter(bool), min_size=1, max_size=3),
    max_size=3)


@given(_int_tables, _int_tables, st.integers(1, 12), st.integers(1, 12), st.integers(2, 6))
def test_int_comparison_agrees_with_fraction_equality(a, b, da, db, t):
    # Unequal pairs as drawn, the same values at a scale t times larger, and
    # those values with one entry moved by 1 (nearly equal, same keys).
    scaled = {key: {k: v * t for k, v in vec.items()} for key, vec in a.items()}
    pairs = [((da, a), (db, b)), ((da, a), (da * t, scaled))]
    if a:
        key = next(iter(a))
        k = next(iter(a[key]))
        moved = {key: dict(vec) for key, vec in scaled.items()}
        moved[key][k] += 1
        pairs.append(((da, a), (da * t, moved)))
    for x, y in pairs:
        want = unscaled(x) == unscaled(y)
        assert same_values(x, y) == same_values(y, x) == want
    assert same_values((da, a), (da * t, scaled))


def test_a_lazily_held_cochain_behaves_like_any_cochain():
    # dl_delta's output holds its integer form, over a scale above 1, until
    # its values are read; every way of reading a dataclass reads them.
    M = regular(builtin("B2"))
    f = _fractional_cochain("dl", 1, 2, 2, Random(5))

    def lazy():
        out = dl_delta(f, M)
        assert "values" not in vars(out) and out._form[0] > 1
        return out

    eager = Cochain("dl", 2, 2, 2, apply_via_fractions(_delta_map("dl", M, 1), f))
    assert eager.values and lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert asdict(lazy()) == asdict(eager) and astuple(lazy()) == astuple(eager)
    assert copy.deepcopy(lazy()) == eager and copy.copy(lazy()) == eager
    assert pickle.loads(pickle.dumps(lazy())) == eager
    read = lazy()
    assert read.values == eager.values and vars(read) == vars(eager)
    for h in (lazy(), read, eager, object.__new__(Cochain)):
        with pytest.raises(AttributeError, match="'Cochain' object has no attribute 'missing'"):
            h.missing
    with pytest.raises(AttributeError):
        object.__new__(Cochain).values


def test_a_cochain_is_read_only_once_built():
    # A cochain, built from Fractions or by a map, holds its integer form
    # from construction; like the tables it is frozen, so the two stay in step.
    M = regular(builtin("B2"))
    built = Cochain("dl", 1, 2, 2, {(0,): {1: Fraction(1, 2)}, (1,): {}})
    assert built._form == (2, {(0,): {1: 1}})
    for f in (built, dl_delta(random_dl_cochain(2, 2, 1, Random(1)), M)):
        with pytest.raises(FrozenInstanceError):
            f.values = {}
        with pytest.raises(TypeError, match="unhashable"):
            hash(f)
        assert replace(f) == f and replace(f)._form == integral(f.values)


def _assert_terms_match_probed_unmerged(theory, module, degrees):
    # The map's blocks come from the actions' nonzeros and its DL shuffle
    # words are merged per output tuple; the oracle probes every (x, k) pair
    # and yields every word on its own. Matrix and applied form must agree.
    rng = Random(repr(module.algebra.products))
    for n in degrees:
        fast, slow = _delta_map(theory, module, n), delta_map_probed(theory, module, n)
        assert fast.scale == slow.scale
        assert _matrix(fast)._cols == _matrix(slow)._cols, n
        f = _fractional_cochain(theory, n, module.algebra.dim, module.dim, rng)
        assert _apply(fast, f) == _apply(slow, f), n


@pytest.mark.parametrize("theory, name", [
    *(("dl", name) for name in ZINBIEL_CATALOG),
    ("ce", "lie2"), ("ce", "freeleibniz(2,2)"),
])
def test_terms_match_the_probed_unmerged_route(theory, name):
    degrees = (1, 2, 3, 4) if theory == "dl" else (0, 1, 2)
    _assert_terms_match_probed_unmerged(theory, regular(builtin(name)), degrees)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(("B2", "B3", "polyzinbiel(2)")).flatmap(fractional), st.data())
def test_terms_match_the_probed_unmerged_route_in_any_basis(B, data):
    M = change_module_basis(regular(B), data.draw(basis_changes(B.dim)))
    _assert_terms_match_probed_unmerged("dl", M, (1, 2, 3, 4))


def test_merged_shuffle_words_yield_fewer_terms():
    # On delta_DL^4 of regular(polyzinbiel(3)), summing the shuffle words
    # that place an input with a repeated letter as the same tuple, and
    # dropping the sums that cancel, leaves 6,984 of the 9,600 terms.
    M = regular(builtin("polyzinbiel(3)"))

    def count(m):
        return sum(1 for X in dl_tuples(M.algebra.dim, 4) for _ in m.terms(X))

    assert count(_delta_map("dl", M, 4)) == 6_984
    assert count(delta_map_probed("dl", M, 4)) == 9_600


def _stream_map(kind, n):
    """delta_CE^n of fl(2,2)(x)B2, delta_DL^n of regular(polyzinbiel(3)), psi_n of fl(2,4)(x)B2."""
    if kind == "dl":
        return _delta_map("dl", regular(builtin("polyzinbiel(3)")), n)
    B = builtin("B2")
    g = builtin("freeleibniz(2,2)" if kind == "ce" else "freeleibniz(2,4)")
    ctx = TensorContext(g, B, regular(B))
    return _delta_map("ce", ctx.module, n) if kind == "ce" else _psi_map(ctx, n)


@pytest.mark.parametrize("kind, n", [
    *(("ce", n) for n in (0, 1, 2)),
    *(("dl", n) for n in (1, 2, 3, 4)),
    *(("psi", n) for n in (1, 2, 3)),
])
def test_flat_stream_matches_the_nested_walk(kind, n, monkeypatch):
    # _matrix streams each block's (k, j, v) triples in one loop; the oracle
    # walks the same map built with its blocks left as {k: image of m_k}
    # dicts, k by k. Every column must list the same rows in the same order,
    # so the sparsest-first labels, their first-touch ties and the pivots
    # that rank finds do not move.
    m = _stream_map(kind, n)
    with monkeypatch.context() as patch:
        for module in (complexes, tensor_bridge):
            patch.setattr(module, "_block", lambda images: images)
        nested = _stream_map(kind, n)
    assert column_entries(_matrix(m)) == column_entries(matrix_nested(nested))


def _dims(module, theory, degree):
    return astuple(cohomology_dims(module, theory, degree))[2:]


def _assert_dims_match_every_column(module, theory, degree):
    want = cohomology_dims_full(module, theory, degree)
    if want[2] > want[1]:
        with pytest.raises(ValueError, match=r"dim B = \d+ > dim Z = \d+"):
            cohomology_dims(module, theory, degree)
    else:
        assert _dims(module, theory, degree) == want, (theory, degree)


@pytest.mark.parametrize("theory, name", [
    *(("dl", name) for name in ZINBIEL_CATALOG),
    *(("ce", name) for name in ("lie2", "leibniz2", "freeleibniz(2,2)")),
])
def test_cleared_dims_match_every_column_ranked(theory, name):
    # cohomology_dims ranks delta^n only on the columns that delta^(n-1)'s
    # pivots leave; the oracle ranks every column of both, row by row.
    module = regular(builtin(name))
    for degree in (1, 2, 3, 4) if theory == "dl" else (0, 1, 2, 3):
        _assert_dims_match_every_column(module, theory, degree)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(("B2", "B3", "polyzinbiel(2)")).flatmap(fractional), st.data())
def test_cleared_dims_match_every_column_in_any_basis(B, data):
    # A change of basis of the algebra and of the module moves the rows at
    # which delta^(n-1)'s pivots lead, and so the columns of delta^n cleared.
    M = change_module_basis(regular(B), data.draw(basis_changes(B.dim)))
    for degree in (1, 2, 3):
        _assert_dims_match_every_column(M, "dl", degree)
    g = data.draw(fractional("lie2"))
    for degree in (0, 1, 2):
        _assert_dims_match_every_column(regular(g), "ce", degree)


def test_dims_fall_back_to_every_column_without_the_certificate():
    # lie2 is not Zinbiel: delta_DL^2 o delta_DL^1 != 0, so the coboundaries'
    # pivots need not be cocycles and no column of delta^2 is cleared.
    # Clearing them anyway reads (8, 3, 2, 1).
    M = regular(builtin("lie2"))
    assert not _assemble("dl", M, 2).mul(_assemble("dl", M, 1)).is_zero()
    assert _dims(M, "dl", 2) == (8, 2, 2, 0)


def test_cleared_dims_cancel_little(monkeypatch):
    # 204 of the 205 columns of delta_DL^4 that fall dependent are
    # coboundaries, cleared before the rank: about 800 cancellations in all,
    # against 3,469 with every column ranked.
    calls = 0
    cancel = linalg._cancel

    def counted(*args):
        nonlocal calls
        calls += 1
        return cancel(*args)

    monkeypatch.setattr(linalg, "_cancel", counted)
    assert _dims(regular(builtin("polyzinbiel(3)")), "dl", 4) == (1024, 205, 204, 1)
    assert calls <= 1000


def test_a_map_reads_the_integer_form_of_a_cochain_whose_values_were_read(monkeypatch):
    # Reading an output's values keeps its integer form, so the next map
    # reads that form and clears no denominators (integral) on the way.
    B = builtin("B2")
    ctx = TensorContext(builtin("freeleibniz(2,3)"), B, regular(B))
    f = random_dl_cochain(2, 2, 1, Random(11))
    cleared = 0
    clear = complexes.integral

    def counted(table):
        nonlocal cleared
        cleared += 1
        return clear(table)

    monkeypatch.setattr(complexes, "integral", counted)
    dl = dl_delta(f, ctx.M)
    assert dl.values
    up = psi_apply(ctx, dl)
    assert up.values
    out = ce_delta(up, ctx.module)
    monkeypatch.undo()
    assert cleared == 0
    assert out == ce_delta(psi_apply(ctx, dl_delta(f, ctx.M)), ctx.module)
