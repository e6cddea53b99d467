"""Truncated free Leibniz algebras on left-normed words."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from zinbiel import FiniteAlgebra, builtin, check_axioms
from zinbiel.free_leibniz import build_truncated, word_bracket, word_count, word_name, words


def rewrite_bracket(u, v, cap):
    """Oracle: bracket two left-normed words by the defining identity alone.

    A word is the left-normed bracket of its letters.  For |v| = 1 the
    bracket appends the letter; otherwise peel the last letter z of v and
    apply [u,[v',z]] = [[u,v'],z] - [[u,z],v'], extending bilinearly.
    Every surviving word has length |u| + |v|, so truncation is a single
    length test at entry.
    """
    if len(u) + len(v) > cap:
        return {}
    if len(v) == 1:
        return {u + v: 1}
    z, head = v[-1:], v[:-1]
    acc = Counter()
    for w, c in rewrite_bracket(u, head, cap).items():
        for w2, c2 in rewrite_bracket(w, z, cap).items():
            acc[w2] += c * c2
    for w, c in rewrite_bracket(u, z, cap).items():
        for w2, c2 in rewrite_bracket(w, head, cap).items():
            acc[w2] -= c * c2
    return {w: c for w, c in acc.items() if c}


def all_words(m, upto):
    return [w for n in range(1, upto + 1) for w in product(range(m), repeat=n)]


def test_bracket_matches_rewriting_oracle():
    cap = 4
    vocab = all_words(2, 3)
    pairs = [(u, v) for u in vocab for v in vocab if len(u) + len(v) <= cap]
    assert len(pairs) == 68
    for u, v in pairs:
        got = word_bracket(u, v, cap)
        want = {w: Fraction(c) for w, c in rewrite_bracket(u, v, cap).items()}
        assert got == want, (u, v)
        assert all(type(c) is int for c in got.values())


def test_bracket_fixed_values():
    a, b = (0,), (1,)
    assert word_bracket(a, b, 4) == {(0, 1): Fraction(1)}
    # [a,[a,b]] = [[a,a],b] - [[a,b],a] = aab - aba
    assert word_bracket(a, (0, 1), 4) == {
        (0, 0, 1): Fraction(1),
        (0, 1, 0): Fraction(-1),
    }
    assert word_bracket(a, b, 1) == {}
    assert word_bracket((0, 1), (0, 1), 3) == {}


def test_word_counts():
    assert word_count(2, 2) == 6
    assert word_count(2, 3) == 14
    assert word_count(2, 4) == 30
    assert word_count(3, 3) == 39
    assert word_count(1, 1) == 1
    assert all(word_count(m, n) == sum(m ** k for k in range(1, n + 1))
               for m in range(6) for n in range(-1, 7))


def test_words_order_and_names():
    listed = list(words(2, 2))
    assert listed == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert word_name((0, 1), 2) == "ab"
    assert word_name((2,), 3) == "c"
    assert word_name((0, 1), 30) == "x1.x2"


@pytest.mark.parametrize("m,cap", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_truncations_satisfy_the_leibniz_identity(m, cap):
    alg = build_truncated(m, cap)
    assert alg.kind == "leibniz"
    assert alg.dim == word_count(m, cap)
    report = check_axioms(alg, "leibniz")
    assert report.ok, report.witness


@pytest.mark.parametrize("m,cap", [(1, 1), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_truncations_make_no_fraction_until_read(monkeypatch, m, cap):
    # The table is built in ints and taken over as its integer form at D = 1;
    # read, it is the validated constructor's, entry order included.
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    alg = builtin(f"freeleibniz({m},{cap})")
    monkeypatch.undo()
    assert made == 0 and "products" not in vars(alg)
    ints = alg._products_int
    assert ints[0] == 1 and all(type(c) is int for v in ints[1].values() for c in v.values())
    eager = FiniteAlgebra("leibniz", alg.dim, alg.basis_names, ints[1])
    assert [(k, list(v.items())) for k, v in alg.products.items()] == [
        (k, list(v.items())) for k, v in eager.products.items()]
    assert alg == eager and alg._products_int == eager._products_int


def test_truncation_grades_by_length():
    alg = build_truncated(2, 3)
    lengths = {i: len(w) for i, w in enumerate(words(2, 3))}
    for (i, j), vec in alg.products.items():
        for k in vec:
            assert lengths[k] == lengths[i] + lengths[j]


def test_dim_cap():
    with pytest.raises(ValueError):
        build_truncated(2, 10, dim_cap=512)
    with pytest.raises(ValueError):
        build_truncated(0, 1)
    with pytest.raises(ValueError):
        build_truncated(2, 0)
