"""Shuffle enumeration and the expansion of an inner bracket.

The three frozen tables at the top are the ground truth for everything else:
they were derived by hand from the definitions and must never drift.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    invert_permutation,
    leibniz_expansion as shuffle_route_expansion,
    net_signed_shuffle_terms,
    permutation_sign,
    shuffles1,
    signed_shuffle_terms,
)

from zinbiel.complexes import _net_terms
from zinbiel.free_leibniz import leibniz_expansion

# Signed permutation families for the first three degrees, in enumeration
# order: identity block first, then one interior letter, then two.
SBAR_1 = [(1, (1,))]
SBAR_2 = [(1, (1, 2)), (1, (2, 1))]
SBAR_3 = [
    (1, (1, 2, 3)),
    (-1, (2, 3, 1)),
    (1, (2, 1, 3)),
    (-1, (3, 2, 1)),
]

# Inner-bracket expansion words for small lengths, same enumeration order.
EXPANSION_2 = [(1, (1, 2)), (-1, (2, 1))]
EXPANSION_3 = [
    (1, (1, 2, 3)),
    (-1, (3, 1, 2)),
    (-1, (2, 1, 3)),
    (1, (3, 2, 1)),
]


def test_signed_terms_frozen():
    assert signed_shuffle_terms(1) == SBAR_1
    assert signed_shuffle_terms(2) == SBAR_2
    assert signed_shuffle_terms(3) == SBAR_3


def test_expansion_frozen():
    assert leibniz_expansion(1) == [(1, (1,))]
    assert leibniz_expansion(2) == EXPANSION_2
    assert leibniz_expansion(3) == EXPANSION_3


def test_shuffles_small():
    assert shuffles1(1, 0) == [((1,), ())]
    assert shuffles1(2, 1) == [((1, 2), (3,)), ((1, 3), (2,))]
    assert shuffles1(1, 2) == [((1,), (2, 3))]


def test_first_block_must_hold_the_pinned_letter():
    with pytest.raises(ValueError):
        shuffles1(0, 2)


@given(st.integers(1, 5), st.integers(0, 4))
def test_shuffle_count(s, t):
    found = shuffles1(s, t)
    assert len(found) == math.comb(s + t - 1, t)
    for alpha, beta in found:
        assert alpha[0] == 1
        assert list(alpha) == sorted(alpha)
        assert list(beta) == sorted(beta)
        assert sorted(alpha + beta) == list(range(1, s + t + 1))
    assert len(set(found)) == len(found)


@given(st.permutations(list(range(1, 7))))
def test_sign_by_transposition_count(perm):
    perm = tuple(perm)
    # bubble-sort distance parity is the textbook definition of the sign
    arr = list(perm)
    swaps = 0
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps += 1
    assert permutation_sign(perm) == (-1) ** swaps


@given(st.permutations(list(range(1, 7))))
def test_inverse_permutation(perm):
    perm = tuple(perm)
    inv = invert_permutation(perm)
    assert tuple(perm[inv[i] - 1] for i in range(len(perm))) == tuple(
        range(1, len(perm) + 1)
    )
    assert permutation_sign(inv) == permutation_sign(perm)


@settings(deadline=None)
@given(st.integers(1, 6))
def test_expansion_has_no_cancellation(n):
    terms = leibniz_expansion(n)
    assert len(terms) == 2 ** (n - 1)
    assert len({w for _, w in terms}) == len(terms)
    for coeff, word in terms:
        assert coeff in (1, -1)
        assert sorted(word) == list(range(1, n + 1))


@settings(deadline=None)
@given(st.integers(1, 6))
def test_net_terms_merge_nothing(n):
    # distinct words in the raw list mean merging must be the identity
    raw = signed_shuffle_terms(n)
    net = net_signed_shuffle_terms(n)
    assert net == raw


@settings(deadline=None)
@given(st.integers(1, 5))
def test_signed_terms_are_inverse_expansion_words(n):
    # the two enumerations pair up: same blocks, inverted permutations
    expansion = {w: c for c, w in leibniz_expansion(n)}
    signed = {w: c for c, w in signed_shuffle_terms(n)}
    assert len(expansion) == len(signed)
    for word, coeff in expansion.items():
        inv = invert_permutation(word)
        assert signed[inv] == coeff * permutation_sign(word)


def test_words_are_permutations():
    for n in range(1, 6):
        for _, w in signed_shuffle_terms(n):
            assert sorted(w) == list(range(1, n + 1))
        assert len(signed_shuffle_terms(n)) == sum(
            math.comb(n - 1, i) for i in range(n)
        )


def test_all_permutations_appear_by_degree_four():
    words = {w for _, w in signed_shuffle_terms(4)}
    assert len(words) == 8
    assert words < set(permutations(range(1, 5)))


@pytest.mark.parametrize("n", range(1, 8))
def test_expansion_matches_shuffle_enumeration(n):
    # the combinations loop reproduces the shuffle-block enumeration, order included
    assert leibniz_expansion(n) == shuffle_route_expansion(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_net_terms_match_inverted_shuffle_terms(n):
    # the differential signs expansion words directly; the oracle route
    # enumerates signed shuffles, inverts them, merges, and inverts back
    expected = tuple(
        (Fraction(c), tuple(p - 1 for p in invert_permutation(sigma)))
        for c, sigma in net_signed_shuffle_terms(n)
    )
    assert _net_terms(n) == expected
