"""Truncated free Leibniz algebras on m letters.

Basis elements are the left-normed words of length 1..N over the letters,
a word (i_1, ..., i_k) standing for [[...[x_{i_1}, x_{i_2}], ...], x_{i_k}].
Brackets of words expand by repeatedly folding the right argument into the
left one; any term longer than N is truncated to zero, which keeps the
quotient a Leibniz algebra because the word length is a grading.
"""
from __future__ import annotations

from itertools import combinations, product as iproduct
from typing import Dict, Iterator, List, Tuple

from .algebras import FiniteAlgebra

Word = Tuple[int, ...]

DEFAULT_DIM_CAP = 512

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _check_sizes(num_letters: int, max_length: int) -> None:
    if num_letters < 1:
        raise ValueError("need at least one letter")
    if max_length < 1:
        raise ValueError("maximum word length must be at least 1")


def words(num_letters: int, max_length: int) -> Iterator[Word]:
    """All words, shortest first, lexicographic within a length."""
    _check_sizes(num_letters, max_length)
    for length in range(1, max_length + 1):
        yield from iproduct(range(num_letters), repeat=length)


def word_count(num_letters: int, max_length: int) -> int:
    """m + m^2 + ... + m^N, in closed form."""
    m, n = num_letters, max(max_length, 0)
    return n if m == 1 else (m ** (n + 1) - m) // (m - 1)


def word_name(word: Word, num_letters: int) -> str:
    if num_letters <= len(_LETTERS):
        return "".join(_LETTERS[i] for i in word)
    return ".".join(f"x{i + 1}" for i in word)


def leibniz_expansion(m: int) -> List[Tuple[int, Word]]:
    """Left-normed expansion words for a bracket with an m-letter right argument.

    [u, z_1 ... z_m] = sum of sign * (u followed by z_{w(1)}, ..., z_{w(m)})
    over the returned (sign, w) pairs, w 1-based. Term i puts i of the letters
    2..m, reversed, before 1 and the rest after it, with sign (-1)^i; i runs
    up from 0 and the letters after 1 in combination order. There are
    2^(m-1) distinct words.
    """
    letters = range(2, m + 1)
    out: List[Tuple[int, Word]] = []
    for i in range(m):
        for after in combinations(letters, m - 1 - i):
            before = tuple(x for x in reversed(letters) if x not in after)
            out.append((-1 if i % 2 else 1, before + (1,) + after))
    return out


def word_bracket(u: Word, v: Word, max_length: int) -> Dict[Word, int]:
    """[u, v] expanded over basis words, dropping anything longer than max_length.

    The right argument v, itself a left-normed word, unfolds into 2^(len(v)-1)
    signed concatenations of u with a permuted copy of v's letters; repeated
    letters can make terms collide, so coefficients are merged: sums of
    signs, kept as ints.
    """
    if not u or not v:
        raise ValueError("words must be nonempty")
    out: Dict[Word, int] = {}
    if len(u) + len(v) > max_length:
        return out
    for sign, w in leibniz_expansion(len(v)):
        term = u + tuple(v[p - 1] for p in w)
        c = out.get(term, 0) + sign
        if c:
            out[term] = c
        else:
            del out[term]
    return out


def build_truncated(
    num_letters: int, max_length: int, dim_cap: int = DEFAULT_DIM_CAP
) -> FiniteAlgebra:
    """The free Leibniz algebra on num_letters letters, cut at word length max_length.

    Its table is built in ints, so the algebra takes it over as its integer
    form at D = 1, with no entry parsed: every key is a pair of basis
    indices and every value a nonzero int by construction. An algebra over
    dim_cap is refused before anything is built, as at least m^N when that
    alone is over 2^64 times the cap: the count could have too many digits.
    """
    _check_sizes(num_letters, max_length)
    over = f"over the cap {dim_cap}"
    if max_length * (num_letters.bit_length() - 1) > dim_cap.bit_length() + 64:
        raise ValueError(
            f"truncated free algebra needs dimension at least {num_letters}^{max_length}, {over}")
    count = word_count(num_letters, max_length)
    if count > dim_cap:
        raise ValueError(f"truncated free algebra needs dimension {count}, {over}")
    basis: List[Word] = list(words(num_letters, max_length))
    index = {w: i for i, w in enumerate(basis)}
    products: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if len(u) + len(v) > max_length:
                continue
            expansion = word_bracket(u, v, max_length)
            if expansion:
                products[(i, j)] = {index[w]: c for w, c in expansion.items()}
    return FiniteAlgebra._of("leibniz", count,
                             tuple(word_name(w, num_letters) for w in basis), (1, products))
