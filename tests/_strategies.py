"""Hypothesis strategies shared by the test modules: catalog algebras in random bases."""

from fractions import Fraction

from hypothesis import strategies as st

from _oracles import change_basis
from zinbiel import builtin

fractions_1_to_6 = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
nonzero_fractions = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 6))


@st.composite
def basis_changes(draw, n):
    """P = L U, L unit lower and U upper triangular with a nonzero diagonal, so invertible.

    About half of the other entries of L and U are 0, which keeps the tables
    small enough for dense elimination.
    """
    entry = st.one_of(st.just(Fraction(0)), fractions_1_to_6)
    one, zero = Fraction(1), Fraction(0)
    L = [[draw(entry) if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
    U = [[draw(entry) if j > i else draw(nonzero_fractions) if j == i else zero for j in range(n)]
         for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def fractional(draw, name):
    """The builtin algebra in a random basis with entries n/d, d in 1..6, product times such a t."""
    alg = builtin(name)
    return change_basis(alg, draw(basis_changes(alg.dim)), draw(nonzero_fractions))
