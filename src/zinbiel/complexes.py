"""Cochain complexes: the dual-Leibniz complex and the Chevalley-Eilenberg complex.

Two cochain theories share one container type:

* theory "dl": degree n >= 1, a cochain assigns a module vector to every
  n-tuple of basis indices (no symmetry). The differential raises degree by
  one and combines a left action against a signed shuffle sum, interior
  products in both factor orders, and a right action on the last argument.
  The shuffle sum is read off the left-normed expansion of an n-letter
  Leibniz bracket (free_leibniz.leibniz_expansion), each word signed by its
  expansion sign times its permutation sign: the Zinbiel-Leibniz duality.
* theory "ce": degree n >= 0, cochains are alternating, stored only on
  strictly increasing tuples. The differential is the classical alternating
  one driven by the algebra's bracket and the module's left action.

Each linear map on cochains is one _Map value: its source and target
spaces, a term generator and a scale. A space is (theory, degree, algebra
dim, module dim), the leading fields of a Cochain. Given one input argument
tuple X the generator yields terms (coeff, Y, block), meaning that the basis
cochain e_X (x) m_k is sent to coeff * (image of m_k in block) at output
tuple Y. A block is built once per map (_block): one tuple of (k, j, v)
triples, the image of m_k having v at output coordinate j, listed k by k.
Two consumers read only the map (tensor_bridge's psi is a _Map too), each
streaming a term's triples in one loop:

* _apply runs the terms over the nonzero support of a cochain, so the work
  follows the input's support rather than the size of the output space;
* _matrix runs them over every source tuple in basis order, so column (X, k)
  is by construction the image of e_X (x) m_k. The basis puts (tuple, k) at
  tuple_rank * module_dim + k, tuples ranked in lexicographic order
  (positional for "dl", combination order for "ce"); _THEORY holds each
  theory's tuples, rank and space size, with its start degree and cap.

Every generator reads the integer forms that the algebra and the module
hold of the tables it uses (see algebras), brought to the lcm D of their
scales (sparsevec.common_scale), which is the map's scale: the lcm of every
denominator in those tables. Each term reads one structure constant, so the
terms are D times the map's: _matrix's int columns, which it holds over D,
and _apply's sums, the integer form of its output over the input's scale
times the map's. Every Cochain holds its integer form from construction (a
user's Fraction values are cleared once, when it is built) and is
read-only; its values are a view of that form, made on first read and
kept, so a map reads the form whether or not the values were read, and
neither a chain of maps nor an elimination makes a Fraction. A
differential is built once per module, theory and degree, on first use, and
kept by the module (Bimodule._maps).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product as iproduct
from math import comb
from random import Random
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

from .algebras import Bimodule, _read_table
from .free_leibniz import leibniz_expansion
from .linalg import Matrix
from .sparsevec import Vec, common_scale, integral, nonzero, parse_vec

Key = Tuple[int, ...]
Space = Tuple[str, int, int, int]  # (theory, degree, algebra dim, module dim)

DL_MAX_DEGREE = 4
CE_MAX_DEGREE = 5


def _check_start(theory: str, degree: int) -> None:
    if theory not in _THEORY:
        raise ValueError(f"theory must be 'dl' or 'ce', got {theory!r}")
    if type(degree) is not int:
        raise ValueError(f"{theory} degree must be an int, got {degree!r}")
    lo = _THEORY[theory][0]
    if degree < lo:
        raise ValueError(f"{theory} cochains start at degree {lo}, got {degree}")


def _check_degree(theory: str, degree: int) -> None:
    _check_start(theory, degree)
    cap = _THEORY[theory][1]
    if degree > cap:
        raise ValueError(f"{theory} degree {degree} is over the cap {cap}")


def _check_space(theory: str, degree: int, algebra_dim: int, module_dim: int) -> None:
    if any(type(x) is not int for x in (degree, algebra_dim, module_dim)):
        raise ValueError("cochain degree and dims must be ints")
    if algebra_dim < 0 or module_dim < 0:
        raise ValueError(f"cochain dims must be nonnegative, got {algebra_dim} and {module_dim}")
    _check_start(theory, degree)


@dataclass(frozen=True)
class Cochain:
    """One multilinear map, stored as {argument tuple: sparse module vector}.

    A validated container, without arithmetic, that the differentials and
    psi fill. Like the tables of an algebra, a cochain holds the integer form
    of its values, _form, from construction, and is read-only once built.
    One the package builds (_of) holds _form alone, and its values are made
    from it (algebras._read_table) the first time they are read, then kept.
    """

    # Frozen, but its values are dicts: unhashable, not a generated __hash__ that raises.
    __hash__ = None  # type: ignore[assignment]

    theory: str
    degree: int
    algebra_dim: int
    module_dim: int
    values: Dict[Key, Vec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_space(self.theory, self.degree, self.algebra_dim, self.module_dim)
        clean: Dict[Key, Vec] = {}
        for key, vec in self.values.items():
            if len(key) != self.degree:
                raise ValueError(f"key {key!r} has length {len(key)}, expected {self.degree}")
            if any(type(i) is not int or not 0 <= i < self.algebra_dim for i in key):
                raise ValueError(f"key {key!r} out of range for dim {self.algebra_dim}")
            if self.theory == "ce" and any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"ce keys must be strictly increasing, got {key!r}")
            if entry := parse_vec(vec, self.module_dim, "module"):
                clean[key] = entry
        vars(self).update(values=clean, _form=integral(clean))

    @classmethod
    def _of(cls, space: Space, d: int, ints: Dict[Key, Vec]) -> "Cochain":
        """The cochain with values ints / d, ints zero-free and keyed in space; nothing is checked."""
        f = object.__new__(cls)
        vars(f).update(zip(("theory", "degree", "algebra_dim", "module_dim"), space),
                       _form=(d, ints))
        return f

    __getattr__ = _read_table


def _sort_sign(args: Key) -> Tuple[int, Key]:
    """(sign, sorted tuple), or (0, ()) when an argument repeats."""
    arr = list(args)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(arr)


def dl_tuples(dim: int, degree: int) -> Iterator[Key]:
    return iproduct(range(dim), repeat=degree)


def ce_tuples(dim: int, degree: int) -> Iterator[Key]:
    return combinations(range(dim), degree)


def dl_space_dim(dim: int, module_dim: int, degree: int) -> int:
    return dim ** degree * module_dim


def ce_space_dim(dim: int, module_dim: int, degree: int) -> int:
    return comb(dim, degree) * module_dim


def _dl_rank(key: Key, dim: int) -> int:
    r = 0
    for x in key:
        r = r * dim + x
    return r


def _ce_rank(key: Key, dim: int) -> int:
    """Position of a strictly increasing tuple in combinations(range(dim), len(key))."""
    n = len(key)
    return comb(dim, n) - 1 - sum(comb(dim - 1 - x, n - i) for i, x in enumerate(key))


# Per theory: (start degree, degree cap, tuples in basis order, rank of a tuple, space size).
_THEORY = {
    "dl": (1, DL_MAX_DEGREE, dl_tuples, _dl_rank, dl_space_dim),
    "ce": (0, CE_MAX_DEGREE, ce_tuples, _ce_rank, ce_space_dim),
}


def random_dl_cochain(
    algebra_dim: int, module_dim: int, degree: int, rng: Random
) -> Cochain:
    """Dense cochain with integer coefficients drawn uniformly from -9..9.

    Draw order is fixed: argument tuples in lexicographic order, and module
    coordinates ascending within each tuple, so a seeded Random reproduces the
    same cochain everywhere. The draws are kept as ints, at scale 1, and only
    the arguments are checked; zero draws, and the vectors they empty, are dropped.
    """
    _check_space("dl", degree, algebra_dim, module_dim)
    values: Dict[Key, Vec] = {}
    for key in dl_tuples(algebra_dim, degree):
        draws = [rng.randint(-9, 9) for _ in range(module_dim)]
        if vec := {k: c for k, c in enumerate(draws) if c}:
            values[key] = vec
    return Cochain._of(("dl", degree, algebra_dim, module_dim), 1, values)


@lru_cache(maxsize=None)
def _net_terms(n: int) -> Tuple[Tuple[int, Key], ...]:
    """Shuffle terms (c, place): y_{1 + j} fills argument place[j] of f.

    place is a word w of the left-normed expansion of an n-letter bracket,
    shifted to 0-based, and c its expansion sign times sign(w).
    """
    return tuple(
        (c * _sort_sign(w)[0], tuple(p - 1 for p in w))
        for c, w in leibniz_expansion(n)
    )


Block = Tuple[Tuple[int, int, int], ...]


def _block(images: Dict[int, Vec]) -> Block:
    """The block of {k: image of m_k}: its (k, j, v) triples, k by k, each image in its order."""
    return tuple((k, j, v) for k, img in images.items() for j, v in img.items())


Term = Tuple[int, Key, Block]
Terms = Callable[[Key], Iterable[Term]]


class _Map(NamedTuple):
    """A linear map from source to target cochains; its terms are scale times its own, in ints."""

    source: Space
    target: Space
    terms: Terms
    scale: int


def _check_input(name: str, f: Cochain, theory: str, module: Bimodule) -> None:
    """Raise unless f is a theory cochain over module; called before a map is built at f.degree."""
    want = (theory, module.algebra.dim, module.dim)
    if (f.theory, f.algebra_dim, f.module_dim) != want:
        raise ValueError(
            f"{name} needs a {theory} cochain with algebra dim {want[1]} and module dim "
            f"{want[2]}, got {f.theory} with {f.algebra_dim} and {f.module_dim}")


def _apply(m: _Map, f: Cochain) -> Cochain:
    """The image of f, scattered from its nonzero support; f lies in m.source (see _check_input).

    f is read in its integer form, over some L, so ints accumulate; a
    block's triple (k, j, v) adds to output coordinate j only where the
    input has a nonzero at k. The sums, less their zeros, are the image
    over L * m.scale.
    """
    den, values = f._form
    out: Dict[Key, Vec] = {}
    for X, fv in values.items():
        get = fv.get
        for coeff, Y, block in m.terms(X):
            acc = out.setdefault(Y, {})
            for k, j, v in block:
                x = get(k)
                if x:
                    acc[j] = acc.get(j, 0) + coeff * v * x
    return Cochain._of(m.target, den * m.scale, nonzero(out))


def _matrix(m: _Map) -> Matrix:
    """The matrix of m, its int columns over m.scale; column (X, k) is the image of e_X (x) m_k.

    The md columns of each source tuple X are accumulated from the block
    triples of X's terms, and each drops its zeros once, when X is done;
    only nonempty columns are stored. A column lists its rows in the order
    its terms first reach them.
    """
    theory, degree, dim, md = m.source
    out_theory, out_degree, out_dim, out_md = m.target
    tuples = _THEORY[theory][2]
    rank, size = _THEORY[out_theory][3:]
    cols: Dict[int, Vec] = {}
    col_base = 0
    for X in tuples(dim, degree):
        acc: List[Vec] = [{} for _ in range(md)]
        for coeff, Y, block in m.terms(X):
            row_base = rank(Y, out_dim) * out_md
            for k, j, v in block:
                col = acc[k]
                i = row_base + j
                col[i] = col.get(i, 0) + coeff * v
        for k, col in enumerate(acc):
            if 0 in col.values():
                col = {i: v for i, v in col.items() if v}
            if col:
                cols[col_base + k] = col
        col_base += md
    return Matrix._of(size(out_dim, out_md, out_degree), col_base, cols, m.scale)


Preimages = Dict[int, List[Tuple[int, int, int]]]
Blocks = List[Tuple[int, Block]]


def _dl_generator(n: int, pre: Preimages, ident: Block, left: Blocks, right: Blocks) -> Terms:
    """Terms of the degree n -> n+1 map of the non-symmetric complex,

        (delta f)(y_0, ..., y_n) = sum over shuffle terms (c, sigma) of
            c * y_0 f(y_sigma(1), ..., y_sigma(n))
          + sum_{i=1..n} (-1)^i (f(.., y_{i-1} y_i, ..) + [i >= 2] f(.., y_i y_{i-1}, ..))
          + (-1)^(n+1) f(y_0, ..., y_{n-1}) y_n,

    where sigma^-1 runs over the 2^(n-1) words of the left-normed expansion
    of an n-letter bracket and c is that word's sign times sign(sigma). Read
    from an input tuple X: the shuffle terms place X in y_1..y_n with a
    free y_0; a product term for X[q] = p takes every e_u e_w containing e_p,
    giving X[:q] + (u, w) + X[q+1:], and (w, u) in its place as well when
    q >= 1; the right term appends a free y_n. When X repeats a letter,
    several words place it as the same Z: their signs are summed into one net
    coefficient per Z, in the order the words first reach it, and a Z whose
    coefficient cancels yields no term, before the left blocks are expanded.
    """
    shuffles = _net_terms(n)
    last = 1 if n % 2 else -1

    def terms(X: Key) -> Iterator[Term]:
        net: Dict[Key, int] = {}
        for c, place in shuffles:
            Z = tuple(map(X.__getitem__, place))
            net[Z] = net.get(Z, 0) + c
        for Z, c in net.items():
            if c:
                for x, block in left:
                    yield c, (x,) + Z, block
        for q in range(n):
            head, tail = X[:q], X[q + 1:]
            for u, w, c in pre.get(X[q], ()):
                s = c if q % 2 else -c
                yield s, head + (u, w) + tail, ident
                if q:
                    yield s, head + (w, u) + tail, ident
        for y, block in right:
            yield last, X + (y,), block

    return terms


def _ce_generator(n: int, pre: Preimages, ident: Block, left: Blocks, right: Blocks) -> Terms:
    """Terms of the alternating degree n -> n+1 differential,

        (delta f)(y_0, ..., y_n) = sum_{a<b} (-1)^(a+b) f([y_a, y_b], y_0, ..^a..^b.., y_n)
                                 + sum_a (-1)^a y_a f(y_0, ..^a.., y_n),

    read from a strictly increasing input tuple X: a bracket term replaces
    X[idx] = p by a pair u < w with [e_u, e_w] containing e_p and neither in
    the rest of X, with sign (-1)^(iu + iw + 1 + idx), iu and iw being the
    insertion points of u and w in the rest; a left term inserts an x not in
    X at position a, with sign (-1)^a. The right action is not read.
    """

    def terms(X: Key) -> Iterator[Term]:
        for idx, p in enumerate(X):
            rest = X[:idx] + X[idx + 1:]
            for u, w, c in pre.get(p, ()):
                if u >= w or u in rest or w in rest:
                    continue
                iu, iw = bisect_left(rest, u), bisect_left(rest, w)
                Y = rest[:iu] + (u,) + rest[iu:iw] + (w,) + rest[iw:]
                yield (-c if (iu + iw + 1 + idx) % 2 else c), Y, ident
        for x, block in left:
            if x not in X:
                a = bisect_left(X, x)
                yield (-1 if a % 2 else 1), X[:a] + (x,) + X[a:], block

    return terms


def _delta_map(theory: str, module: Bimodule, n: int) -> _Map:
    """The degree n -> n+1 differential of a theory, with coefficients in module.

    Built on first use (_new_delta_map) and kept by the module.
    """
    _check_degree(theory, n)
    m = module._maps.get((theory, n))
    if m is None:
        m = module._maps[(theory, n)] = _new_delta_map(theory, module, n)
    return m


def _new_delta_map(theory: str, module: Bimodule, n: int) -> _Map:
    """The degree n -> n+1 differential of a theory, built anew.

    Its generator reads the preimages p -> [(u, w, c)], e_u * e_w having
    coefficient c on e_p, the identity block, and the nonzero blocks
    {k: x m_k} and {k: m_k x} per basis element x, gathered from the nonzero
    entries of the two action tables, x ascending; each block is built once,
    as its triples. "ce" never reads the right action, so it has no right
    blocks. Every constant is multiplied by D, the lcm of the denominators
    of the tables the map reads (the algebra's products, the left action,
    and for "dl" the right action), and held as an int: the integer forms
    the objects hold, brought to one D.
    """
    right = module._right_int if theory == "dl" else (1, {})
    d, (products, left, right) = common_scale(
        module.algebra._products_int, module._left_int, right)
    pre: Preimages = {}
    for (u, w), vec in products.items():
        for p, c in vec.items():
            pre.setdefault(p, []).append((u, w, c))
    lblocks: Dict[int, Dict[int, Vec]] = {}
    rblocks: Dict[int, Dict[int, Vec]] = {}
    for (x, k), v in left.items():
        lblocks.setdefault(x, {})[k] = v
    for (k, x), v in right.items():
        rblocks.setdefault(x, {})[k] = v
    md = module.dim
    generator = _dl_generator if theory == "dl" else _ce_generator
    terms = generator(n, pre, _block({k: {k: 1} for k in range(md)}),
                      [(x, _block(b)) for x, b in sorted(lblocks.items())],
                      [(x, _block(b)) for x, b in sorted(rblocks.items())])
    dims = (module.algebra.dim, md)
    return _Map((theory, n, *dims), (theory, n + 1, *dims), terms, d)


def _delta(theory: str, f: Cochain, module: Bimodule) -> Cochain:
    _check_input(f"{theory}_delta", f, theory, module)
    return _apply(_delta_map(theory, module, f.degree), f)


def dl_delta(f: Cochain, module: Bimodule) -> Cochain:
    """Apply the degree-raising map of the non-symmetric complex."""
    return _delta("dl", f, module)


def ce_delta(f: Cochain, module: Bimodule) -> Cochain:
    """Apply the alternating differential; only the left action is used."""
    return _delta("ce", f, module)


def _assemble(theory: str, module: Bimodule, degree: int) -> Matrix:
    return _matrix(_delta_map(theory, module, degree))


def dl_delta_matrix(module: Bimodule, degree: int) -> Matrix:
    """Matrix of the degree -> degree+1 map in the standard basis order."""
    return _assemble("dl", module, degree)


def ce_delta_matrix(module: Bimodule, degree: int) -> Matrix:
    return _assemble("ce", module, degree)


@dataclass
class CohomologyDims:
    theory: str
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int


def cohomology_dims(module: Bimodule, theory: str, degree: int) -> CohomologyDims:
    """Exact dimensions of cocycles, coboundaries, and their quotient.

    Above the start degree the coboundaries are eliminated first, and their
    pivots clear columns of delta^n before it is ranked (clearing: Chen and
    Kerber, "Persistent homology computation with a twist", EuroCG 2011;
    Bauer, Kerber and Reininghaus, "Clear and Compress", TopoInVis 2014).
    Each pivot of delta^(n-1)'s column echelon leads at one row, an index of
    C^n, and the pivots with the unit vectors at the other indices form a
    basis of C^n. If delta^n o delta^(n-1) = 0, delta^n kills the pivots, so
    its rank is the rank of its columns at the other indices. That
    hypothesis is certified, not assumed: the integer product of the two
    matrices must be zero. When it is not, the cleared set is empty and
    every column is ranked, as with no clearing at all.

    The module and its algebra must lie in the complex's family (Zinbiel for
    "dl", Lie for "ce"); outside it delta o delta need not vanish. An input
    whose coboundaries outnumber its cocycles raises ValueError, but that
    catches only some inputs outside the family: the others get dimensions
    that mean nothing.
    """
    out = _assemble(theory, module, degree)
    leads: List[int] = []
    cleared: Set[int] = set()
    if degree > _THEORY[theory][0]:
        into = _assemble(theory, module, degree - 1)
        leads = into._lead_rows()
        if out.mul(into).is_zero():
            cleared = set(leads)
    kept = {j: col for j, col in out._cols.items() if j not in cleared}
    dim_c = out.ncols
    dim_z = dim_c - Matrix._of(out.nrows, dim_c, kept, out._scale).rank()
    dim_b = len(leads)
    if dim_b > dim_z:
        raise ValueError(
            f"{theory} complex, degree {degree}: dim B = {dim_b} > dim Z = {dim_z}, so "
            "delta o delta != 0 and the input is outside the complex's family"
        )
    return CohomologyDims(theory, degree, dim_c, dim_z, dim_b, dim_z - dim_b)
