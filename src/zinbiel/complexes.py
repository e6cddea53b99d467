"""Cochain complexes: the dual-Leibniz complex and the Chevalley-Eilenberg complex.

Two cochain theories share one container type:

* theory "dl": degree n >= 1, a cochain assigns a module vector to every
  n-tuple of basis indices (no symmetry). The differential raises degree by
  one and combines a left action against a signed shuffle sum, interior
  products in both factor orders, and a right action on the last argument.
* theory "ce": degree n >= 0, cochains are alternating, stored only on
  strictly increasing tuples. The differential is the classical alternating
  one driven by the algebra's bracket and the module's left action.

Both differentials exist in two forms: applied to a cochain, or assembled as
an exact sparse matrix in the basis where the column of (tuple, k) sits at
tuple_rank * module_dim + k, tuples ranked in lexicographic order (positional
for "dl", combination order for "ce").
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iproduct
from math import comb
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

from .algebras import Bimodule
from .linalg import Matrix, parse_scalar
from .shuffles import net_signed_shuffle_terms
from .sparsevec import Vec, add_at, add_scaled

Key = Tuple[int, ...]

DL_MAX_DEGREE = 4
CE_MAX_DEGREE = 5

_NEG = Fraction(-1)


def _check_degree(theory: str, degree: int, max_degree: Optional[int]) -> None:
    lo = 1 if theory == "dl" else 0
    cap = max_degree if max_degree is not None else (
        DL_MAX_DEGREE if theory == "dl" else CE_MAX_DEGREE
    )
    if degree < lo:
        raise ValueError(f"{theory} cochains start at degree {lo}, got {degree}")
    if degree > cap:
        raise ValueError(
            f"{theory} degree {degree} is over the cap {cap}; raise max_degree to allow it"
        )


@dataclass
class Cochain:
    """One multilinear map, stored as {argument tuple: sparse module vector}."""

    theory: str
    degree: int
    algebra_dim: int
    module_dim: int
    values: Dict[Key, Vec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.theory not in ("dl", "ce"):
            raise ValueError(f"theory must be 'dl' or 'ce', got {self.theory!r}")
        if self.theory == "dl" and self.degree < 1:
            raise ValueError("dl cochains start at degree 1")
        if self.theory == "ce" and self.degree < 0:
            raise ValueError("ce cochains start at degree 0")
        clean: Dict[Key, Vec] = {}
        for key, vec in self.values.items():
            if len(key) != self.degree:
                raise ValueError(f"key {key!r} has length {len(key)}, expected {self.degree}")
            if any(not (0 <= i < self.algebra_dim) for i in key):
                raise ValueError(f"key {key!r} out of range for dim {self.algebra_dim}")
            if self.theory == "ce" and any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"ce keys must be strictly increasing, got {key!r}")
            entry: Vec = {}
            for k, c in vec.items():
                if not (0 <= k < self.module_dim):
                    raise ValueError(f"module index {k} out of range")
                f = parse_scalar(c)
                if f:
                    entry[k] = f
            if entry:
                clean[key] = entry
        self.values = clean

    def is_zero(self) -> bool:
        return not self.values

    def evaluate(self, args: Key) -> Vec:
        """Value on an argument tuple, resolving alternating signs for "ce"."""
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        if self.theory == "dl":
            return dict(self.values.get(tuple(args), {}))
        sign, key = _sort_sign(tuple(args))
        if sign == 0:
            return {}
        vec = self.values.get(key, {})
        if sign == 1:
            return dict(vec)
        return {k: -v for k, v in vec.items()}

    def _compatible(self, other: "Cochain") -> None:
        if (self.theory, self.degree, self.algebra_dim, self.module_dim) != (
            other.theory, other.degree, other.algebra_dim, other.module_dim
        ):
            raise ValueError("cochains live in different spaces")

    def add(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        values = {k: dict(v) for k, v in self.values.items()}
        for key, vec in other.values.items():
            add_scaled(values.setdefault(key, {}), vec)
        return Cochain(self.theory, self.degree, self.algebra_dim, self.module_dim, values)

    def scale(self, c) -> "Cochain":
        f = parse_scalar(c)
        values = {k: {i: f * v for i, v in vec.items()} for k, vec in self.values.items()}
        return Cochain(self.theory, self.degree, self.algebra_dim, self.module_dim, values)


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


@lru_cache(maxsize=None)
def _ce_rank_table(dim: int, degree: int) -> Dict[Key, int]:
    return {key: r for r, key in enumerate(combinations(range(dim), degree))}


def cochain_to_vector(f: Cochain) -> Vec:
    """Sparse coordinates of a cochain in the matrix basis order."""
    if f.theory == "dl":
        rank = lambda key: _dl_rank(key, f.algebra_dim)
    else:
        table = _ce_rank_table(f.algebra_dim, f.degree)
        rank = table.__getitem__
    out: Vec = {}
    for key, vec in f.values.items():
        base = rank(key) * f.module_dim
        for k, v in vec.items():
            out[base + k] = v
    return out


def vector_to_cochain(
    vec, theory: str, degree: int, algebra_dim: int, module_dim: int
) -> Cochain:
    """Inverse of cochain_to_vector; accepts a sparse dict or a dense list."""
    if theory == "dl":
        keys = list(dl_tuples(algebra_dim, degree))
    else:
        keys = list(ce_tuples(algebra_dim, degree))
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    values: Dict[Key, Vec] = {}
    for idx, c in items:
        f = parse_scalar(c)
        if not f:
            continue
        key = keys[idx // module_dim]
        values.setdefault(key, {})[idx % module_dim] = f
    return Cochain(theory, degree, algebra_dim, module_dim, values)


def random_dl_cochain(
    algebra_dim: int, module_dim: int, degree: int, rng: Random
) -> Cochain:
    """Dense cochain with integer coefficients drawn uniformly from -9..9.

    Draw order is fixed: argument tuples in lexicographic order, and module
    coordinates ascending within each tuple, so a seeded Random reproduces the
    same cochain everywhere.
    """
    values: Dict[Key, Vec] = {}
    for key in dl_tuples(algebra_dim, degree):
        vec = {}
        for k in range(module_dim):
            c = rng.randint(-9, 9)
            if c:
                vec[k] = Fraction(c)
        if vec:
            values[key] = vec
    return Cochain("dl", degree, algebra_dim, module_dim, values)


Transform = Optional[Tuple[str, int]]
Term = Tuple[Fraction, Key, Transform]


@lru_cache(maxsize=None)
def _net_terms(n: int) -> Tuple[Tuple[Fraction, Key], ...]:
    return tuple((Fraction(c), sigma) for c, sigma in net_signed_shuffle_terms(n))


def _dl_terms(Y: Key, module: Bimodule, n: int) -> Iterator[Term]:
    """Terms of the degree-raising map evaluated at argument tuple Y.

    Each term says: take the input cochain's value on `key`, scale by the
    coefficient, and push it through the transform (None: as is; ("left", i):
    left action of basis element i; ("right", i): right action).
    """
    alg = module.algebra
    x1 = Y[0]
    for c, sigma in _net_terms(n):
        yield c, tuple(Y[s] for s in sigma), ("left", x1)
    for i in range(1, n + 1):
        s = _NEG if i % 2 else Fraction(1)
        head, tail = Y[: i - 1], Y[i + 1:]
        for p, c in alg.product(Y[i - 1], Y[i]).items():
            yield s * c, head + (p,) + tail, None
        if i >= 2:
            for p, c in alg.product(Y[i], Y[i - 1]).items():
                yield s * c, head + (p,) + tail, None
    s4 = _NEG if (n + 1) % 2 else Fraction(1)
    yield s4, Y[:n], ("right", Y[n])


def _ce_terms(Y: Key, module: Bimodule, n: int) -> Iterator[Term]:
    """Alternating differential terms at a strictly increasing tuple Y."""
    alg = module.algebra
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            prod = alg.product(Y[a], Y[b])
            if not prod:
                continue
            rest = Y[:a] + Y[a + 1: b] + Y[b + 1:]
            s_ab = 1 if (a + b) % 2 == 0 else -1
            for p, c in prod.items():
                idx = bisect_left(rest, p)
                if idx < len(rest) and rest[idx] == p:
                    continue
                sgn = s_ab if idx % 2 == 0 else -s_ab
                yield sgn * c, rest[:idx] + (p,) + rest[idx:], None
    for a in range(n + 1):
        s = _NEG if a % 2 else Fraction(1)
        yield s, Y[:a] + Y[a + 1:], ("left", Y[a])


def _apply_term(acc: Vec, fv: Vec, coeff: Fraction, tr: Transform, module: Bimodule) -> None:
    if tr is None:
        add_scaled(acc, fv, coeff)
    elif tr[0] == "left":
        i = tr[1]
        for k, v in fv.items():
            add_scaled(acc, module.act_left(i, k), coeff * v)
    else:
        i = tr[1]
        for k, v in fv.items():
            add_scaled(acc, module.act_right(k, i), coeff * v)


def _check_module(f: Cochain, module: Bimodule) -> None:
    if f.algebra_dim != module.algebra.dim or f.module_dim != module.dim:
        raise ValueError("cochain dimensions do not match the module")


def dl_delta(f: Cochain, module: Bimodule, max_degree: Optional[int] = None) -> Cochain:
    """Apply the degree-raising map of the non-symmetric complex."""
    if f.theory != "dl":
        raise ValueError("dl_delta needs a 'dl' cochain")
    _check_module(f, module)
    _check_degree("dl", f.degree, max_degree)
    n = f.degree
    dim = module.algebra.dim
    values: Dict[Key, Vec] = {}
    for Y in dl_tuples(dim, n + 1):
        acc: Vec = {}
        for coeff, key, tr in _dl_terms(Y, module, n):
            fv = f.values.get(key)
            if fv:
                _apply_term(acc, fv, coeff, tr, module)
        if acc:
            values[Y] = acc
    return Cochain("dl", n + 1, dim, module.dim, values)


def ce_delta(f: Cochain, module: Bimodule, max_degree: Optional[int] = None) -> Cochain:
    """Apply the alternating differential; only the left action is used."""
    if f.theory != "ce":
        raise ValueError("ce_delta needs a 'ce' cochain")
    _check_module(f, module)
    _check_degree("ce", f.degree, max_degree)
    n = f.degree
    dim = module.algebra.dim
    values: Dict[Key, Vec] = {}
    for Y in ce_tuples(dim, n + 1):
        acc: Vec = {}
        for coeff, key, tr in _ce_terms(Y, module, n):
            fv = f.values.get(key)
            if fv:
                _apply_term(acc, fv, coeff, tr, module)
        if acc:
            values[Y] = acc
    return Cochain("ce", n + 1, dim, module.dim, values)


def _assemble(
    theory: str, module: Bimodule, degree: int, max_degree: Optional[int]
) -> Matrix:
    _check_degree(theory, degree, max_degree)
    dim = module.algebra.dim
    md = module.dim
    if theory == "dl":
        out_tuples = dl_tuples(dim, degree + 1)
        ncols = dl_space_dim(dim, md, degree)
        nrows = dl_space_dim(dim, md, degree + 1)
        rank = lambda key: _dl_rank(key, dim)
        terms = _dl_terms
    else:
        out_tuples = ce_tuples(dim, degree + 1)
        ncols = ce_space_dim(dim, md, degree)
        nrows = ce_space_dim(dim, md, degree + 1)
        rank = _ce_rank_table(dim, degree).__getitem__
        terms = _ce_terms
    rows: List[Vec] = [dict() for _ in range(nrows)]
    for out_rank, Y in enumerate(out_tuples):
        row_base = out_rank * md
        for coeff, key, tr in terms(Y, module, degree):
            col_base = rank(key) * md
            if tr is None:
                for k in range(md):
                    add_at(rows[row_base + k], col_base + k, coeff)
            elif tr[0] == "left":
                i = tr[1]
                for k in range(md):
                    for j, lv in module.act_left(i, k).items():
                        add_at(rows[row_base + j], col_base + k, coeff * lv)
            else:
                i = tr[1]
                for k in range(md):
                    for j, rv in module.act_right(k, i).items():
                        add_at(rows[row_base + j], col_base + k, coeff * rv)
    return Matrix(nrows, ncols, rows)


def dl_delta_matrix(module: Bimodule, degree: int, max_degree: Optional[int] = None) -> Matrix:
    """Matrix of the degree -> degree+1 map in the standard basis order."""
    return _assemble("dl", module, degree, max_degree)


def ce_delta_matrix(module: Bimodule, degree: int, max_degree: Optional[int] = None) -> Matrix:
    return _assemble("ce", module, degree, max_degree)


def dl_delta_lowdeg(f: Cochain, module: Bimodule) -> Cochain:
    """Degrees 1..3 of the non-symmetric differential, written out literally.

    This is an independent transcription of the low-degree formulas, kept as a
    cross-check of the general routine; the two must agree wherever both apply.
    """
    if f.theory != "dl":
        raise ValueError("dl_delta_lowdeg needs a 'dl' cochain")
    _check_module(f, module)
    alg = module.algebra
    dim = alg.dim
    n = f.degree

    def F(*args: int) -> Vec:
        return f.values.get(args, {})

    def Fp(pos: int, prod: Vec, args: Key) -> Vec:
        out: Vec = {}
        for p, c in prod.items():
            v = f.values.get(args[:pos] + (p,) + args[pos + 1:])
            if v:
                add_scaled(out, v, c)
        return out

    def L(i: int, vec: Vec) -> Vec:
        out: Vec = {}
        for k, v in vec.items():
            add_scaled(out, module.act_left(i, k), v)
        return out

    def R(vec: Vec, i: int) -> Vec:
        out: Vec = {}
        for k, v in vec.items():
            add_scaled(out, module.act_right(k, i), v)
        return out

    values: Dict[Key, Vec] = {}
    if n == 1:
        for x, y in dl_tuples(dim, 2):
            acc = L(x, F(y))
            add_scaled(acc, Fp(0, alg.product(x, y), (y,)), _NEG)
            add_scaled(acc, R(F(x), y))
            if acc:
                values[(x, y)] = acc
    elif n == 2:
        for x, y, z in dl_tuples(dim, 3):
            acc = L(x, F(y, z))
            add_scaled(acc, L(x, F(z, y)))
            add_scaled(acc, Fp(0, alg.product(x, y), (y, z)), _NEG)
            add_scaled(acc, Fp(1, alg.product(y, z), (x, z)))
            add_scaled(acc, Fp(1, alg.product(z, y), (x, z)))
            add_scaled(acc, R(F(x, y), z), _NEG)
            if acc:
                values[(x, y, z)] = acc
    elif n == 3:
        for w, x, y, z in dl_tuples(dim, 4):
            acc = L(w, F(x, y, z))
            add_scaled(acc, L(w, F(y, z, x)), _NEG)
            add_scaled(acc, L(w, F(y, x, z)))
            add_scaled(acc, L(w, F(z, y, x)), _NEG)
            add_scaled(acc, Fp(0, alg.product(w, x), (x, y, z)), _NEG)
            add_scaled(acc, Fp(1, alg.product(x, y), (w, y, z)))
            add_scaled(acc, Fp(1, alg.product(y, x), (w, y, z)))
            add_scaled(acc, Fp(2, alg.product(y, z), (w, x, z)), _NEG)
            add_scaled(acc, Fp(2, alg.product(z, y), (w, x, z)), _NEG)
            add_scaled(acc, R(F(w, x, y), z))
            if acc:
                values[(w, x, y, z)] = acc
    else:
        raise ValueError("literal formulas cover degrees 1 to 3 only")
    return Cochain("dl", n + 1, dim, module.dim, values)


@dataclass
class CohomologyDims:
    theory: str
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int


def cohomology_dims(
    module: Bimodule, theory: str, degree: int, max_degree: Optional[int] = None
) -> CohomologyDims:
    """Exact dimensions of cocycles, coboundaries, and their quotient."""
    if theory not in ("dl", "ce"):
        raise ValueError("theory must be 'dl' or 'ce'")
    _check_degree(theory, degree, max_degree)
    dim = module.algebra.dim
    md = module.dim
    space = dl_space_dim if theory == "dl" else ce_space_dim
    out = _assemble(theory, module, degree, max_degree)
    dim_c = space(dim, md, degree)
    dim_z = dim_c - out.rank()
    first = 1 if theory == "dl" else 0
    if degree > first:
        dim_b = _assemble(theory, module, degree - 1, max_degree).rank()
    else:
        dim_b = 0
    return CohomologyDims(theory, degree, dim_c, dim_z, dim_b, dim_z - dim_b)
