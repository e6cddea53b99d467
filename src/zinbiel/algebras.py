"""Finite-dimensional algebras, bimodules, and axiom checking.

An algebra is a structure-constant table over the rationals: products maps a
basis pair (i, j) to the sparse expansion of e_i * e_j. A bimodule carries two
tables, left for a(m) and right for (m)a. Nothing here assumes which identities
hold; check_axioms tests a named identity family and reports the first failing
basis tuple, scanning tuples in lexicographic order so witnesses are stable.

Every term of an identity is one product applied to another, so it vanishes
unless both tables have the basis pairs it needs. The checks evaluate only the
triples at which some term can be nonzero, found from indexes of each table's
nonzero pairs; every skipped triple reads {} = {}, so the first witness is
the one a scan over all triples would report.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, product as iproduct
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .linalg import Scalar, format_scalar, parse_scalar
from .sparsevec import ONE, Vec, add_scaled, to_dense

Table = Dict[Tuple[int, int], Dict[int, Fraction]]

_NEG = Fraction(-1)


def _clean_table(table: Table, left_dim: int, right_dim: int, out_dim: int, label: str) -> Table:
    clean: Table = {}
    for (i, j), tbl in table.items():
        if not (0 <= i < left_dim and 0 <= j < right_dim):
            raise ValueError(f"{label} key ({i}, {j}) out of range")
        entry: Dict[int, Fraction] = {}
        for k, c in tbl.items():
            if not (0 <= k < out_dim):
                raise ValueError(f"{label} result index {k} out of range")
            f = parse_scalar(c)
            if f:
                entry[k] = f
        if entry:
            clean[(i, j)] = entry
    return clean


def _parse_dense(vec: Sequence[Scalar], dim: int, label: str) -> Vec:
    if len(vec) != dim:
        raise ValueError(f"{label} must have length {dim}, got {len(vec)}")
    return {i: f for i, x in enumerate(vec) if (f := parse_scalar(x))}


def _bilinear(table: Table, x: Vec, y: Vec) -> Vec:
    """The bilinear map with structure constants table, on sparse vectors x and y."""
    out: Vec = {}
    for i, a in x.items():
        for j, b in y.items():
            tbl = table.get((i, j))
            if tbl:
                add_scaled(out, tbl, a * b)
    return out


def _units(dim: int) -> List[Vec]:
    return [{i: ONE} for i in range(dim)]


@dataclass(frozen=True)
class FiniteAlgebra:
    """Structure constants for one bilinear product on a finite basis."""

    kind: str
    dim: int
    basis_names: Tuple[str, ...]
    products: Table

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        if len(self.basis_names) != self.dim:
            raise ValueError("basis name count must equal dim")
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("basis names must be distinct")
        object.__setattr__(
            self, "products", _clean_table(self.products, self.dim, self.dim, self.dim, "product")
        )

    def product(self, i: int, j: int) -> Vec:
        """Sparse expansion of e_i * e_j."""
        return self.products.get((i, j), {})

    def multiply(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Fraction]:
        """Product of two coefficient vectors, densely."""
        xv = _parse_dense(x, self.dim, "left factor")
        yv = _parse_dense(y, self.dim, "right factor")
        return to_dense(_bilinear(self.products, xv, yv), self.dim)


@dataclass(frozen=True)
class Bimodule:
    """Left and right actions of an algebra on a finite module."""

    algebra: FiniteAlgebra
    dim: int
    basis_names: Tuple[str, ...]
    left: Table = field(default_factory=dict)
    right: Table = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("module dimension must be at least 1")
        if len(self.basis_names) != self.dim:
            raise ValueError("module basis name count must equal dim")
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("module basis names must be distinct")
        adim = self.algebra.dim
        object.__setattr__(
            self, "left", _clean_table(self.left, adim, self.dim, self.dim, "left action")
        )
        object.__setattr__(
            self, "right", _clean_table(self.right, self.dim, adim, self.dim, "right action")
        )

    def act_left(self, i: int, k: int) -> Vec:
        """Sparse expansion of e_i acting on module element m_k from the left."""
        return self.left.get((i, k), {})

    def act_right(self, k: int, i: int) -> Vec:
        return self.right.get((k, i), {})



def regular(alg: FiniteAlgebra) -> Bimodule:
    """The algebra acting on itself by its own product on both sides."""
    tables = {k: dict(v) for k, v in alg.products.items()}
    return Bimodule(
        algebra=alg,
        dim=alg.dim,
        basis_names=alg.basis_names,
        left=tables,
        right={k: dict(v) for k, v in tables.items()},
    )


@dataclass
class AxiomReport:
    ok: bool
    checked: str
    witness: Optional[dict] = None


def _vec_display(vec: Vec, names: Tuple[str, ...]) -> Dict[str, str]:
    return {names[k]: format_scalar(v) for k, v in sorted(vec.items())}


Case = Tuple[str, Tuple[str, ...], Vec, Vec]


Gate = Callable[[int, int], Iterable[int]]


def _index(table: Table, first: bool) -> Dict[int, Dict[int, Vec]]:
    """table as {x: {y: table[x, y]}} when first, else as {y: {x: table[x, y]}}."""
    out: Dict[int, Dict[int, Vec]] = defaultdict(dict)
    for (x, y), vec in table.items():
        if first:
            out[x][y] = vec
        else:
            out[y][x] = vec
    return out


def _gate(outer: Table, inner: Table, a: int, b: int, inner_left: bool) -> Gate:
    """Where one term of an identity can be nonzero.

    The term is outer(inner(t_a, t_b), t_c) when inner_left, else
    outer(t_c, inner(t_a, t_b)), on basis elements at positions a, b, c of a
    triple (t0, t1, t2); when c is 2, (a, b) is (0, 1). The term is nonzero
    only if inner has the key (t_a, t_b) and outer pairs t_c with some index p
    of that product. The gate maps (t0, t1) to the t2 values that pass both.
    """
    if 2 not in (a, b):
        reach = _index(outer, inner_left)  # p -> {t2: ...}

        def gate(t0: int, t1: int) -> Iterable[int]:
            return [t2 for p in inner.get((t0, t1), ()) for t2 in reach.get(p, ())]
        return gate
    fixed = b if a == 2 else a  # the one of positions 0, 1 that enters inner
    free = _index(inner, a == fixed)  # t_fixed -> {t2: inner product}
    paired = _index(outer, not inner_left)  # t_c -> {p: ...}

    def gate(t0: int, t1: int) -> Iterable[int]:
        tf, tc = (t0, t1) if fixed == 0 else (t1, t0)
        ps = paired.get(tc)
        if not ps:
            return ()
        return [t2 for t2, vec in free.get(tf, {}).items() if not ps.keys().isdisjoint(vec)]
    return gate


def _support(
    pairs: Iterable[Tuple[int, int]], gates: Sequence[Gate]
) -> Iterator[Tuple[int, int, int]]:
    """The triples (t0, t1, t2), t2 ascending after each (t0, t1) of pairs, at
    which at least one gated term can be nonzero. At any other triple both
    sides of the identity are {}, so it can never be a witness."""
    for t0, t1 in pairs:
        hits: Set[int] = set()
        for gate in gates:
            hits.update(gate(t0, t1))
        for t2 in sorted(hits):
            yield t0, t1, t2


def _leibniz_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    identity = "[x, [y, z]] = [[x, y], z] - [[x, z], y]"
    e = _units(alg.dim)
    P = alg.products
    m = partial(_bilinear, P)
    gates = (_gate(P, P, 1, 2, False), _gate(P, P, 0, 1, True), _gate(P, P, 0, 2, True))
    for i, j, k in _support(iproduct(range(alg.dim), repeat=2), gates):
        lhs = m(e[i], m(e[j], e[k]))
        rhs = dict(m(m(e[i], e[j]), e[k]))
        add_scaled(rhs, m(m(e[i], e[k]), e[j]), _NEG)
        names = (alg.basis_names[i], alg.basis_names[j], alg.basis_names[k])
        yield identity, names, lhs, rhs


def _zinbiel_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    identity = "(x . y) . z = x . (y . z) + x . (z . y)"
    e = _units(alg.dim)
    P = alg.products
    m = partial(_bilinear, P)
    gates = (_gate(P, P, 0, 1, True), _gate(P, P, 1, 2, False), _gate(P, P, 2, 1, False))
    for i, j, k in _support(iproduct(range(alg.dim), repeat=2), gates):
        lhs = m(m(e[i], e[j]), e[k])
        inner = dict(m(e[j], e[k]))
        add_scaled(inner, m(e[k], e[j]))
        rhs = m(e[i], inner)
        names = (alg.basis_names[i], alg.basis_names[j], alg.basis_names[k])
        yield identity, names, lhs, rhs


def _lie_cases(alg: FiniteAlgebra) -> Iterator[Case]:
    e = _units(alg.dim)
    P = alg.products
    m = partial(_bilinear, P)
    nm = alg.basis_names
    for i in range(alg.dim):
        if (i, i) in P:
            yield "[x, x] = 0", (nm[i],), m(e[i], e[i]), {}
    for i, j in combinations(range(alg.dim), 2):
        if (i, j) in P or (j, i) in P:
            lhs = dict(m(e[i], e[j]))
            add_scaled(lhs, m(e[j], e[i]))
            yield "[x, y] + [y, x] = 0", (nm[i], nm[j]), lhs, {}
    identity = "[[x, y], z] + [[y, z], x] + [[z, x], y] = 0"
    gates = (_gate(P, P, 0, 1, True), _gate(P, P, 1, 2, True), _gate(P, P, 2, 0, True))
    for i, j, k in _support(combinations(range(alg.dim), 2), gates):
        if k > j:
            lhs = dict(m(m(e[i], e[j]), e[k]))
            add_scaled(lhs, m(m(e[j], e[k]), e[i]))
            add_scaled(lhs, m(m(e[k], e[i]), e[j]))
            yield identity, (nm[i], nm[j], nm[k]), lhs, {}


def _zinbiel_bimodule_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    P, L, R = alg.products, mod.left, mod.right
    l, r = partial(_bilinear, L), partial(_bilinear, R)
    gates = (_gate(R, R, 0, 1, True), _gate(R, P, 1, 2, False), _gate(R, P, 2, 1, False))
    for k, i, j in _support(iproduct(range(mod.dim), range(alg.dim)), gates):
        lhs = r(r(e[k], e[i]), e[j])
        inner = dict(alg.product(i, j))
        add_scaled(inner, alg.product(j, i))
        rhs = r(e[k], inner)
        yield "(m . y) . z = m . (y . z + z . y)", (mn[k], an[i], an[j]), lhs, rhs
    gates = (_gate(R, L, 0, 1, True), _gate(L, R, 1, 2, False), _gate(L, L, 2, 1, False))
    for i, k, j in _support(iproduct(range(alg.dim), range(mod.dim)), gates):
        lhs = r(l(e[i], e[k]), e[j])
        rhs = dict(l(e[i], r(e[k], e[j])))
        add_scaled(rhs, l(e[i], l(e[j], e[k])))
        yield "(x . m) . z = x . (m . z + z . m)", (an[i], mn[k], an[j]), lhs, rhs
    gates = (_gate(L, P, 0, 1, True), _gate(L, L, 1, 2, False), _gate(L, R, 2, 1, False))
    for i, j, k in _support(iproduct(range(alg.dim), repeat=2), gates):
        lhs = l(alg.product(i, j), e[k])
        rhs = dict(l(e[i], l(e[j], e[k])))
        add_scaled(rhs, l(e[i], r(e[k], e[j])))
        yield "(x . y) . m = x . (y . m + m . y)", (an[i], an[j], mn[k]), lhs, rhs


def _leibniz_representation_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    P, L, R = alg.products, mod.left, mod.right
    l, r = partial(_bilinear, L), partial(_bilinear, R)
    gates = (_gate(L, L, 1, 2, False), _gate(L, P, 0, 1, True), _gate(R, L, 0, 2, True))
    for i, j, k in _support(iproduct(range(alg.dim), repeat=2), gates):
        lhs = l(e[i], l(e[j], e[k]))
        rhs = dict(l(alg.product(i, j), e[k]))
        add_scaled(rhs, r(l(e[i], e[k]), e[j]), _NEG)
        yield "x(ym) = [x,y]m - (xm)y", (an[i], an[j], mn[k]), lhs, rhs
    gates = (_gate(L, R, 1, 2, False), _gate(R, L, 0, 1, True), _gate(L, P, 0, 2, True))
    for i, k, j in _support(iproduct(range(alg.dim), range(mod.dim)), gates):
        lhs = l(e[i], r(e[k], e[j]))
        rhs = dict(r(l(e[i], e[k]), e[j]))
        add_scaled(rhs, l(alg.product(i, j), e[k]), _NEG)
        yield "x(my) = (xm)y - [x,y]m", (an[i], mn[k], an[j]), lhs, rhs
    gates = (_gate(R, P, 1, 2, False), _gate(R, R, 0, 1, True), _gate(R, R, 0, 2, True))
    for k, i, j in _support(iproduct(range(mod.dim), range(alg.dim)), gates):
        lhs = r(e[k], alg.product(i, j))
        rhs = dict(r(r(e[k], e[i]), e[j]))
        add_scaled(rhs, r(r(e[k], e[j]), e[i]), _NEG)
        yield "m[y,z] = (my)z - (mz)y", (mn[k], an[i], an[j]), lhs, rhs


def _lie_module_cases(alg: FiniteAlgebra, mod: Bimodule) -> Iterator[Case]:
    identity = "[x, y]v = x(yv) - y(xv)"
    e = _units(max(alg.dim, mod.dim))
    an, mn = alg.basis_names, mod.basis_names
    P, L = alg.products, mod.left
    l = partial(_bilinear, L)
    gates = (_gate(L, P, 0, 1, True), _gate(L, L, 1, 2, False), _gate(L, L, 0, 2, False))
    for i, j, k in _support(iproduct(range(alg.dim), repeat=2), gates):
        lhs = l(alg.product(i, j), e[k])
        rhs = dict(l(e[i], l(e[j], e[k])))
        add_scaled(rhs, l(e[j], l(e[i], e[k])), _NEG)
        yield identity, (an[i], an[j], mn[k]), lhs, rhs


_ALGEBRA_CHECKS = {
    "leibniz": _leibniz_cases,
    "zinbiel": _zinbiel_cases,
    "lie": _lie_cases,
}

_MODULE_CHECKS = {
    "zinbiel-bimodule": _zinbiel_bimodule_cases,
    "leibniz-representation": _leibniz_representation_cases,
    "lie-module": _lie_module_cases,
}

AXIOM_KINDS = tuple(_ALGEBRA_CHECKS) + tuple(_MODULE_CHECKS)


def check_axioms(
    alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None
) -> AxiomReport:
    """Test the named identity family on every basis tuple where some term of
    it can be nonzero (at the others both sides are 0).

    Returns the first failing tuple as a witness, with both sides expanded in
    the relevant basis. Module families require the module argument, and the
    witness names mix algebra and module basis elements in identity order.
    """
    if which in _ALGEBRA_CHECKS:
        cases = _ALGEBRA_CHECKS[which](alg)
        value_names: Tuple[str, ...] = alg.basis_names
    elif which in _MODULE_CHECKS:
        if module is None:
            raise ValueError(f"axiom family {which!r} needs a module")
        if module.algebra is not alg and module.algebra != alg:
            raise ValueError("module was built over a different algebra")
        cases = _MODULE_CHECKS[which](alg, module)
        value_names = module.basis_names
    else:
        raise ValueError(f"unknown axiom family {which!r}; known: {', '.join(AXIOM_KINDS)}")
    for identity, inputs, lhs, rhs in cases:
        if lhs != rhs:
            return AxiomReport(
                ok=False,
                checked=which,
                witness={
                    "identity": identity,
                    "inputs": list(inputs),
                    "lhs": _vec_display(lhs, value_names),
                    "rhs": _vec_display(rhs, value_names),
                },
            )
    return AxiomReport(ok=True, checked=which)
