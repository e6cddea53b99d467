"""Finite-dimensional algebras, bimodules, and axiom checking.

An algebra is a structure-constant table over the rationals: products maps a
basis pair (i, j) to the sparse expansion of e_i * e_j. A bimodule carries two
tables, left for a(m) and right for (m)a. The constructors check the basis
(dim a positive int, dim distinct string names, kept as a tuple), that every
key is a pair of ints in range, and each expansion through
sparsevec.parse_vec, the package's one entry rule. Nothing here assumes which
identities hold; check_axioms tests a named identity family and reports the
first failing basis tuple, scanning tuples in lexicographic order so
witnesses are stable.

Each identity is written once, in _IDENTITIES, as signed terms, and every
term is one product applied to another. The same terms give both where an
identity can be nonzero (the triples reached from the nonzero entries of the
two tables of some term) and its two sides at each such triple, read straight
from the tables. Every skipped triple reads {} = {}, so the first witness is
the one a scan over all triples would report.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .sparsevec import Vec, add_scaled, parse_vec

Table = Dict[Tuple[int, int], Dict[int, Fraction]]


def _clean_table(table: Table, left_dim: int, right_dim: int, out_dim: int, label: str) -> Table:
    """The table, its keys checked to be int pairs in range, each vector through parse_vec."""
    clean: Table = {}
    what = f"{label} result"
    for (i, j), tbl in table.items():
        if not (type(i) is type(j) is int and 0 <= i < left_dim and 0 <= j < right_dim):
            raise ValueError(f"{label} key ({i!r}, {j!r}) out of range")
        if entry := parse_vec(tbl, out_dim, what):
            clean[(i, j)] = entry
    return clean


def _check_basis(dim: int, names: Sequence[str], what: str) -> Tuple[str, ...]:
    """names as a tuple, once dim is a positive int and names dim distinct strings, not a str."""
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{what} dimension must be a positive int")
    names = () if type(names) is str else tuple(names)
    if not (len(names) == dim and all(type(s) is str for s in names) and len(set(names)) == dim):
        raise ValueError(f"{what} basis names must be {dim} distinct strings")
    return names


@dataclass(frozen=True)
class FiniteAlgebra:
    """Structure constants for one bilinear product on a finite basis."""

    kind: str
    dim: int
    basis_names: Tuple[str, ...]
    products: Table

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_names", _check_basis(self.dim, self.basis_names, "algebra"))
        object.__setattr__(
            self, "products", _clean_table(self.products, self.dim, self.dim, self.dim, "product")
        )


@dataclass(frozen=True)
class Bimodule:
    """Left and right actions of an algebra on a finite module."""

    algebra: FiniteAlgebra
    dim: int
    basis_names: Tuple[str, ...]
    left: Table = field(default_factory=dict)
    right: Table = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_names", _check_basis(self.dim, self.basis_names, "module"))
        adim = self.algebra.dim
        object.__setattr__(
            self, "left", _clean_table(self.left, adim, self.dim, self.dim, "left action")
        )
        object.__setattr__(
            self, "right", _clean_table(self.right, self.dim, adim, self.dim, "right action")
        )


def regular(alg: FiniteAlgebra) -> Bimodule:
    """The algebra acting on itself by its own product on both sides."""
    return Bimodule(alg, alg.dim, alg.basis_names, left=alg.products, right=alg.products)


@dataclass
class AxiomReport:
    ok: bool
    checked: str
    witness: Optional[dict] = None


def _vec_display(vec: Vec, names: Tuple[str, ...]) -> Dict[str, str]:
    return {names[k]: str(v) for k, v in sorted(vec.items())}


Case = Tuple[str, Tuple[str, ...], Vec, Vec]

# A term (coeff, outer, inner, a, b, inner_left) of an identity on a basis
# triple (t0, t1, t2) is coeff * outer(inner(t_a, t_b), t_c), or
# coeff * outer(t_c, inner(t_a, t_b)) when inner_left is false, where c is the
# third position. P is the algebra's product, L and R the module's left and
# right actions. An identity is (text, kinds, lhs terms, rhs terms), and kinds
# tags each position as algebra (A) or module (M) in the order of the inputs.
Term = Tuple[int, str, str, int, int, bool]
Identity = Tuple[str, str, Tuple[Term, ...], Tuple[Term, ...]]

_IDENTITIES: Dict[str, Tuple[Identity, ...]] = {
    "leibniz": (
        ("[x, [y, z]] = [[x, y], z] - [[x, z], y]", "AAA",
         ((1, "P", "P", 1, 2, False),),
         ((1, "P", "P", 0, 1, True), (-1, "P", "P", 0, 2, True))),
    ),
    "zinbiel": (
        ("(x . y) . z = x . (y . z) + x . (z . y)", "AAA",
         ((1, "P", "P", 0, 1, True),),
         ((1, "P", "P", 1, 2, False), (1, "P", "P", 2, 1, False))),
    ),
    "lie": (
        ("[[x, y], z] + [[y, z], x] + [[z, x], y] = 0", "AAA",
         ((1, "P", "P", 0, 1, True), (1, "P", "P", 1, 2, True), (1, "P", "P", 2, 0, True)),
         ()),
    ),
    "zinbiel-bimodule": (
        ("(m . y) . z = m . (y . z + z . y)", "MAA",
         ((1, "R", "R", 0, 1, True),),
         ((1, "R", "P", 1, 2, False), (1, "R", "P", 2, 1, False))),
        ("(x . m) . z = x . (m . z + z . m)", "AMA",
         ((1, "R", "L", 0, 1, True),),
         ((1, "L", "R", 1, 2, False), (1, "L", "L", 2, 1, False))),
        ("(x . y) . m = x . (y . m + m . y)", "AAM",
         ((1, "L", "P", 0, 1, True),),
         ((1, "L", "L", 1, 2, False), (1, "L", "R", 2, 1, False))),
    ),
    "leibniz-representation": (
        ("x(ym) = [x,y]m - (xm)y", "AAM",
         ((1, "L", "L", 1, 2, False),),
         ((1, "L", "P", 0, 1, True), (-1, "R", "L", 0, 2, True))),
        ("x(my) = (xm)y - [x,y]m", "AMA",
         ((1, "L", "R", 1, 2, False),),
         ((1, "R", "L", 0, 1, True), (-1, "L", "P", 0, 2, True))),
        ("m[y,z] = (my)z - (mz)y", "MAA",
         ((1, "R", "P", 1, 2, False),),
         ((1, "R", "R", 0, 1, True), (-1, "R", "R", 0, 2, True))),
    ),
    "lie-module": (
        ("[x, y]v = x(yv) - y(xv)", "AAM",
         ((1, "L", "P", 0, 1, True),),
         ((1, "L", "L", 1, 2, False), (-1, "L", "L", 0, 2, False))),
    ),
}

# The module family that goes with each algebra family.
_MODULE_FAMILY = {
    "zinbiel": "zinbiel-bimodule",
    "leibniz": "leibniz-representation",
    "lie": "lie-module",
}
_MODULE_FAMILIES = tuple(_MODULE_FAMILY.values())

AXIOM_KINDS = tuple(_IDENTITIES)


def _support(terms: Sequence[Term], tables: Dict[str, Table]) -> List[Tuple[int, int, int]]:
    """The triples, sorted, at which some term can be nonzero: inner has the
    key (t_a, t_b) and outer pairs t_c with an index of that product. At any
    other triple both sides of the identity are {}."""
    out = set()
    for _, outer, inner, a, b, inner_left in terms:
        partners: Dict[int, List[int]] = defaultdict(list)  # p -> t_c
        for x, y in tables[outer]:
            if inner_left:
                partners[x].append(y)
            else:
                partners[y].append(x)
        c = 3 - a - b
        for (x, y), vec in tables[inner].items():
            for p in vec:
                for z in partners.get(p, ()):
                    t = [0, 0, 0]
                    t[a], t[b], t[c] = x, y, z
                    out.add((t[0], t[1], t[2]))
    return sorted(out)


def _side(terms: Sequence[Term], tables: Dict[str, Table], t: Tuple[int, int, int]) -> Vec:
    """The sum of the terms at the basis triple t."""
    out: Vec = {}
    for coeff, outer, inner, a, b, inner_left in terms:
        z = t[3 - a - b]
        for p, v in tables[inner].get((t[a], t[b]), {}).items():
            w = tables[outer].get((p, z) if inner_left else (z, p))
            if w:
                add_scaled(out, w, coeff * v)
    return out


def _cases(alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None) -> Iterator[Case]:
    """Every case of the family at which one side can be nonzero, in
    lexicographic order of the inputs within each identity."""
    P = alg.products
    tables = {"P": P}
    if module is not None:
        tables.update(L=module.left, R=module.right)
    nm = alg.basis_names
    if which == "lie":
        for i in sorted(i for i, j in P if i == j):
            yield "[x, x] = 0", (nm[i],), P[(i, i)], {}
        for i, j in sorted({(min(key), max(key)) for key in P if key[0] != key[1]}):
            lhs = dict(P.get((i, j), {}))
            add_scaled(lhs, P.get((j, i), {}))
            yield "[x, y] + [y, x] = 0", (nm[i], nm[j]), lhs, {}
    for identity, kinds, lhs, rhs in _IDENTITIES[which]:
        names = [nm if kind == "A" else module.basis_names for kind in kinds]
        for t in _support(lhs + rhs, tables):
            if which == "lie" and not t[0] < t[1] < t[2]:
                continue
            inputs = (names[0][t[0]], names[1][t[1]], names[2][t[2]])
            yield identity, inputs, _side(lhs, tables, t), _side(rhs, tables, t)


def check_axioms(
    alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None
) -> AxiomReport:
    """Test the named identity family, as written in _IDENTITIES, on every
    basis tuple where some term of it can be nonzero (at the others both
    sides are 0), in lexicographic order.

    Returns the first failing tuple as a witness, with both sides expanded in
    the relevant basis. Module families require the module argument, and the
    witness names mix algebra and module basis elements in identity order.
    """
    if which in _MODULE_FAMILIES:
        if module is None:
            raise ValueError(f"axiom family {which!r} needs a module")
        if module.algebra is not alg and module.algebra != alg:
            raise ValueError("module was built over a different algebra")
        value_names: Tuple[str, ...] = module.basis_names
    elif which in _IDENTITIES:
        value_names = alg.basis_names
    else:
        raise ValueError(f"unknown axiom family {which!r}; known: {', '.join(AXIOM_KINDS)}")
    for identity, inputs, lhs, rhs in _cases(alg, which, module):
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
