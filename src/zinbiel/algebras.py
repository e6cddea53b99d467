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

The tables are read-only once an object is built. Each object also carries
the integer form of each of its tables, (D, D times the table as ints), D
the lcm of the table's denominators, as sparsevec.integral gives it: worked
out once, when the object is built, and read by every kernel (check_axioms,
the differentials, psi and the tensor constructions) instead of the
Fractions. Objects the package builds from tables it made itself (the
tensor constructions, the truncated free Leibniz algebras and regular) hold
only their integer forms until read: _of takes the forms alone and checks
the basis but parses no entry, and a table's Fractions are made from its
form (sparsevec.unscaled) the first time it is read, then kept, the same
Fractions in the same order as the validating constructor would hold.
That view is made by one __getattr__, _read_table, which complexes.Cochain
shares for its values: every object holds its integer forms from
construction, and its Fractions are a kept view of them.
regular's actions share the algebra's integer form, and its product table
once read.

Each identity is written once, in _IDENTITIES, as signed terms, and every
term is one product applied to another. The same terms give both where an
identity can be nonzero (the triples reached from the nonzero entries of the
two tables of some term) and its two sides at each such triple, read straight
from the tables. Every skipped triple reads {} = {}, so the first witness is
the one a scan over all triples would report. Both sides are read from the
integer forms of the tables, brought to one D, so they are integer vectors,
D^2 times the true ones on a triple, and D times on the one or two inputs of
the antisymmetry cases; check_axioms builds Fractions only for a witness.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .sparsevec import Scaled, Vec, add_scaled, common_scale, integral, parse_vec, unscaled

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


# The integer form each table, or a cochain's values, is held as, by attribute name.
_FORMS = {"products": "_products_int", "left": "_left_int", "right": "_right_int",
          "values": "_form"}


def _read_table(obj, name: str) -> Table:
    """Table name of an object built by _of, as Fractions made from its integer form and kept.

    The __getattr__ of algebras, bimodules and cochains (a cochain's table
    is its values), so reached only for an attribute not set; anything but
    an unread table raises AttributeError. A module whose form is its
    algebra's (regular) takes the algebra's table.
    """
    state = vars(obj)
    form = state.get(_FORMS.get(name))
    if form is None:
        raise AttributeError(f"{type(obj).__name__!r} object has no attribute {name!r}")
    alg = state.get("algebra")
    if alg is not None and form is vars(alg).get("_products_int"):
        table = alg.products
    else:
        table = unscaled(form)
    state[name] = table
    return table


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
    """Structure constants for one bilinear product on a finite basis.

    _products_int is the integer form of products (see the module docstring).
    """

    # Frozen, but its tables are dicts: unhashable, not a generated __hash__ that raises.
    __hash__ = None  # type: ignore[assignment]

    kind: str
    dim: int
    basis_names: Tuple[str, ...]
    products: Table

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_names", _check_basis(self.dim, self.basis_names, "algebra"))
        products = _clean_table(self.products, self.dim, self.dim, self.dim, "product")
        vars(self).update(products=products, _products_int=integral(products))

    @classmethod
    def _of(cls, kind: str, dim: int, basis_names: Sequence[str],
            products_int: Scaled) -> "FiniteAlgebra":
        """Take over the integer form of a package-built table, checking only the basis."""
        alg = object.__new__(cls)
        vars(alg).update(kind=kind, dim=dim, basis_names=_check_basis(dim, basis_names, "algebra"),
                         _products_int=products_int)
        return alg

    __getattr__ = _read_table


@dataclass(frozen=True)
class Bimodule:
    """Left and right actions of an algebra on a finite module.

    _left_int and _right_int are the integer forms of the two actions (see
    the module docstring). _maps holds the linear maps built over the
    module, each made on first use and kept by key: complexes' differentials
    by (theory, degree) and, on a tensor module, tensor_bridge's psi by
    ("psi", degree). It is left out of the pickled state and starts empty
    in a copy.
    """

    # Frozen, but its tables are dicts: unhashable, not a generated __hash__ that raises.
    __hash__ = None  # type: ignore[assignment]

    algebra: FiniteAlgebra
    dim: int
    basis_names: Tuple[str, ...]
    left: Table = field(default_factory=dict)
    right: Table = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_names", _check_basis(self.dim, self.basis_names, "module"))
        adim = self.algebra.dim
        left = _clean_table(self.left, adim, self.dim, self.dim, "left action")
        right = _clean_table(self.right, self.dim, adim, self.dim, "right action")
        vars(self).update(left=left, right=right, _left_int=integral(left),
                          _right_int=integral(right), _maps={})

    @classmethod
    def _of(cls, algebra: FiniteAlgebra, dim: int, basis_names: Sequence[str],
            left_int: Scaled, right_int: Scaled) -> "Bimodule":
        """Take over the integer forms of package-built actions, checking only the basis."""
        mod = object.__new__(cls)
        vars(mod).update(algebra=algebra, dim=dim,
                         basis_names=_check_basis(dim, basis_names, "module"),
                         _left_int=left_int, _right_int=right_int, _maps={})
        return mod

    __getattr__ = _read_table

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_maps"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _maps={})


def regular(alg: FiniteAlgebra) -> Bimodule:
    """The algebra acting on itself by its own product on both sides, the table shared."""
    return Bimodule._of(alg, alg.dim, alg.basis_names, alg._products_int, alg._products_int)


@dataclass
class AxiomReport:
    ok: bool
    checked: str
    witness: Optional[dict] = None


def _vec_display(vec: Vec, names: Tuple[str, ...], scale: int = 1) -> Dict[str, str]:
    """The vector over scale, each value as a Fraction's str, keyed by basis name."""
    return {names[k]: str(Fraction(v, scale)) for k, v in sorted(vec.items())}


# (identity, inputs, lhs, rhs, scale): the two sides as int vectors, each
# scale times the true one.
Case = Tuple[str, Tuple[str, ...], Vec, Vec, int]

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
    lexicographic order of the inputs within each identity.

    The sides are read from the integer forms of the tables, brought to their
    common D: a term on a triple reads two constants, so its sides are D^2
    times the true ones; an antisymmetry case reads one, so D times.
    """
    forms = [alg._products_int]
    if module is not None:
        forms += [module._left_int, module._right_int]
    d, ints = common_scale(*forms)
    tables = dict(zip("PLR", ints))
    P = tables["P"]
    nm = alg.basis_names
    if which == "lie":
        for i in sorted(i for i, j in P if i == j):
            yield "[x, x] = 0", (nm[i],), P[(i, i)], {}, d
        for i, j in sorted({(min(key), max(key)) for key in P if key[0] != key[1]}):
            lhs = dict(P.get((i, j), {}))
            add_scaled(lhs, P.get((j, i), {}))
            yield "[x, y] + [y, x] = 0", (nm[i], nm[j]), lhs, {}, d
    for identity, kinds, lhs, rhs in _IDENTITIES[which]:
        names = [nm if kind == "A" else module.basis_names for kind in kinds]
        for t in _support(lhs + rhs, tables):
            if which == "lie" and not t[0] < t[1] < t[2]:
                continue
            inputs = (names[0][t[0]], names[1][t[1]], names[2][t[2]])
            yield identity, inputs, _side(lhs, tables, t), _side(rhs, tables, t), d * d


def check_axioms(
    alg: FiniteAlgebra, which: str, module: Optional[Bimodule] = None
) -> AxiomReport:
    """Test the named identity family, as written in _IDENTITIES, on every
    basis tuple where some term of it can be nonzero (at the others both
    sides are 0), in lexicographic order.

    Returns the first failing tuple as a witness, with both sides expanded in
    the relevant basis. Module families require the module argument, and the
    witness names mix algebra and module basis elements in identity order.
    The sides are compared as the integer multiples _cases gives, and only a
    witness's are made Fractions.
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
    for identity, inputs, lhs, rhs, scale in _cases(alg, which, module):
        if lhs != rhs:
            return AxiomReport(
                ok=False,
                checked=which,
                witness={
                    "identity": identity,
                    "inputs": list(inputs),
                    "lhs": _vec_display(lhs, value_names, scale),
                    "rhs": _vec_display(rhs, value_names, scale),
                },
            )
    return AxiomReport(ok=True, checked=which)
