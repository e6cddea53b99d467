"""Example 4.6 of the paper, recomputed: the second cohomology of B2 with
regular coefficients, and H^2 of lie2 with adjoint coefficients.

The printed claims are kept here as reference tables; every computed value is
compared with them, and a deviation is reported as a note, not an error.
"""
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebras import regular
from .catalog import builtin as catalog_builtin
from .complexes import cohomology_dims, dl_delta_matrix

_SUP = {0: "¹", 1: "²"}
_SUB = {0: "₁", 1: "₂"}


def _alpha_name(col: int) -> str:
    pair, k = divmod(col, 2)
    i, j = divmod(pair, 2)
    return f"α{_SUP[k]}{_SUB[i]}{_SUB[j]}"


def _relation_text(pivot: int, row: Dict[int, Fraction]) -> str:
    """Render a reduced row as 'pivot = combination of free parameters'."""
    terms = []
    for col in sorted(c for c in row if c != pivot):
        coeff = -row[col]
        if terms:
            sign = " - " if coeff < 0 else " + "
        else:
            sign = "-" if coeff < 0 else ""
        mag = abs(coeff)
        head = "" if mag == 1 else f"{mag}·"
        terms.append(f"{sign}{head}{_alpha_name(col)}")
    rhs = "".join(terms) or "0"
    return f"{_alpha_name(pivot)} = {rhs}"


# Printed claims being reproduced, keyed by the reduced-row pivot column.
_REFERENCE_COCYCLE_ROWS: Dict[int, Dict[int, Fraction]] = {
    0: {0: Fraction(1), 3: Fraction(1), 5: Fraction(-1)},
    2: {2: Fraction(1)},
    4: {4: Fraction(1)},
    6: {6: Fraction(1)},
    7: {7: Fraction(1)},
}
_REFERENCE_LIE2_H2 = 1
MATCH_LABEL = "matches paper"
DIFFER_LABEL = "differs from paper"


def reproduce_example_4_6() -> Tuple[List[str], dict]:
    """Recompute the worked second-cohomology example and diff each claim.

    Returns the text report lines and the machine-readable summary; every
    deviation is an informational note, never an error.
    """
    B = catalog_builtin("B2")
    M = regular(B)
    d1 = dl_delta_matrix(M, 1)
    d2 = dl_delta_matrix(M, 2)
    reduced = d2.reduced_rows()
    dim_b = d1.rank()
    dim_z = d2.ncols - len(reduced)
    dim_h = dim_z - dim_b

    computed_rows = {pivot: dict(row) for pivot, row in reduced}
    constraints = [_relation_text(p, r) for p, r in sorted(computed_rows.items())]
    free_cols = [c for c in range(d2.ncols) if c not in computed_rows]
    free_names = [_alpha_name(c) for c in free_cols]
    constraints_match = computed_rows == _REFERENCE_COCYCLE_ROWS
    constraint_notes = []
    if not constraints_match:
        for pivot in sorted(set(computed_rows) | set(_REFERENCE_COCYCLE_ROWS)):
            got = computed_rows.get(pivot)
            want = _REFERENCE_COCYCLE_ROWS.get(pivot)
            if got != want:
                shown_want = _relation_text(pivot, want) if want else "(absent)"
                shown_got = _relation_text(pivot, got) if got else "(absent)"
                constraint_notes.append(
                    f"computed {shown_got}; printed claim {shown_want}"
                )

    # Coboundary side: columns of the degree-1 differential, indexed by the
    # 1-cochain parameters g^k_i (coefficient of e_k in g(e_i)).
    g11, g21, g12, g22 = (d1._cols.get(j, {}) for j in range(d1.ncols))
    dependent = {k: -Fraction(2) * v for k, v in g22.items()}
    coboundary_match = (
        dim_b == 2 and not g21 and g11 == dependent
    )

    lie_dims = cohomology_dims(regular(catalog_builtin("lie2")), "ce", 2)
    lie_h2 = lie_dims.dim_cohomology
    lie_match = lie_h2 == _REFERENCE_LIE2_H2

    lines = [
        "second cohomology of B2 (e1*e1 = e2) with regular coefficients:",
        f"  dim C^2 = {d2.ncols}",
        f"  dim Z^2 = {dim_z}",
        f"  dim B^2 = {dim_b}",
        f"  dim H^2 = {dim_h}",
        "",
        "cocycle constraints on f(e_i, e_j) = Σ_k α^k_ij e_k, computed:",
    ]
    lines += [f"  {c}" for c in constraints]
    lines += [
        f"free cocycle parameters ({len(free_names)}): {', '.join(free_names)}",
        f"constraint list: {MATCH_LABEL if constraints_match else DIFFER_LABEL}",
    ]
    lines += [f"  note: {n}" for n in constraint_notes]
    lines += [
        "",
        f"coboundaries: rank {dim_b}, determined by g¹₂ and 2·g¹₁ - g²₂ "
        "(2 parameters)",
        f"coboundary parameterization: "
        f"{MATCH_LABEL if coboundary_match else DIFFER_LABEL}",
        "",
        "second Chevalley-Eilenberg cohomology of lie2 with adjoint "
        "coefficients:",
        f"  computed dim H^2 = {lie_h2}, printed claim {_REFERENCE_LIE2_H2}",
        f"H^2(lie2, adjoint): {MATCH_LABEL if lie_match else DIFFER_LABEL}",
    ]
    data = {
        "dl_b2_degree2": {
            "dim_C": d2.ncols, "dim_Z": dim_z, "dim_B": dim_b, "dim_H": dim_h,
        },
        "cocycle_constraints": {
            "computed": constraints,
            "free_parameters": free_names,
            "label": MATCH_LABEL if constraints_match else DIFFER_LABEL,
            "notes": constraint_notes,
        },
        "coboundary_parameterization": {
            "rank": dim_b,
            "parameters": ["g¹₂", "2·g¹₁ - g²₂"],
            "label": MATCH_LABEL if coboundary_match else DIFFER_LABEL,
        },
        "lie2_adjoint_h2": {
            "computed": lie_h2,
            "reference": _REFERENCE_LIE2_H2,
            "label": MATCH_LABEL if lie_match else DIFFER_LABEL,
        },
    }
    return lines, data
