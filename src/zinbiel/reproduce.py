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


def _label(match: bool) -> str:
    return MATCH_LABEL if match else DIFFER_LABEL


def reproduce_example_4_6() -> Tuple[List[str], dict]:
    """Recompute the worked second-cohomology example and diff each claim.

    Returns the text report lines, rendered from the machine-readable summary,
    and that summary; every deviation is an informational note, never an error.
    """
    M = regular(catalog_builtin("B2"))
    dims = cohomology_dims(M, "dl", 2)
    d1 = dl_delta_matrix(M, 1)
    d2 = dl_delta_matrix(M, 2)

    computed_rows = {pivot: dict(row) for pivot, row in d2.reduced_rows()}
    constraint_notes = []
    for pivot in sorted(set(computed_rows) | set(_REFERENCE_COCYCLE_ROWS)):
        got = computed_rows.get(pivot)
        want = _REFERENCE_COCYCLE_ROWS.get(pivot)
        if got != want:
            shown_want = _relation_text(pivot, want) if want else "(absent)"
            shown_got = _relation_text(pivot, got) if got else "(absent)"
            constraint_notes.append(f"computed {shown_got}; printed claim {shown_want}")

    # Coboundary side: columns of the degree-1 differential, indexed by the
    # 1-cochain parameters g^k_i (coefficient of e_k in g(e_i)).
    g11, g21, g12, g22 = (d1._cols.get(j, {}) for j in range(d1.ncols))
    dependent = {k: -Fraction(2) * v for k, v in g22.items()}
    coboundary_match = dims.dim_coboundaries == 2 and not g21 and g11 == dependent

    lie_h2 = cohomology_dims(regular(catalog_builtin("lie2")), "ce", 2).dim_cohomology

    data = {
        "dl_b2_degree2": {
            "dim_C": dims.dim_cochains, "dim_Z": dims.dim_cocycles,
            "dim_B": dims.dim_coboundaries, "dim_H": dims.dim_cohomology,
        },
        "cocycle_constraints": {
            "computed": [_relation_text(p, r) for p, r in sorted(computed_rows.items())],
            "free_parameters": [_alpha_name(c) for c in range(d2.ncols) if c not in computed_rows],
            "label": _label(not constraint_notes),
            "notes": constraint_notes,
        },
        "coboundary_parameterization": {
            "rank": dims.dim_coboundaries,
            "parameters": ["g¹₂", "2·g¹₁ - g²₂"],
            "label": _label(coboundary_match),
        },
        "lie2_adjoint_h2": {
            "computed": lie_h2,
            "reference": _REFERENCE_LIE2_H2,
            "label": _label(lie_h2 == _REFERENCE_LIE2_H2),
        },
    }
    dl, cocycles, coboundaries, lie = data.values()
    free = cocycles["free_parameters"]
    lines = [
        "second cohomology of B2 (e1*e1 = e2) with regular coefficients:",
        *(f"  dim {key[-1]}^2 = {value}" for key, value in dl.items()),
        "",
        "cocycle constraints on f(e_i, e_j) = Σ_k α^k_ij e_k, computed:",
        *(f"  {c}" for c in cocycles["computed"]),
        f"free cocycle parameters ({len(free)}): {', '.join(free)}",
        f"constraint list: {cocycles['label']}",
        *(f"  note: {n}" for n in cocycles["notes"]),
        "",
        f"coboundaries: rank {coboundaries['rank']}, determined by "
        f"{' and '.join(coboundaries['parameters'])} "
        f"({len(coboundaries['parameters'])} parameters)",
        f"coboundary parameterization: {coboundaries['label']}",
        "",
        "second Chevalley-Eilenberg cohomology of lie2 with adjoint coefficients:",
        f"  computed dim H^2 = {lie['computed']}, printed claim {lie['reference']}",
        f"H^2(lie2, adjoint): {lie['label']}",
    ]
    return lines, data
