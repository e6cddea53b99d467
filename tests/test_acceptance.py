"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line (run with -s to see them all; a
plain run shows the lines for failing tests only). Three of the criteria
assert statements that the computed mathematics contradicts; those stay
red on purpose, and their summary lines say exactly what was measured
instead. Weakening them to pass would hide the finding.
"""

import time
from fractions import Fraction
from itertools import product

from _oracles import dl_delta_lowdeg, signed_shuffle_terms
from test_free_leibniz import all_words, rewrite_bracket

from zinbiel import (
    builtin,
    ce_delta_matrix,
    check_axioms,
    cohomology_dims,
    dl_delta,
    dl_delta_matrix,
    perturbed_b2,
    random_dl_cochain,
    regular,
    verify_chain_map,
)
from zinbiel.free_leibniz import leibniz_expansion
from zinbiel.reproduce import DIFFER_LABEL, MATCH_LABEL, reproduce_example_4_6
from zinbiel.tensor_bridge import (
    PsiNotInjectiveError,
    TensorContext,
    les_report,
    psi_matrix,
    tensor_lie,
)

GRID_LEIBNIZ = ("leibniz2", "freeleibniz(2,2)", "freeleibniz(2,3)")
GRID_ZINBIEL = ("B2", "B3", "polyzinbiel(2)")


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_worked_example():
    t0 = time.monotonic()
    dims = cohomology_dims(regular(builtin("B2")), "dl", 2)
    elapsed = time.monotonic() - t0
    ok = (
        dims.dim_cohomology == 1
        and dims.dim_cocycles == 3
        and dims.dim_coboundaries == 2
        and elapsed < 1.0
    )
    report(1, ok, f"dim H^2 = {dims.dim_cohomology}, Z = {dims.dim_cocycles}, "
                  f"B = {dims.dim_coboundaries} in {elapsed:.3f}s")


def test_criterion_02_chain_map_grid():
    t0 = time.monotonic()
    failures = []
    for gn in GRID_LEIBNIZ:
        for bn in GRID_ZINBIEL:
            g, B = builtin(gn), builtin(bn)
            M = regular(B)
            for n in (1, 2, 3):
                rep = verify_chain_map(g, B, M, n, trials=10, seed=0,
                                       with_axioms=False)
                if not rep.passed:
                    failures.append((gn, bn, n, rep.failed_trials))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    report(2, ok, f"9 pairs x 3 degrees x 10 cochains, all exact, "
                  f"{elapsed:.1f}s" if ok else f"failures {failures}, {elapsed:.1f}s")


def test_criterion_03_negative_control():
    B = perturbed_b2()
    rep = verify_chain_map(builtin("leibniz2"), B, regular(B), 2, trials=10, seed=0)
    flagged = not (rep.passed and rep.axioms_ok)

    lie = tensor_lie(builtin("freeleibniz(2,2)"), B, validate=False)
    jacobi = check_axioms(lie, "lie")
    has_witness = not jacobi.ok and jacobi.witness is not None

    detail = (
        f"broken product flagged: {'yes' if flagged else 'no'}; "
        f"Jacobi witness on the length-2 truncation tensor: "
        f"{'found' if has_witness else 'none (every triple bracket lands past the word-length cap, so the identity holds vacuously; the cap-3 truncation does yield one)'}"
    )
    report(3, flagged and has_witness, detail)


def test_criterion_04_delta_squared_zero():
    checked_dl = 0
    for name in ("B2", "B3", "polyzinbiel(2)", "polyzinbiel(3)"):
        mod = regular(builtin(name))
        for n in (1, 2):
            assert dl_delta_matrix(mod, n + 1).mul(dl_delta_matrix(mod, n)).is_zero()
            checked_dl += 1

    modules = [regular(builtin("lie2"))]
    skipped = []
    for gn in GRID_LEIBNIZ:
        for bn in GRID_ZINBIEL:
            ctx = TensorContext(builtin(gn), builtin(bn), regular(builtin(bn)))
            if ctx.lie.dim > 18:
                skipped.append(ctx.lie.dim)
                continue
            modules.append(ctx.module)
    checked_ce = 0
    for mod in modules:
        mats = {n: ce_delta_matrix(mod, n) for n in range(4)}
        for n in (0, 1, 2):
            assert mats[n + 1].mul(mats[n]).is_zero()
            checked_ce += 1
    report(4, True, f"dl: {checked_dl} products zero; ce: {checked_ce} products "
                    f"zero over lie2 + {len(modules) - 1} tensor algebras "
                    f"(dims over 18 skipped: {sorted(skipped)})")


def test_criterion_05_low_degree_oracle():
    from random import Random

    count = 0
    mismatches = 0
    for name in ("B2", "B3", "polyzinbiel(2)", "leibniz2", "lie2",
                 "freeleibniz(2,2)"):
        alg = builtin(name)
        mod = regular(alg)
        for degree in (1, 2, 3):
            for trial in range(3):
                rng = Random(1000 + 10 * degree + trial)
                f = random_dl_cochain(alg.dim, mod.dim, degree, rng)
                if dl_delta(f, mod).values != dl_delta_lowdeg(f, mod).values:
                    mismatches += 1
                count += 1
    report(5, count >= 50 and mismatches == 0,
           f"{count} seeded cochains across 6 algebras, degrees 1-3, "
           f"{mismatches} mismatches")


def test_criterion_06_shuffle_tables():
    want = {
        1: [(1, (1,))],
        2: [(1, (1, 2)), (1, (2, 1))],
        3: [(1, (1, 2, 3)), (-1, (2, 3, 1)), (1, (2, 1, 3)), (-1, (3, 2, 1))],
    }
    got = {n: signed_shuffle_terms(n) for n in (1, 2, 3)}
    report(6, got == want, f"signed shuffle families sizes "
                           f"{[len(got[n]) for n in (1, 2, 3)]}, signs as printed")


def test_criterion_07_expansion_vs_rewriting():
    cap = 4
    cases = 0
    for u in all_words(2, cap - 1):
        for mlen in range(1, cap - len(u) + 1):
            for letters in product(range(2), repeat=mlen):
                want = {w: Fraction(c)
                        for w, c in rewrite_bracket(u, letters, cap).items()}
                acc = {}
                for sign, w in leibniz_expansion(mlen):
                    word = u + tuple(letters[w[i] - 1] for i in range(mlen))
                    acc[word] = acc.get(word, Fraction(0)) + sign
                got = {w: c for w, c in acc.items() if c}
                assert got == want, (u, letters)
                cases += 1
    report(7, True, f"{cases} brackets of total length <= {cap} agree with "
                    f"identity-only rewriting")


def test_criterion_08_embedding_rank():
    B = builtin("B2")

    def ctx(name):
        return TensorContext(builtin(name), B, regular(B))

    ranks = {
        1: psi_matrix(ctx("freeleibniz(2,1)"), 1).rank(),
        2: psi_matrix(ctx("freeleibniz(2,2)"), 2).rank(),
        3: psi_matrix(ctx("freeleibniz(2,3)"), 3).rank(),
    }
    expected = {1: 4, 2: 8, 3: 16}
    abelian_rank = psi_matrix(ctx("freeleibniz(1,1)"), 2).rank()
    ok = ranks == expected and abelian_rank == 0
    report(8, ok, f"ranks {ranks} vs full {expected}; abelian rank {abelian_rank} "
                  f"(degree 3 at word-length cap 3 loses the repeated-letter "
                  f"columns; cap 4 or a third generator restores full rank)")


def test_criterion_09_dimension_exactness():
    t0 = time.monotonic()
    B = builtin("B2")
    g = builtin("freeleibniz(2,2)")
    data = les_report(g, B, regular(B), max_degree=1)
    row = data["rows"][0]
    try:
        les_report(g, B, regular(B), max_degree=2)
        n2 = "computed"
    except PsiNotInjectiveError:
        n2 = "not computable (embedding not injective at degree 3)"
    elapsed = time.monotonic() - t0
    ok = row["identity_holds"] and elapsed < 600.0
    report(9, ok, f"n=1: {row['identity_lhs']} vs {row['identity_rhs']} "
                  f"(quotient cohomology exceeds the two-term sum by 1; the "
                  f"connecting map leaves the embedded cocycles); n=2 {n2}; "
                  f"{elapsed:.1f}s")


def test_criterion_10_flagged_discrepancies():
    lines, data = reproduce_example_4_6()
    text = "\n".join(lines)
    labels = {
        data["cocycle_constraints"]["label"],
        data["coboundary_parameterization"]["label"],
        data["lie2_adjoint_h2"]["label"],
    }
    allowed = {MATCH_LABEL, DIFFER_LABEL}

    dl = data["dl_b2_degree2"]
    dims = cohomology_dims(regular(builtin("lie2")), "ce", 2)
    consistent = (
        dl == {"dim_C": 8, "dim_Z": 3, "dim_B": 2, "dim_H": 1}
        and data["lie2_adjoint_h2"]["computed"] == dims.dim_cohomology
        and len(data["cocycle_constraints"]["computed"]) == 5
        and len(data["cocycle_constraints"]["free_parameters"]) == 3
        and data["coboundary_parameterization"]["rank"] == 2
    )
    ok = (
        labels <= allowed
        and MATCH_LABEL in text
        and DIFFER_LABEL in text
        and consistent
    )
    report(10, ok, f"labels {sorted(labels)}; internally consistent: "
                   f"{'yes' if consistent else 'no'}")
