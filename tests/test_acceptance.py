"""The acceptance gate: every criterion at its stated tolerance, one
pass/fail line each.  All equalities are exact (identifier equality); the
only tolerances are the stated wall-clock bounds.

Criteria 1-10 run the package's named-check battery (``gamma2cat.cli.BATTERY``,
the same checks ``gamma2cat report`` prints) and hold it to the bounds here.
Criterion 10 also judges the battery's mutation sample with an independent
exhaustive scanner written with direct table loops, deliberately sharing no
code with the package's validators: the structure checks here, and the unit,
associativity and interchange laws by the naive scan of ``test_twocat``.
"""

import time

from gamma2cat.cli import BATTERY, mutation_sample
from gamma2cat.monoidal import (PermutativeGrayMonoid, PermutativeTwoCategory, fixture,
                                promote, validate_pgm)
from gamma2cat.twocat import FiniteTwoCategory
from test_monoidal import _single_entry_mutations
from test_twocat import _naive_axiom_scan


def _line(num, ok, text):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _battery(num, text, bound=None):
    """Run criterion ``num`` of the package battery: every check passes,
    within ``bound`` seconds when one is given."""
    number, stage, criterion = BATTERY[num - 1]
    assert number == num
    t0 = time.time()
    lines = criterion()
    elapsed = time.time() - t0
    failed = [f"{name} ({detail})" if detail else name
              for name, passed, detail in lines if not passed]
    ok = bool(lines) and not failed and (bound is None or elapsed < bound)
    names = ", ".join(name for name, _, _ in lines)
    failing = f"; failing: {', '.join(failed)}" if failed else ""
    _line(num, ok, f"{text} [{stage}: {names}{failing}], {elapsed:.1f}s")


def test_criterion_01_level_counts():
    _battery(1, "level counts 1, 2, 4, 8, connecting cells trivial", bound=10)


def test_criterion_02_level_one_comparison():
    _battery(2, "level one is isomorphic to the carrier for F1-F5 and M3")


def test_criterion_03_specialness():
    _battery(3, "comparison maps are equivalences (F1-F3 to level 3, F5 to 2; "
                "F5@2 non-isomorphism)", bound=120)


def test_criterion_04_very_special():
    _battery(4, "class set at level one is the group of order two")


def test_criterion_05_triangle_counit_after_unit():
    _battery(5, "counit after unit is the identity on all cells and "
                "structure cells collapse", bound=120)


def test_criterion_06_triangle_counit_after_unit_image():
    _battery(6, "counit after unit image fixes every bounded cell", bound=120)


def test_criterion_07_span_construction():
    _battery(7, "span legs factor the unit and the retraction adjunction holds")


def test_criterion_08_bounded_permutativity():
    _battery(8, "bounded inverse construction is permutative")


def test_criterion_09_lambda_coherence():
    _battery(9, "comparison transformation coherent on the unit; "
                "identity for strict maps")


# -- criterion 10: mutation completeness with an independent scanner -----------


def _naive_two_cat_ok(C: FiniteTwoCategory) -> bool:
    one, two = C.one_src, C.two_src
    objs = set(C.objects)
    ids1, ids2 = {}, {}
    for f in one:
        if C.one_src[f] not in objs or C.one_tgt[f] not in objs:
            return False
        if C.one_identity[f]:
            if C.one_src[f] != C.one_tgt[f] or C.one_src[f] in ids1:
                return False
            ids1[C.one_src[f]] = f
    for a in two:
        if C.two_src[a] not in one or C.two_tgt[a] not in one:
            return False
        fa, ga = C.two_src[a], C.two_tgt[a]
        if (C.one_src[fa], C.one_tgt[fa]) != (C.one_src[ga], C.one_tgt[ga]):
            return False
        if C.two_identity[a]:
            if fa != ga or fa in ids2:
                return False
            ids2[fa] = a
    if set(ids1) != objs or set(ids2) != set(one):
        return False
    H1, V, H2 = C.hcomp1_table, C.vcomp_table, C.hcomp2_table
    for g in one:
        for f in one:
            if C.one_src[g] == C.one_tgt[f]:
                h = H1.get((g, f))
                if h is None or h not in one:
                    return False
                if C.one_src[h] != C.one_src[f] or C.one_tgt[h] != C.one_tgt[g]:
                    return False
            elif (g, f) in H1:
                return False
    for b in two:
        for a in two:
            if C.two_src[b] == C.two_tgt[a]:
                cc = V.get((b, a))
                if cc is None or cc not in two:
                    return False
                if C.two_src[cc] != C.two_src[a] or C.two_tgt[cc] != C.two_tgt[b]:
                    return False
            elif (b, a) in V:
                return False
            if C.one_src[C.two_src[b]] == C.one_tgt[C.two_src[a]]:
                cc = H2.get((b, a))
                if cc is None or cc not in two:
                    return False
                if C.two_src[cc] != H1[(C.two_src[b], C.two_src[a])]:
                    return False
                if C.two_tgt[cc] != H1[(C.two_tgt[b], C.two_tgt[a])]:
                    return False
            elif (b, a) in H2:
                return False
    # the tables are total and typed, so the laws can be scanned
    return not _naive_axiom_scan(C)[0]


def _naive_p2cat_ok(P: PermutativeTwoCategory) -> bool:
    C = P.base
    if not _naive_two_cat_ok(C):
        return False
    objs = list(C.objects)
    one, two = list(C.one_src), list(C.two_src)
    SO, S1, S2, B = P.sum_obj_table, P.sum_one_table, P.sum_two_table, P.beta_table
    e = P.unit
    for a in objs:
        for b in objs:
            if (a, b) not in SO or SO[(a, b)] not in objs:
                return False
            if (a, b) not in B or B[(a, b)] not in one:
                return False
            bc = B[(a, b)]
            if C.one_src[bc] != SO[(a, b)] or C.one_tgt[bc] != SO[(b, a)]:
                return False
    for f in one:
        for g in one:
            h = S1.get((f, g))
            if h is None or h not in one:
                return False
            if C.one_src[h] != SO[(C.one_src[f], C.one_src[g])]:
                return False
            if C.one_tgt[h] != SO[(C.one_tgt[f], C.one_tgt[g])]:
                return False
    for x in two:
        for y in two:
            z = S2.get((x, y))
            if z is None or z not in two:
                return False
            if C.two_src[z] != S1[(C.two_src[x], C.two_src[y])]:
                return False
            if C.two_tgt[z] != S1[(C.two_tgt[x], C.two_tgt[y])]:
                return False
    ids1 = {o: next(f for f in one if C.one_identity[f] and C.one_src[f] == o)
            for o in objs}
    for a in objs:
        if SO[(e, a)] != a or SO[(a, e)] != a:
            return False
        for b in objs:
            if S1[(ids1[a], ids1[b])] != ids1[SO[(a, b)]]:
                return False
            for c in objs:
                if SO[(SO[(a, b)], c)] != SO[(a, SO[(b, c)])]:
                    return False
    for f in one:
        if S1[(ids1[e], f)] != f or S1[(f, ids1[e])] != f:
            return False
        for g in one:
            for h in one:
                if S1[(S1[(f, g)], h)] != S1[(f, S1[(g, h)])]:
                    return False
    for (g2, g1) in C.hcomp1_table:
        for (f2, f1) in C.hcomp1_table:
            lhs = S1[(C.hcomp1_table[(g2, g1)], C.hcomp1_table[(f2, f1)])]
            rhs = C.hcomp1_table[(S1[(g2, f2)], S1[(g1, f1)])]
            if lhs != rhs:
                return False
    for (b2, b1) in C.vcomp_table:
        for (a2, a1) in C.vcomp_table:
            lhs = S2[(C.vcomp_table[(b2, b1)], C.vcomp_table[(a2, a1)])]
            rhs = C.vcomp_table[(S2[(b2, a2)], S2[(b1, a1)])]
            if lhs != rhs:
                return False
    for (b2, b1) in C.hcomp2_table:
        for (a2, a1) in C.hcomp2_table:
            lhs = S2[(C.hcomp2_table[(b2, b1)], C.hcomp2_table[(a2, a1)])]
            rhs = C.hcomp2_table[(S2[(b2, a2)], S2[(b1, a1)])]
            if lhs != rhs:
                return False
    ids2 = {f: next(a for a in two if C.two_identity[a] and C.two_src[a] == f)
            for f in one}
    for f in one:
        for g in one:
            if S2[(ids2[f], ids2[g])] != ids2[S1[(f, g)]]:
                return False
    for a in objs:
        for b in objs:
            if C.hcomp1_table[(B[(b, a)], B[(a, b)])] != ids1[SO[(a, b)]]:
                return False
            for c in objs:
                lhs = B[(a, SO[(b, c)])]
                rhs = C.hcomp1_table[(
                    S1[(ids1[b], B[(a, c)])], S1[(B[(a, b)], ids1[c])]
                )]
                if lhs != rhs:
                    return False
        if B[(e, a)] != ids1[a] or B[(a, e)] != ids1[a]:
            return False
    for f in one:
        for g in one:
            x, x2 = C.one_src[f], C.one_tgt[f]
            y, y2 = C.one_src[g], C.one_tgt[g]
            lhs = C.hcomp1_table[(B[(x2, y2)], S1[(f, g)])]
            rhs = C.hcomp1_table[(S1[(g, f)], B[(x, y)])]
            if lhs != rhs:
                return False
    for xc in two:
        for yc in two:
            f, g = C.two_src[xc], C.two_src[yc]
            x, x2 = C.one_src[f], C.one_tgt[f]
            y, y2 = C.one_src[g], C.one_tgt[g]
            lhs = C.hcomp2_table[(S2[(yc, xc)], ids2[B[(x, y)]])]
            rhs = C.hcomp2_table[(ids2[B[(x2, y2)]], S2[(xc, yc)])]
            if lhs != rhs:
                return False
    return True


def _naive_pgm_ok(P: PermutativeGrayMonoid) -> bool:
    C = P.base
    if not _naive_two_cat_ok(C):
        return False
    objs = list(C.objects)
    one, two = list(C.one_src), list(C.two_src)
    SO, B, SG = P.sum_obj_table, P.beta_table, P.sigma_table
    L1, R1, L2, R2 = P.lsum1_table, P.rsum1_table, P.lsum2_table, P.rsum2_table
    e = P.unit
    H1, V, H2 = C.hcomp1_table, C.vcomp_table, C.hcomp2_table
    ids1 = {o: next(f for f in one if C.one_identity[f] and C.one_src[f] == o)
            for o in objs}
    ids2 = {f: next(a for a in two if C.two_identity[a] and C.two_src[a] == f)
            for f in one}

    def ok_typed(cell, pool, src, tgt, kind):
        if cell not in pool:
            return False
        if kind == 1:
            return C.one_src[cell] == src and C.one_tgt[cell] == tgt
        return C.two_src[cell] == src and C.two_tgt[cell] == tgt

    for a in objs:
        for b in objs:
            if (a, b) not in SO or SO[(a, b)] not in objs:
                return False
            for c in objs:
                if SO[(SO[(a, b)], c)] != SO[(a, SO[(b, c)])]:
                    return False
        if SO[(e, a)] != a or SO[(a, e)] != a:
            return False
    for a in objs:
        for f in one:
            lf = L1.get((a, f))
            rf = R1.get((f, a))
            if lf is None or rf is None:
                return False
            if not ok_typed(lf, one, SO[(a, C.one_src[f])], SO[(a, C.one_tgt[f])], 1):
                return False
            if not ok_typed(rf, one, SO[(C.one_src[f], a)], SO[(C.one_tgt[f], a)], 1):
                return False
    for f in one:
        if L1[(e, f)] != f or R1[(f, e)] != f:
            return False
    for x in two:
        for a in objs:
            if L2.get((a, x)) is None or R2.get((x, a)) is None:
                return False
            if C.two_src[L2[(a, x)]] != L1[(a, C.two_src[x])]:
                return False
            if C.two_src[R2[(x, a)]] != R1[(C.two_src[x], a)]:
                return False
        if L2[(e, x)] != x or R2[(x, e)] != x:
            return False
    for a in objs:
        for x in objs:
            if L1[(a, ids1[x])] != ids1[SO[(a, x)]] or R1[(ids1[x], a)] != ids1[SO[(x, a)]]:
                return False
        for (g, f) in H1:
            if L1[(a, H1[(g, f)])] != H1[(L1[(a, g)], L1[(a, f)])]:
                return False
            if R1[(H1[(g, f)], a)] != H1[(R1[(g, a)], R1[(f, a)])]:
                return False
        for f in one:
            if L2[(a, ids2[f])] != ids2[L1[(a, f)]] or R2[(ids2[f], a)] != ids2[R1[(f, a)]]:
                return False
        for (b2, b1) in V:
            if L2[(a, V[(b2, b1)])] != V[(L2[(a, b2)], L2[(a, b1)])]:
                return False
            if R2[(V[(b2, b1)], a)] != V[(R2[(b2, a)], R2[(b1, a)])]:
                return False
        for (b2, b1) in H2:
            if L2[(a, H2[(b2, b1)])] != H2[(L2[(a, b2)], L2[(a, b1)])]:
                return False
            if R2[(H2[(b2, b1)], a)] != H2[(R2[(b2, a)], R2[(b1, a)])]:
                return False
        for b in objs:
            for f in one:
                if L1[(a, L1[(b, f)])] != L1[(SO[(a, b)], f)]:
                    return False
                if R1[(R1[(f, a)], b)] != R1[(f, SO[(a, b)])]:
                    return False
                if L1[(a, R1[(f, b)])] != R1[(L1[(a, f)], b)]:
                    return False
    inv = {}
    for (f, g), sg in SG.items():
        if f not in one or g not in one or sg not in two:
            return False
        x, x2 = C.one_src[f], C.one_tgt[f]
        y, y2 = C.one_src[g], C.one_tgt[g]
        if C.two_src[sg] != H1[(R1[(f, y2)], L1[(x, g)])]:
            return False
        if C.two_tgt[sg] != H1[(L1[(x2, g)], R1[(f, y)])]:
            return False
        if C.one_identity[f] or C.one_identity[g]:
            if not C.two_identity[sg]:
                return False
        found = None
        for cand in two:
            if C.two_src[cand] == C.two_tgt[sg] and C.two_tgt[cand] == C.two_src[sg]:
                if V[(cand, sg)] == ids2[C.two_src[sg]] and V[(sg, cand)] == ids2[C.two_tgt[sg]]:
                    found = cand
                    break
        if found is None:
            return False
        inv[(f, g)] = found
    for f in one:
        for g in one:
            if (f, g) not in SG:
                return False
    for a1 in two:
        for a2 in two:
            f1, g1 = C.two_src[a1], C.two_tgt[a1]
            f2, g2 = C.two_src[a2], C.two_tgt[a2]
            x, x2 = C.one_src[f1], C.one_tgt[f1]
            y, y2 = C.one_src[f2], C.one_tgt[f2]
            first = H2[(R2[(a1, y2)], L2[(x, a2)])]
            second = H2[(L2[(x2, a2)], R2[(a1, y)])]
            if V[(SG[(g1, g2)], first)] != V[(second, SG[(f1, f2)])]:
                return False
    for (h1, f1) in H1:
        for g in one:
            x2 = C.one_tgt[f1]
            y, y2 = C.one_src[g], C.one_tgt[g]
            stepA = H2[(ids2[R1[(h1, y2)]], SG[(f1, g)])]
            stepB = H2[(SG[(h1, g)], ids2[R1[(f1, y)]])]
            if SG[(H1[(h1, f1)], g)] != V[(stepB, stepA)]:
                return False
    for (h2, g2) in H1:
        for f in one:
            x, x2 = C.one_src[f], C.one_tgt[f]
            stepA = H2[(SG[(f, h2)], ids2[L1[(x, g2)]])]
            stepB = H2[(ids2[L1[(x2, h2)]], SG[(f, g2)])]
            if SG[(f, H1[(h2, g2)])] != V[(stepB, stepA)]:
                return False
    for a in objs:
        for b in objs:
            bc = B.get((a, b))
            if bc is None or not ok_typed(bc, one, SO[(a, b)], SO[(b, a)], 1):
                return False
    for a in objs:
        for b in objs:
            bc = B[(a, b)]
            if H1[(B[(b, a)], bc)] != ids1[SO[(a, b)]]:
                return False
            for c in objs:
                lhs = B[(a, SO[(b, c)])]
                rhs = H1[(L1[(b, B[(a, c)])], R1[(B[(a, b)], c)])]
                if lhs != rhs:
                    return False
        if B[(e, a)] != ids1[a] or B[(a, e)] != ids1[a]:
            return False
    for f in one:
        x, x2 = C.one_src[f], C.one_tgt[f]
        for b in objs:
            if H1[(B[(x2, b)], R1[(f, b)])] != H1[(L1[(b, f)], B[(x, b)])]:
                return False
            if H1[(B[(b, x2)], L1[(b, f)])] != H1[(R1[(f, b)], B[(b, x)])]:
                return False
    for al in two:
        f = C.two_src[al]
        x, x2 = C.one_src[f], C.one_tgt[f]
        for b in objs:
            if H2[(L2[(b, al)], ids2[B[(x, b)]])] != H2[(ids2[B[(x2, b)]], R2[(al, b)])]:
                return False
            if H2[(R2[(al, b)], ids2[B[(b, x)]])] != H2[(ids2[B[(b, x2)]], L2[(b, al)])]:
                return False
    for (a, b), bc in B.items():
        for g in one:
            if not C.two_identity[SG[(bc, g)]] or not C.two_identity[SG[(g, bc)]]:
                return False
    return True


def test_criterion_10_mutation_completeness():
    # the battery: every sampled mutation is rejected with a witness
    _battery(10, "every single-entry mutation is rejected with a witness")
    # and the package validator agrees with the independent scanner on the sample
    silent, disagreements, rejected, total = 0, 0, 0, 0
    for mutated, rep in mutation_sample():
        total += 1
        if isinstance(mutated, PermutativeTwoCategory):
            naive_ok = _naive_p2cat_ok(mutated)
        else:
            naive_ok = _naive_pgm_ok(mutated)
        if rep.ok != naive_ok:
            disagreements += 1
        if rep.ok and not naive_ok:
            silent += 1
        if not rep.ok:
            rejected += 1
            if rep.first() is None:
                disagreements += 1
    ok = silent == 0 and disagreements == 0 and total == 300
    _line(10, ok, f"{total} mutations, {rejected} rejected with witnesses, "
                  f"{silent} silent passes, {disagreements} scanner disagreements")


def test_cubical_scan_agrees_with_the_independent_scanner():
    # every single-entry sum-table change of the cubical carriers
    carriers = [fixture("F5")] + [promote(fixture(n)) for n in ("F1", "F2", "F3", "F4", "M3")]
    mutations = [M for C in carriers for M in _single_entry_mutations(C)]
    assert len(mutations) == 213
    verdicts = [validate_pgm(M).ok for M in mutations]
    assert verdicts == [_naive_pgm_ok(M) for M in mutations]
    assert sum(verdicts) == 1


def test_criterion_11_wall_clock(request):
    start = getattr(request.config, "_gamma2cat_t0", None)
    elapsed = time.time() - start if start else 0.0
    ok = elapsed < 300
    _line(11, ok, f"suite wall clock {elapsed:.0f}s (< 300s)")
