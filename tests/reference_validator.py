"""The scan-and-filter validator that the indexed one in ``bicatkit.core``
replaced, kept as the reference for the differential tests.

``reference_validate_bicategory`` is the old ``validate_bicategory`` copied
verbatim, except that the composable pairs and triples come from the old
double and triple scans below instead of from the ``Bicategory`` methods.
"""
from __future__ import annotations

from typing import Iterator

from bicatkit.core import Bicategory, ValidationReport, Violation


def composable_arrow_pairs(bic: Bicategory) -> Iterator[tuple[str, str]]:
    for g in sorted(bic.arrows):
        for f in sorted(bic.arrows):
            if bic.composable1(g, f):
                yield g, f


def composable_arrow_triples(bic: Bicategory) -> Iterator[tuple[str, str, str]]:
    for h in sorted(bic.arrows):
        for g in sorted(bic.arrows):
            if not bic.composable1(h, g):
                continue
            for f in sorted(bic.arrows):
                if bic.composable1(g, f):
                    yield h, g, f


def reference_validate_bicategory(bic: Bicategory) -> ValidationReport:
    """Exhaustively check every structural axiom of the tables."""
    out: list[Violation] = []
    add = out.append
    arrows = bic.arrows
    cells = bic.cells

    # reference integrity and identity pointers
    for f, (x, y) in sorted(arrows.items()):
        if x not in bic.objects or y not in bic.objects:
            add(Violation("arrow-typing", (f, x, y)))
    for x in bic.objects:
        i = bic.id1.get(x)
        if i is None or i not in arrows:
            add(Violation("id1-missing", (x,)))
        elif arrows[i] != (x, x):
            add(Violation("id1-typing", (x, i)))
    for a, (f, g) in sorted(cells.items()):
        if f not in arrows or g not in arrows:
            add(Violation("cell-typing", (a, f, g)))
        elif arrows[f] != arrows[g]:
            add(Violation("cell-parallel", (a, f, g)))
    for f in sorted(arrows):
        i = bic.idc.get(f)
        if i is None or i not in cells:
            add(Violation("idc-missing", (f,)))
        elif cells[i] != (f, f):
            add(Violation("idc-typing", (f, i)))
    if out:
        # tables below would only cascade noise on broken references
        return ValidationReport(tuple(out))

    # hcomp1: defined iff composable, total, boundary-correct
    for (g, f), h in sorted(bic.hcomp1.items()):
        if g not in arrows or f not in arrows or h not in arrows:
            add(Violation("hcomp1-ref", (g, f, str(h))))
            continue
        if not bic.composable1(g, f):
            add(Violation("hcomp1-typing", (g, f), left="not composable"))
        elif arrows[h] != (bic.arrow_src(f), bic.arrow_dst(g)):
            add(Violation("hcomp1-typing", (g, f), left=h))
    for g, f in composable_arrow_pairs(bic):
        if (g, f) not in bic.hcomp1:
            add(Violation("hcomp1-totality", (g, f)))
    if any(v.axiom.startswith("hcomp1") for v in out):
        return ValidationReport(tuple(out))

    # vcomp: category structure on every hom
    for (b, a), c in sorted(bic.vcomp.items()):
        if b not in cells or a not in cells or c not in cells:
            add(Violation("vcomp-ref", (b, a, str(c))))
            continue
        if bic.cell_dst(a) != bic.cell_src(b):
            add(Violation("vcomp-typing", (b, a), left="not composable"))
        elif cells[c] != (bic.cell_src(a), bic.cell_dst(b)):
            add(Violation("vcomp-typing", (b, a), left=c))
    for b in sorted(cells):
        for a in sorted(cells):
            if bic.cell_dst(a) == bic.cell_src(b) and (b, a) not in bic.vcomp:
                add(Violation("vcomp-totality", (b, a)))
    if any(v.axiom.startswith("vcomp-") for v in out):
        return ValidationReport(tuple(out))
    for a in sorted(cells):
        f, g = cells[a]
        if bic.vcomp[(a, bic.idc[f])] != a:
            add(Violation("vcomp-unit", (a,), left=bic.vcomp[(a, bic.idc[f])], right=a))
        if bic.vcomp[(bic.idc[g], a)] != a:
            add(Violation("vcomp-unit", (a,), left=bic.vcomp[(bic.idc[g], a)], right=a))
    for a in sorted(cells):
        for b in sorted(cells):
            if bic.cell_dst(a) != bic.cell_src(b):
                continue
            for c in sorted(cells):
                if bic.cell_dst(b) != bic.cell_src(c):
                    continue
                lhs = bic.vcomp[(c, bic.vcomp[(b, a)])]
                rhs = bic.vcomp[(bic.vcomp[(c, b)], a)]
                if lhs != rhs:
                    add(Violation("vcomp-assoc", (c, b, a), left=lhs, right=rhs))

    # whisker tables: typing and totality
    for (g, a), c in sorted(bic.lwhisk.items()):
        if g not in arrows or a not in cells or c not in cells:
            add(Violation("lwhisk-ref", (g, a, str(c))))
            continue
        f1, f2 = cells[a]
        if bic.arrow_dst(f1) != bic.arrow_src(g):
            add(Violation("lwhisk-typing", (g, a), left="not composable"))
            continue
        want = (bic.hcomp1.get((g, f1)), bic.hcomp1.get((g, f2)))
        if None in want or cells[c] != want:
            add(Violation("lwhisk-typing", (g, a), left=c))
    for g in sorted(arrows):
        for a in sorted(cells):
            f1, _ = cells[a]
            if bic.arrow_dst(f1) == bic.arrow_src(g) and (g, a) not in bic.lwhisk:
                add(Violation("lwhisk-totality", (g, a)))
    for (a, f), c in sorted(bic.rwhisk.items()):
        if f not in arrows or a not in cells or c not in cells:
            add(Violation("rwhisk-ref", (a, f, str(c))))
            continue
        g1, g2 = cells[a]
        if bic.arrow_dst(f) != bic.arrow_src(g1):
            add(Violation("rwhisk-typing", (a, f), left="not composable"))
            continue
        want = (bic.hcomp1.get((g1, f)), bic.hcomp1.get((g2, f)))
        if None in want or cells[c] != want:
            add(Violation("rwhisk-typing", (a, f), left=c))
    for a in sorted(cells):
        g1, _ = cells[a]
        for f in sorted(arrows):
            if bic.arrow_dst(f) == bic.arrow_src(g1) and (a, f) not in bic.rwhisk:
                add(Violation("rwhisk-totality", (a, f)))
    if any("whisk" in v.axiom for v in out):
        return ValidationReport(tuple(out))

    # W1: both whisker orders of a horizontal composite agree
    for a in sorted(cells):
        f1, f2 = cells[a]
        x, y = arrows[f1]
        for b in sorted(cells):
            g1, g2 = cells[b]
            if bic.arrow_src(g1) != y:
                continue
            lhs = bic.vcomp[(bic.lwhisk[(g2, a)], bic.rwhisk[(b, f1)])]
            rhs = bic.vcomp[(bic.rwhisk[(b, f2)], bic.lwhisk[(g1, a)])]
            if lhs != rhs:
                add(Violation("W1", (b, a), left=lhs, right=rhs))

    # W2 / H1: whiskered identities are identities
    for g, f in composable_arrow_pairs(bic):
        gf = bic.hcomp1[(g, f)]
        if bic.lwhisk[(g, bic.idc[f])] != bic.idc[gf]:
            add(Violation("W2", (g, f), left=bic.lwhisk[(g, bic.idc[f])], right=bic.idc[gf]))
        if bic.rwhisk[(bic.idc[g], f)] != bic.idc[gf]:
            add(Violation("W2", (g, f), left=bic.rwhisk[(bic.idc[g], f)], right=bic.idc[gf]))

    # W3: whiskering is functorial in the cell
    for a in sorted(cells):
        for b in sorted(cells):
            if bic.cell_dst(a) != bic.cell_src(b):
                continue
            ba = bic.vcomp[(b, a)]
            x = bic.arrow_src(bic.cell_src(a))
            y = bic.arrow_dst(bic.cell_src(a))
            for g in sorted(arrows):
                if bic.arrow_src(g) != y:
                    continue
                lhs = bic.vcomp[(bic.lwhisk[(g, b)], bic.lwhisk[(g, a)])]
                if lhs != bic.lwhisk[(g, ba)]:
                    add(Violation("W3", (g, b, a), left=lhs, right=bic.lwhisk[(g, ba)]))
            for f in sorted(arrows):
                if bic.arrow_dst(f) != x:
                    continue
                lhs = bic.vcomp[(bic.rwhisk[(b, f)], bic.rwhisk[(a, f)])]
                if lhs != bic.rwhisk[(ba, f)]:
                    add(Violation("W3", (b, a, f), left=lhs, right=bic.rwhisk[(ba, f)]))

    if any(v.axiom in ("W1", "W2", "W3") for v in out):
        return ValidationReport(tuple(out))

    # H2: interchange for the derived horizontal composition
    for a in sorted(cells):  # a: f1 => f2
        f1, f2 = cells[a]
        y = bic.arrow_dst(f1)
        for c in sorted(cells):  # c: f2 => f3
            if bic.cell_src(c) != f2:
                continue
            for b in sorted(cells):  # b: g1 => g2
                g1, g2 = cells[b]
                if bic.arrow_src(g1) != y:
                    continue
                for d in sorted(cells):  # d: g2 => g3
                    if bic.cell_src(d) != g2:
                        continue
                    lhs = bic.vcomp[(bic.hcomp2(d, c), bic.hcomp2(b, a))]
                    rhs = bic.hcomp2(bic.vcomp[(d, b)], bic.vcomp[(c, a)])
                    if lhs != rhs:
                        add(Violation("H2", (d, c, b, a), left=lhs, right=rhs))

    # unitors: typing, invertibility, naturality
    for f in sorted(arrows):
        x, y = arrows[f]
        lam = bic.lunitor.get(f)
        rho = bic.runitor.get(f)
        fid = bic.hcomp1[(f, bic.id1[x])]
        idf = bic.hcomp1[(bic.id1[y], f)]
        if lam is None or lam not in cells:
            add(Violation("unitor-missing", (f, "lambda")))
        elif cells[lam] != (fid, f):
            add(Violation("unitor-typing", (f, "lambda"), left=lam))
        elif not bic.is_invertible(lam):
            add(Violation("unitor-invertible", (f, "lambda"), left=lam))
        if rho is None or rho not in cells:
            add(Violation("unitor-missing", (f, "rho")))
        elif cells[rho] != (idf, f):
            add(Violation("unitor-typing", (f, "rho"), left=rho))
        elif not bic.is_invertible(rho):
            add(Violation("unitor-invertible", (f, "rho"), left=rho))
    if any(v.axiom.startswith("unitor") for v in out):
        return ValidationReport(tuple(out))
    for a in sorted(cells):
        f, g = cells[a]
        x, y = arrows[f]
        lhs = bic.vcomp[(bic.lunitor[g], bic.rwhisk[(a, bic.id1[x])])]
        rhs = bic.vcomp[(a, bic.lunitor[f])]
        if lhs != rhs:
            add(Violation("Nlambda", (a,), left=lhs, right=rhs))
        lhs = bic.vcomp[(bic.runitor[g], bic.lwhisk[(bic.id1[y], a)])]
        rhs = bic.vcomp[(a, bic.runitor[f])]
        if lhs != rhs:
            add(Violation("Nrho", (a,), left=lhs, right=rhs))

    # associator: typing, invertibility, naturality, pentagon, triangle
    for h, g, f in composable_arrow_triples(bic):
        th = bic.assoc.get((h, g, f))
        src = bic.hcomp1[(h, bic.hcomp1[(g, f)])]
        dst = bic.hcomp1[(bic.hcomp1[(h, g)], f)]
        if th is None or th not in cells:
            add(Violation("assoc-missing", (h, g, f)))
        elif cells[th] != (src, dst):
            add(Violation("assoc-typing", (h, g, f), left=th))
        elif not bic.is_invertible(th):
            add(Violation("assoc-invertible", (h, g, f), left=th))
    if any(v.axiom.startswith("assoc") for v in out):
        return ValidationReport(tuple(out))

    for a in sorted(cells):
        f1, f2 = cells[a]
        y = bic.arrow_dst(f1)
        for g in sorted(arrows):
            if bic.arrow_src(g) != y:
                continue
            for h in sorted(arrows):
                if not bic.composable1(h, g):
                    continue
                lhs = bic.vcomp[(bic.assoc[(h, g, f2)], bic.lwhisk[(h, bic.lwhisk[(g, a)])])]
                rhs = bic.vcomp[(bic.lwhisk[(bic.hcomp1[(h, g)], a)], bic.assoc[(h, g, f1)])]
                if lhs != rhs:
                    add(Violation("Ntheta1", (h, g, a), left=lhs, right=rhs))
    for b in sorted(cells):
        g1, g2 = cells[b]
        for f in sorted(arrows):
            if bic.arrow_dst(f) != bic.arrow_src(g1):
                continue
            for h in sorted(arrows):
                if bic.arrow_src(h) != bic.arrow_dst(g1):
                    continue
                lhs = bic.vcomp[(bic.assoc[(h, g2, f)], bic.lwhisk[(h, bic.rwhisk[(b, f)])])]
                rhs = bic.vcomp[(bic.rwhisk[(bic.lwhisk[(h, b)], f)], bic.assoc[(h, g1, f)])]
                if lhs != rhs:
                    add(Violation("Ntheta2", (h, b, f), left=lhs, right=rhs))
    for c in sorted(cells):
        h1, h2 = cells[c]
        for g in sorted(arrows):
            if bic.arrow_dst(g) != bic.arrow_src(h1):
                continue
            for f in sorted(arrows):
                if not bic.composable1(g, f):
                    continue
                gf = bic.hcomp1[(g, f)]
                lhs = bic.vcomp[(bic.assoc[(h2, g, f)], bic.rwhisk[(c, gf)])]
                rhs = bic.vcomp[(bic.rwhisk[(bic.rwhisk[(c, g)], f)], bic.assoc[(h1, g, f)])]
                if lhs != rhs:
                    add(Violation("Ntheta3", (c, g, f), left=lhs, right=rhs))

    for k in sorted(arrows):
        for h, g, f in composable_arrow_triples(bic):
            if not bic.composable1(k, h):
                continue
            gf = bic.hcomp1[(g, f)]
            hg = bic.hcomp1[(h, g)]
            kh = bic.hcomp1[(k, h)]
            lhs = bic.vcomp[(bic.assoc[(kh, g, f)], bic.assoc[(k, h, gf)])]
            rhs = bic.vcomp[
                (
                    bic.rwhisk[(bic.assoc[(k, h, g)], f)],
                    bic.vcomp[(bic.assoc[(k, hg, f)], bic.lwhisk[(k, bic.assoc[(h, g, f)])])],
                )
            ]
            if lhs != rhs:
                add(Violation("pentagon", (k, h, g, f), left=lhs, right=rhs))

    for g, f in composable_arrow_pairs(bic):
        y = bic.arrow_dst(f)
        lhs = bic.vcomp[(bic.rwhisk[(bic.lunitor[g], f)], bic.assoc[(g, bic.id1[y], f)])]
        rhs = bic.lwhisk[(g, bic.runitor[f])]
        if lhs != rhs:
            add(Violation("triangle", (g, f), left=lhs, right=rhs))

    # strictness, when claimed
    if bic.strict:
        for f in sorted(arrows):
            x, y = arrows[f]
            if bic.hcomp1[(f, bic.id1[x])] != f or bic.hcomp1[(bic.id1[y], f)] != f:
                add(Violation("strict-unital", (f,)))
            if bic.lunitor[f] != bic.idc[f] or bic.runitor[f] != bic.idc[f]:
                add(Violation("strict-unitors", (f,)))
        for h, g, f in composable_arrow_triples(bic):
            if bic.hcomp1[(h, bic.hcomp1[(g, f)])] != bic.hcomp1[(bic.hcomp1[(h, g)], f)]:
                add(Violation("strict-assoc", (h, g, f)))
            elif bic.assoc[(h, g, f)] not in bic._identity_cells:
                add(Violation("strict-assoc-cell", (h, g, f)))

    return ValidationReport(tuple(out))
