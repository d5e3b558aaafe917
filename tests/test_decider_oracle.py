"""The decider against the truth, not against older code.

When every marked arrow is a quasiequivalence in the source
(``ho.identity_is_admissible``), every admissible probe F sends a class k to
F of its source hat, and the identity 2-functor is an admissible probe; so
two classes are equal in Ho(C, Sigma) exactly when their source hats are
equal.  On every corpus table in that regime, seeded queries check that:

* every ``Equal`` reached by the rewrites alone (no probes) has equal source
  hats, which tests each rewrite law's soundness;
* every ``Distinct`` names a probe whose values on the two sides, each
  ``ho.f_hat_chain`` of the side's terms solved in the probe's target, differ
  and are the reported values, and the source hats differ.

The corpus is the four generated families at n = 2-4, chaotic(3)xZ/2 with
every other non-identity arrow marked, the bundled fixtures in the regime,
and, with only identity arrows marked, one arrow whose cells form S3, the
split idempotent with Z/2 cells, and the two-mediator table (see
``_mediators_doc``).  On S3 a merge in the wrong order or a split transform
taken apart in the wrong order claims ``Equal`` for a sequence against the
hat of its reversed terms, or for a transform against its parts in the
other order.  The test also bounds how complete the rewrites are: the share
of hat-equal pairs that they prove ``Equal``.

Those queries only see homotopies f => f, so the laws that read a
homotopy's two ends get their own queries, counted apart (``_law_queries``).
On the two-mediator table a ``cylinder-cancel`` that did not compare the
mediators, or a ``w1-exchange`` that whiskered by the other ends, claims
``Equal`` for sides with different hats.
"""
import itertools
import random
from collections import Counter

from bench import families
from bicatkit import ho
from bicatkit.homotopy import (
    Homotopy,
    ICell,
    cylinder_homotopy,
    inverse_cylinder,
    make_cylinder,
    make_homotopy,
    transform_homotopy,
)
from bicatkit.library import BICATEGORIES, default_probe_targets, load_fixture
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests.tables import split_z2_doc
from tests.test_decider_differential import _s3_doc, _terms

QUERIES_PER_KIND = 12


def _mediators_doc() -> str:
    """Parallel d0, d1 : X -> W joined by an invertible cell c, mediators h,
    h2 : W -> Y joined by an invertible cell b, and h.d0 = h.d1 = h2.d0 =
    h2.d1 = u, whose cells form S3 (named by the permutations they are).
    Whiskering sends c to 012 under h and 102 under h2, and b to 021 on d0
    and 120 on d1, which interchange needs: 120 . 012 = 102 . 021.  So the
    two mediators' whiskers of c differ, and h2 * c does not commute with
    b * d0."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "id_u" if p == perms[0] else "u" + "".join(map(str, p)) for p in perms}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        return tuple(sorted(range(3), key=p.__getitem__))

    arrows = {"d0": ("X", "W"), "d1": ("X", "W"), "h": ("W", "Y"), "h2": ("W", "Y"), "u": ("X", "Y")}
    compose = {(m, d): "u" for m in ("h", "h2") for d in ("d0", "d1")}
    # the corpus marks the identities instead
    doc = families.Doc("mediators", ["X", "W", "Y"], arrows, compose, sigma=["u"])
    doc.cells = {"c": ("d0", "d1"), "ci": ("d1", "d0"), "b": ("h", "h2"), "bi": ("h2", "h")}
    doc.cells |= {name[p]: ("u", "u") for p in perms[1:]}
    doc.vcomp = {("ci", "c"): "id_d0", ("c", "ci"): "id_d1", ("bi", "b"): "id_h", ("b", "bi"): "id_h2"}
    doc.vcomp |= {
        (name[p], name[q]): name[mul(p, q)]
        for p, q in itertools.product(perms[1:], repeat=2)
    }
    c_under = {"h": (0, 1, 2), "h2": (1, 0, 2)}  # m * c
    b_on = {"d0": (0, 2, 1), "d1": (1, 2, 0)}  # b * d
    doc.lwhisk = {(m, "c"): name[p] for m, p in c_under.items()}
    doc.lwhisk |= {(m, "ci"): name[inv(p)] for m, p in c_under.items()}
    doc.rwhisk = {("b", d): name[p] for d, p in b_on.items()}
    doc.rwhisk |= {("bi", d): name[inv(p)] for d, p in b_on.items()}
    return doc.text()


def _corpus():
    for family, n in itertools.product(families.FAMILIES, (2, 3, 4)):
        doc = families.generate(family, n, 1, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
        yield f"{family}({n})", make_sigma(pres.bicategory, pres.sigma_names)
    bic = load_presentation_with_sigma(
        families.generate("chaotic_z2", 3, 1, marked=True).text(), "chaotic_z2"
    ).bicategory
    yield "some-marked", make_sigma(bic, sorted(set(bic.arrows) - set(bic.id1.values()))[::2])
    for name, doc in (
        ("s3", _s3_doc()), ("split_z2", split_z2_doc()), ("mediators", _mediators_doc())
    ):
        bic = load_presentation_with_sigma(doc, name).bicategory
        yield name, make_sigma(bic, sorted(bic.id1.values()))
    for name in BICATEGORIES:
        pres = load_fixture(name)
        yield name, make_sigma(pres.bicategory, pres.sigma_names)


def _queries(sigma, rng: random.Random):
    """ho-decide's kinds (k^-1 k against the identity, z k against k, free
    pairs); k and a sequence of cells, each against its hat and against the
    hat of its terms reversed; a post and a pre transform against their two
    parts in either order; a W1 square between two sequences where the table
    has one; and a homotopy next to one over the inverse cylinder, with any
    mediator."""
    bic = sigma.bic
    terms = _terms(sigma, cap=200)
    arrows = sorted(f for f in bic.arrows if len(terms[f]) > 1)
    homs = {f: [t for t in terms[f] if isinstance(t, Homotopy)] for f in arrows}
    squares = [
        (f, g)
        for f, g in itertools.product(arrows, repeat=2)
        if (g, f) in bic.hcomp1 and homs[f] and homs[g]
    ]
    over: dict = {}
    for f in arrows:
        for t in homs[f]:
            over.setdefault((f, t.cyl), []).append(t)
    cancels = [t for f in arrows for t in homs[f] if (f, inverse_cylinder(t.cyl)) in over]

    def seq(f: str, lo: int = 1):
        return ho.ho_cell(sigma, [rng.choice(terms[f]) for _ in range(rng.randint(lo, 12))], f, f)

    def cell(k):
        return ho.i_cell(sigma, ho.source_hat(k))

    for _ in range(QUERIES_PER_KIND if arrows else 0):
        f = rng.choice(arrows)
        k = seq(f)
        yield ho.ho_vcomp(ho.ho_inverse(k), k), ho.ho_identity(sigma, f)
        yield ho.ho_vcomp(ho.i_cell(sigma, bic.cells_between(f, f)[-1]), k), k
        yield seq(f), seq(f)
        # k and a sequence of cells against their hats, and against the hats
        # of their terms in reverse order
        cells = ho.ho_cell(sigma, [ICell(bic, rng.choice(bic.cells_between(f, f))) for _ in k.terms])
        for k in (k, cells):
            yield k, cell(k)
            yield k, cell(ho.ho_cell(sigma, k.terms[::-1]))
        # a split transform against its two parts, in both orders
        if homs[f]:
            h, mu = rng.choice(homs[f]), rng.choice(bic.cells_between(f, f))
            parts = ho.ho_cell(sigma, (h,)), ho.i_cell(sigma, mu)
            for kind in ("post", "pre"):
                whole = ho.ho_cell(sigma, (transform_homotopy(kind, mu, h),))
                yield whole, ho.ho_vcomp(*parts)
                yield whole, ho.ho_vcomp(*parts[::-1])
        if squares:
            f, g = rng.choice(squares)
            gf = bic.hcomp1[(g, f)]
            square = ho.ho_cell(sigma, (
                transform_homotopy("rwhisk", f, rng.choice(homs[g])),
                transform_homotopy("lwhisk", g, rng.choice(homs[f])),
            ))
            yield ho.ho_vcomp(seq(gf, 0), ho.ho_vcomp(square, seq(gf, 0))), seq(gf)
        if cancels:
            t = rng.choice(cancels)
            pair = (t, rng.choice(over[t.f, inverse_cylinder(t.cyl)]))
            yield ho.ho_cell(sigma, pair), ho.ho_identity(sigma, t.f)


def _cylinders(sigma):
    """Every cylinder on two different parallel arrows."""
    bic = sigma.bic
    for d0 in sorted(bic.arrows):
        x, w = bic.arrows[d0]
        for d1, s in itertools.product(bic.arrows_between(x, w), sorted(sigma.members)):
            if d1 == d0 or bic.arrow_src(s) != w:
                continue
            for diag in bic.arrows_between(x, bic.arrow_dst(s)):
                alphas = [
                    [a for a in bic.cells_between(bic.hcomp1[s, d], diag) if bic.is_invertible(a)]
                    for d in (d0, d1)
                ]
                for a0, a1 in itertools.product(*alphas):
                    yield make_cylinder(bic, d0, d1, diag, s, a0, a1, sigma)


def _law_queries(sigma):
    """(kind, k1, k2) queries on the tautological homotopies H of the
    cylinders ``_cylinders`` lists.  "cancel": for mediators m, m2 out of
    H's cylinder with m.d0 = m2.d0 and m.d1 = m2.d1, m * H next to m2 * H
    over the inverse cylinder, against the identity, once as they are and
    once with each invertible cell mu on m.d1 and its inverse in their eps
    and eta.  For two such H: f1 => f2 and K: g1 => g2 with g1 f1
    composable, "exchange": the W1 square [K*f1, g2*H] against
    [g1*H, K*f2]; "swapped": where g1 f1 = g2 f1 = g2 f2, the square against
    its terms in the other order."""
    bic = sigma.bic
    tautological = [cylinder_homotopy(cyl) for cyl in _cylinders(sigma)]
    for hom in tautological:
        cyl, back = hom.cyl, cylinder_homotopy(inverse_cylinder(hom.cyl))
        for m, m2 in itertools.product(bic.out_arrows(cyl.w), repeat=2):
            ends = [bic.hcomp1[m, d] for d in (cyl.d0, cyl.d1)]
            if ends != [bic.hcomp1[m2, d] for d in (cyl.d0, cyl.d1)]:
                continue
            first = transform_homotopy("lwhisk", m, hom)
            second = transform_homotopy("lwhisk", m2, back)
            identity = ho.ho_identity(sigma, ends[0])
            yield "cancel", ho.ho_cell(sigma, (first, second)), identity
            for mu in bic.cells_between(ends[1], ends[1]):
                if bic.is_invertible(mu):
                    pair = (
                        make_homotopy(cyl, m, first.eta, mu),
                        make_homotopy(back.cyl, m2, bic.inverse(mu), second.eps),
                    )
                    yield "cancel", ho.ho_cell(sigma, pair), identity
    for hom, k in itertools.product(tautological, repeat=2):
        f1, f2, g1, g2 = hom.f, hom.g, k.f, k.g
        if (g1, f1) not in bic.hcomp1:
            continue
        square = ho.ho_cell(
            sigma, (transform_homotopy("rwhisk", f1, k), transform_homotopy("lwhisk", g2, hom))
        )
        terms = (transform_homotopy("lwhisk", g1, hom), transform_homotopy("rwhisk", f2, k))
        yield "exchange", square, ho.ho_cell(sigma, terms)
        if bic.hcomp1[g1, f1] == bic.hcomp1[g2, f1] == bic.hcomp1[g2, f2]:
            yield "swapped", square, ho.ho_cell(sigma, square.terms[::-1])


def test_verdicts_agree_with_source_hats_in_the_regime():
    seen: Counter = Counter()
    for name, sigma in _corpus():
        if not ho.identity_is_admissible(sigma):
            seen["outside"] += 1
            continue
        probes = ho.enumerate_probes(sigma, default_probe_targets(sigma))
        by_name = {fun.name: fun for fun in probes.probes}
        queries = [("rewritten", *q) for q in _queries(sigma, random.Random(f"{name}:oracle"))]
        queries += _law_queries(sigma)
        for kind, k1, k2 in queries:
            same = ho.source_hat(k1) == ho.source_hat(k2)
            rewritten = ho.ho_eq(k1, k2, None)
            assert same or not rewritten.is_equal, (name, str(k1), str(k2), rewritten.trace)
            verdict = ho.ho_eq(k1, k2, probes)
            if verdict.verdict == "distinct":
                fun = by_name[verdict.probe]
                values = ho.f_hat_chain(fun, k1), ho.f_hat_chain(fun, k2)
                assert values == (verdict.left_value, verdict.right_value), (name, verdict)
                assert values[0] != values[1] and not same, (name, verdict)
            else:
                assert verdict.is_equal == rewritten.is_equal and same, (name, verdict)
            seen["syntactic" if k1.terms == k2.terms else kind, same, rewritten.verdict] += 1
            seen[verdict.verdict] += 1
    assert seen["outside"] == 1  # split
    assert seen["distinct"] > 0 and seen["rewritten", False, "unknown"] > 0
    # the rewrites prove 1,649 of the 2,024 hat-equal pairs they are given
    proved = seen["rewritten", True, "equal"]
    assert 0.75 < proved / (proved + seen["rewritten", True, "unknown"]) < 0.85
    # each cancel and exchange with equal hats is proved, and some cancels
    # and swapped squares have different hats
    assert seen["cancel", True, "unknown"] == seen["exchange", True, "unknown"] == 0
    assert seen["cancel", True, "equal"] > 0 and seen["exchange", True, "equal"] > 0
    assert seen["cancel", False, "unknown"] > 0 and seen["swapped", False, "unknown"] > 0
