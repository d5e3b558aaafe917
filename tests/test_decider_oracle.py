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
and, with only identity arrows marked, one arrow whose cells form S3 and the
split idempotent with Z/2 cells.  On S3 a merge in the wrong order or a
split transform taken apart in the wrong order claims ``Equal`` for a
sequence against the hat of its reversed terms, or for a transform against
its parts in the other order.  The test also bounds how complete the
rewrites are: the share of hat-equal pairs that they prove ``Equal``.
"""
import itertools
import random
from collections import Counter

from bench import families
from bicatkit import ho
from bicatkit.homotopy import Homotopy, ICell, inverse_cylinder, transform_homotopy
from bicatkit.library import BICATEGORIES, default_probe_targets, load_fixture
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests.tables import split_z2_doc
from tests.test_decider_differential import _s3_doc, _terms

QUERIES_PER_KIND = 12


def _corpus():
    for family, n in itertools.product(families.FAMILIES, (2, 3, 4)):
        doc = families.generate(family, n, 1, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
        yield f"{family}({n})", make_sigma(pres.bicategory, pres.sigma_names)
    bic = load_presentation_with_sigma(
        families.generate("chaotic_z2", 3, 1, marked=True).text(), "chaotic_z2"
    ).bicategory
    yield "some-marked", make_sigma(bic, sorted(set(bic.arrows) - set(bic.id1.values()))[::2])
    for name, doc in (("s3", _s3_doc()), ("split_z2", split_z2_doc())):
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


def test_verdicts_agree_with_source_hats_in_the_regime():
    seen: Counter = Counter()
    for name, sigma in _corpus():
        if not ho.identity_is_admissible(sigma):
            seen["outside"] += 1
            continue
        probes = ho.enumerate_probes(sigma, default_probe_targets(sigma))
        by_name = {fun.name: fun for fun in probes.probes}
        for k1, k2 in _queries(sigma, random.Random(f"{name}:oracle")):
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
            seen["syntactic" if k1.terms == k2.terms else "rewritten", same, rewritten.verdict] += 1
            seen[verdict.verdict] += 1
    assert seen["outside"] == 1  # split
    assert seen["distinct"] > 0 and seen["rewritten", False, "unknown"] > 0
    # the rewrites prove 1,577 of the 1,946 hat-equal pairs they are given
    proved = seen["rewritten", True, "equal"]
    assert 0.75 < proved / (proved + seen["rewritten", True, "unknown"]) < 0.85
