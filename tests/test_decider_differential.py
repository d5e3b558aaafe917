"""The equality decider against the verbatim copy, in
``tests/reference_scans.py``, of the one that paired each rule with its law
at every step and wrote each adjacent-pair scan out in full.

The queries are ho-decide's kinds (k^-1 k against the identity, z k against
k, free pairs) plus k against itself, a W1 square between two sequences and a
homotopy next to one over the inverse cylinder.  Sequences have 1-16 terms
drawn from the cells on an arrow and from sampled homotopies with their post,
pre, invert, lwhisk and rwhisk transforms.  The tables are generated Z/2
tables, one whose cells on an arrow form the non-commutative group S3 (so
merge order shows), the split idempotent with Z/2 cells (so the mediator
check of cylinder-cancel shows), and the grpd gluing-lemma instance.  Both
deciders must give equal normal forms, equal steps (side, rule, law, detail)
in equal order and equal verdict JSON, at budgets 8, 2 and 1.  Across the
corpus every rule must fire, so a law swapped between two rules shows.
"""
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from bench import families
from bicatkit import ho
from bicatkit.homotopy import (
    Cylinder,
    Homotopy,
    ICell,
    compose_lemma,
    inverse_cylinder,
    transform_homotopy,
)
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests import reference_scans as ref
from tests.test_acceptance import KNOWN_RULES
from tests.tables import grpd_lemma_instance, split_z2_doc

BUDGETS = (8, 2, 1)
QUERIES_PER_KIND = 20


def _s3_doc() -> str:
    """One arrow f : X -> Y whose cells form S3 under vertical composition."""
    perms = list(itertools.permutations(range(3)))
    ident = perms[0]
    name = {p: "id_f" if p == ident else f"c{i}" for i, p in enumerate(perms)}
    lines = ["strict true", "objects: X Y", "arrows:", "  f : X -> Y", "cells:"]
    lines += [f"  {name[p]} : f => f" for p in perms if p != ident]
    lines.append("vcomp:")
    for p, q in itertools.product(perms, repeat=2):
        if ident not in (p, q):
            pq = tuple(p[q[i]] for i in range(3))
            lines.append(f"  {name[p]} . {name[q]} = {name[pq]}")
    lines.append("sigma: f")
    return "\n".join(lines) + "\n"


def _sigma(table: tuple):
    if table == ("split_z2",):
        pres = load_presentation_with_sigma(split_z2_doc(), "split_z2")
    elif table == ("s3",):
        pres = load_presentation_with_sigma(_s3_doc(), "s3")
    else:
        family, n, seed = table
        doc = families.generate(family, n, seed, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
    return make_sigma(pres.bicategory, pres.sigma_names)


def _terms(sigma, cap: int) -> dict[str, list]:
    """Every cell on f and every sampled homotopy f => f with its transforms,
    as ho-decide draws them, so any list of terms on f chains."""
    bic = sigma.bic
    terms = {f: [ICell(bic, c) for c in bic.cells_between(f, f)] for f in bic.arrows}
    for h in ho.sample_homotopies(sigma, cap=cap):
        if h.f != h.g:
            continue
        mu = bic.cells_between(h.g, h.g)[-1]
        nu = bic.cells_between(h.f, h.f)[-1]
        terms[h.f] += [
            h,
            transform_homotopy("post", mu, h),
            transform_homotopy("pre", nu, h),
            transform_homotopy("invert", "", h),
        ]
        for r in sorted(bic.arrows):
            if bic.arrow_src(r) == bic.arrow_dst(h.f):
                t = transform_homotopy("lwhisk", r, h)
                terms[t.f].append(t)
            if bic.arrow_dst(r) == bic.arrow_src(h.f):
                t = transform_homotopy("rwhisk", r, h)
                terms[t.f].append(t)
    return terms


def _queries(sigma, terms: dict[str, list], rng: random.Random):
    bic = sigma.bic
    arrows = sorted(f for f in bic.arrows if len(terms[f]) > 1)
    homs = {f: [t for t in terms[f] if isinstance(t, Homotopy)] for f in arrows}
    squares = [
        (f, g)
        for f, g in itertools.product(arrows, repeat=2)
        if (g, f) in bic.hcomp1 and homs[f] and homs[g]
    ]
    over: dict[tuple[str, Cylinder], list] = {}
    for f in arrows:
        for t in homs[f]:
            over.setdefault((f, t.cyl), []).append(t)
    cancels = [t for f in arrows for t in homs[f] if (f, inverse_cylinder(t.cyl)) in over]

    def seq(f: str, lo: int = 1):
        picks = [rng.choice(terms[f]) for _ in range(rng.randint(lo, 16))]
        return ho.ho_cell(sigma, picks, f, f)

    for _ in range(QUERIES_PER_KIND):
        f = rng.choice(arrows)
        k = seq(f)
        yield ho.ho_vcomp(ho.ho_inverse(k), k), ho.ho_identity(sigma, f)
        z = bic.cells_between(f, f)[-1]
        yield ho.ho_vcomp(ho.i_cell(sigma, z), k), k
        yield seq(f), seq(f)
        yield k, k
        # a W1 square K*f, g*H between two sequences on g f
        if squares:
            f, g = rng.choice(squares)
            gf = bic.hcomp1[(g, f)]
            square = ho.ho_cell(sigma, (
                transform_homotopy("rwhisk", f, rng.choice(homs[g])),
                transform_homotopy("lwhisk", g, rng.choice(homs[f])),
            ))
            yield ho.ho_vcomp(seq(gf, 0), ho.ho_vcomp(square, seq(gf, 0))), seq(gf)
        # a homotopy next to one over the inverse cylinder, with any mediator
        if cancels:
            t = rng.choice(cancels)
            pair = (t, rng.choice(over[t.f, inverse_cylinder(t.cyl)]))
            yield ho.ho_cell(sigma, pair), ho.ho_identity(sigma, t.f)


def _steps(trace) -> list[tuple[str, str, str, str]]:
    """Each step with its law, which the JSON leaves out and the reference
    pairs with its rule by hand."""
    return [(s.side, s.rule, s.law, s.detail) for s in trace]


def _assert_same(k1, k2, fired: Counter) -> None:
    for budget in BUDGETS:
        for k in (k1, k2):
            new_trace: list = []
            old_trace: list = []
            new = ho._normalize_side(k, "left", new_trace, budget)
            old = ref._normalize_side(k, "left", old_trace, budget)
            assert new == old
            assert _steps(new_trace) == _steps(old_trace)
            fired.update(s.rule for s in new_trace)
        got = ho.ho_eq(k1, k2, None, budget)
        want = ref.ho_eq(k1, k2, None, budget)
        assert got.to_json() == want.to_json()
        assert _steps(got.trace) == _steps(want.trace)
        fired.update(s.rule for s in got.trace)


def test_decider_matches_reference_on_the_corpus(grpd):
    fired: Counter = Counter()
    tables = [
        (family, n, seed)
        for family, n in (("chaotic_z2", 3), ("chain_z2", 4), ("chaotic_z2", 2))
        for seed in (1, 2, 3)
    ] + [("s3",), ("split_z2",)]
    for table in tables:
        sigma = _sigma(table)
        rng = random.Random(f"{table}:decider")
        for k1, k2 in _queries(sigma, _terms(sigma, cap=2000), rng):
            _assert_same(k1, k2, fired)

    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    k = ho.ho_cell(sigma, (compose_lemma(sigma, h1, h2, glue),))
    parts = ho.ho_vcomp(ho.ho_cell(sigma, (h2,)), ho.ho_cell(sigma, (h1,)))
    assert ho.ho_eq(k, parts, None, 8).is_equal
    _assert_same(k, parts, fired)
    _assert_same(ho.ho_vcomp(ho.ho_inverse(k), k), ho.ho_identity(sigma, k.f), fired)

    assert set(fired) == set(ho.LAWS)


def test_corpus_draws_on_a_table_without_w1_squares():
    """chain_z2(4) at seed 1, sampled at cap 200, has no composable pair of
    arrows that both carry a sampled homotopy: the W1-square draw is left
    out and every other kind is still drawn and compared."""
    sigma = _sigma(("chain_z2", 4, 1))
    rng = random.Random("no-squares:decider")
    queries = list(_queries(sigma, _terms(sigma, cap=200), rng))
    assert len(queries) == 5 * QUERIES_PER_KIND
    fired: Counter = Counter()
    for k1, k2 in queries:
        _assert_same(k1, k2, fired)
    assert "w1-exchange" not in fired


def test_laws_are_the_known_rules_and_the_benchmark_counters():
    assert set(ho.LAWS) == KNOWN_RULES
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    counters = {
        m["name"].removeprefix("ho.rule.")
        for m in bench["per_layer"]
        if m["name"].startswith("ho.rule.")
    }
    assert counters == set(ho.LAWS)
