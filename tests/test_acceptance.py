"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact (table-cell equality); the only tolerances are the
stated wall-clock budgets.
"""
import json
import random
import time

import pytest

from bicatkit.core import Bicategory, validate_bicategory
from bicatkit.elevator import evaluate, expr_equal, make_expr, normalize
from bicatkit.homotopy import (
    ComposeGlue,
    ICell,
    LemmaHypothesisError,
    compose_lemma,
    cylinder_homotopy,
    f_hat,
    hat,
    identity_cylinder,
    inverse_cylinder,
    make_cylinder,
    mu_homotopies,
    transform_homotopy,
)
from bicatkit.ho import (
    enumerate_2functors,
    enumerate_probes,
    extend_2functor,
    f_hat_chain,
    ho_cell,
    ho_eq,
    ho_identity,
    ho_inverse,
    ho_vcomp,
    hocell_from_json,
    i_cell,
    sample_homotopies,
)
from bicatkit.library import load_fixture, load_fixture_bicategory
from bicatkit.localize import localize, replay_certificate
from bicatkit.presentation import load_pseudofunctor
from bicatkit.sigma import is_quasiequivalence, make_sigma

from tests.reference_scans import factorize
from tests.test_elevator import GRPD_COMPUTAD, cyclic_model, glayers, saturating_model
from tests.test_ho import forced_solutions
from tests.tables import grpd_lemma_instance, rebuild

KNOWN_RULES = {
    "syntactic",
    "lemma-expand",
    "post-split",
    "pre-split",
    "w1-exchange",
    "decompose",
    "icell-identity",
    "icell-merge",
    "cylinder-cancel",
    "cylinder-identity",
}


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- criterion 1 -------------------------------------------------------------


def _mutations(bic: Bicategory, rng: random.Random):
    """Endless stream of single-entry mutations (redirect or delete)."""
    cells = sorted(bic.cells)
    arrows = sorted(bic.arrows)
    tables = [
        ("hcomp1", sorted(bic.hcomp1), arrows),
        ("vcomp", sorted(bic.vcomp), cells),
        ("lwhisk", sorted(bic.lwhisk), cells),
        ("rwhisk", sorted(bic.rwhisk), cells),
        ("lunitor", sorted(bic.lunitor), cells),
        ("runitor", sorted(bic.runitor), cells),
        ("assoc", sorted(bic.assoc), cells),
        ("idc", sorted(bic.idc), cells),
        ("id1", sorted(bic.id1), arrows),
    ]
    while True:
        name, keys, pool = rng.choice(tables)
        key = rng.choice(keys)
        table = dict(getattr(bic, name))
        alternatives = [v for v in pool if v != table[key]]
        if alternatives and rng.random() < 0.7:
            table[key] = rng.choice(alternatives)
            yield rebuild(bic, **{name: table}), f"{name}[{key}] redirected"
        elif name not in ("idc", "id1"):  # identity pointers cannot be deleted
            del table[key]
            yield rebuild(bic, **{name: table}), f"{name}[{key}] deleted"


def test_acceptance_1_axiom_suite_and_mutations():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for name in ("triv", "split", "iso", "grpd"):
        bic = load_fixture_bicategory(name)
        assert validate_bicategory(bic).ok, name
        found = 0
        stream = _mutations(bic, rng)
        for attempt in range(600):
            mutant, _desc = next(stream)
            rep = validate_bicategory(mutant)
            if rep.ok:
                continue  # a lucky redirect can be another valid bicategory
            assert all(v.axiom for v in rep.violations)
            found += 1
            checked += 1
            if found == 50:
                break
        assert found == 50, f"{name}: only {found} violating mutations found"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"4 fixtures validate; {checked} mutations each flagged ({elapsed:.2f}s)")


# -- criterion 2 -------------------------------------------------------------


def test_acceptance_2_elevator_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(99)
    orders = [2, 3, 5, rng.choice([4, 6, 7])]
    models = [cyclic_model(k, f"z{k}") for k in orders] + [saturating_model(7, "sat7")]
    assert len(models) >= 5
    for bic, _ in models:
        assert validate_bicategory(bic).ok
    pairs = 0
    for _ in range(1000):
        e1 = make_expr(GRPD_COMPUTAD, glayers(rng.randint(0, 6)), (), "P")
        e2 = make_expr(GRPD_COMPUTAD, glayers(rng.randint(0, 6)), (), "P")
        assert normalize(normalize(e1).expr) == normalize(e1)
        assert normalize(normalize(e2).expr) == normalize(e2)
        eq = expr_equal(e1, e2)
        model_eq = all(
            evaluate(assign, e1) == evaluate(assign, e2) for _, assign in models
        )
        assert eq == model_eq
        pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, f"{pairs} expression pairs agree with {len(models)} models ({elapsed:.2f}s)")


# -- criterion 3 -------------------------------------------------------------


def _all_cylinders(bic: Bicategory, marked=None):
    for d0 in sorted(bic.arrows):
        x, w = bic.arrows[d0]
        for d1 in bic.arrows_between(x, w):
            for s in sorted(bic.arrows) if marked is None else sorted(marked):
                if bic.arrow_src(s) != w:
                    continue
                z = bic.arrow_dst(s)
                for diag in bic.arrows_between(x, z):
                    for a0 in bic.cells_between(bic.hcomp1[(s, d0)], diag):
                        if not bic.is_invertible(a0):
                            continue
                        for a1 in bic.cells_between(bic.hcomp1[(s, d1)], diag):
                            if not bic.is_invertible(a1):
                                continue
                            yield make_cylinder(bic, d0, d1, diag, s, a0, a1)


def test_acceptance_3_hat_laws():
    iso = load_fixture_bicategory("iso")
    from bicatkit.library import load_chain_pseudofunctor

    chain_f = load_chain_pseudofunctor()
    cf_chain, _, _ = factorize(chain_f)
    split = load_fixture_bicategory("split")
    collapse = load_pseudofunctor(
        "map_obj:\n  X -> A\n  Y -> B\nmap_arr:\n  s -> u\n  r -> v\n  e -> id_B\n",
        split,
        iso,
        name="collapse",
    )
    cf_collapse, _, _ = factorize(collapse)
    total = 0
    for bic in (iso, cf_chain, cf_collapse):
        assert validate_bicategory(bic).ok
        qtheta = [f for f in bic.arrows if is_quasiequivalence(bic, f)]
        for cyl in _all_cylinders(bic, marked=qtheta):
            c_hat = hat(bic, cyl)
            assert bic.whisker_l(cyl.s, c_hat) == cyl.alpha_tilde()
            assert hat(bic, cylinder_homotopy(cyl)) == c_hat
            total += 1
        for obj in bic.objects:
            cx = identity_cylinder(bic, obj)
            assert hat(bic, cx) == bic.idc[bic.id1[obj]]
    assert total > 0
    report(3, f"hat equations hold on {total} cylinders over 3 bicategories")


# -- criterion 4 -------------------------------------------------------------


def test_acceptance_4_cell_induced_homotopies():
    grpd = load_fixture_bicategory("grpd")
    sigma = make_sigma(grpd, ())
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso", "split")]
    probes = enumerate_probes(sigma, targets, include_self=True)
    assert probes.probes
    checked = 0
    for mu in sorted(grpd.cells):
        h0, h1 = mu_homotopies(grpd, mu)
        for fun in probes.probes:
            assert f_hat(fun, h0) == fun.cell_map[mu]
            assert f_hat(fun, h1) == fun.cell_map[mu]
            checked += 1
    report(4, f"cell-induced homotopies hat to the image cell ({checked} checks)")


# -- criterion 5 -------------------------------------------------------------


def _probe_family(sigma):
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso", "grpd", "split")]
    targets = [t for t in targets if t.name != sigma.bic.name]
    return enumerate_probes(sigma, targets, include_self=True)


def test_acceptance_5_whisker_and_compose_laws():
    from bicatkit.core import comp_sub_f
    from bicatkit.library import load_chain_pseudofunctor

    cases = []
    for name, marked in (("split", ("s", "r", "e")), ("grpd", ()), ("iso", ("u", "v"))):
        pres = load_fixture(name)
        sigma = make_sigma(pres.bicategory, marked)
        cases.append((sigma, list(_probe_family(sigma).probes)))
    chain_f = load_chain_pseudofunctor()
    chain_sigma = make_sigma(chain_f.source, ())
    cases.append((chain_sigma, [chain_f]))

    homotopies = 0
    checks = 0
    for sigma, funs in cases:
        bic = sigma.bic
        sample = sample_homotopies(sigma, cap=70)
        homotopies += len(sample)
        assert homotopies <= 400
        for hom in sample:
            for fun in funs:
                tgt = fun.target
                base = f_hat(fun, hom)
                for mu in bic.cells_between(hom.g, hom.g):
                    got = f_hat(fun, transform_homotopy("post", mu, hom))
                    assert got == tgt.vertical(fun.cell_map[mu], base)
                    checks += 1
                for nu in bic.cells_between(hom.f, hom.f):
                    got = f_hat(fun, transform_homotopy("pre", nu, hom))
                    assert got == tgt.vertical(base, fun.cell_map[nu])
                    checks += 1
                for r in sorted(bic.arrows):
                    if bic.arrow_src(r) == bic.arrow_dst(hom.f):
                        got = f_hat(fun, transform_homotopy("lwhisk", r, hom))
                        want = comp_sub_f(
                            fun, tgt.idc[fun.arr_map[r]], base, r, hom.f, r, hom.g
                        )
                        assert got == want
                        checks += 1
                    if bic.arrow_dst(r) == bic.arrow_src(hom.f):
                        got = f_hat(fun, transform_homotopy("rwhisk", r, hom))
                        want = comp_sub_f(
                            fun, base, tgt.idc[fun.arr_map[r]], hom.f, r, hom.g, r
                        )
                        assert got == want
                        checks += 1
    report(5, f"four transform laws exact on {homotopies} homotopies ({checks} checks)")


# -- criterion 6 -------------------------------------------------------------


def test_acceptance_6_invertibility_with_traces():
    confirmed = 0
    for name, marked in (("split", ("s", "r", "e")), ("grpd", ()), ("iso", ("u", "v"))):
        pres = load_fixture(name)
        sigma = make_sigma(pres.bicategory, marked)
        probes = _probe_family(sigma)
        seen = set()
        for hom in sample_homotopies(sigma, cap=70):
            cyl = hom.cyl
            if cyl not in seen:
                seen.add(cyl)
                k = ho_cell(sigma, (cylinder_homotopy(cyl),))
                kinv = ho_cell(sigma, (cylinder_homotopy(inverse_cylinder(cyl)),))
                for pair, unit in (
                    (ho_vcomp(kinv, k), k.f),  # k first, then its inverse
                    (ho_vcomp(k, kinv), k.g),
                ):
                    v = ho_eq(pair, ho_identity(sigma, unit), probes)
                    assert v.is_equal
                    rules = {s.rule for s in v.trace}
                    assert rules <= KNOWN_RULES
                    assert rules & {"cylinder-cancel", "cylinder-identity", "syntactic"}
                    confirmed += 1
            if hom.invertible_cells:
                k = ho_cell(sigma, (hom,))
                kinv = ho_inverse(k)
                for pair, unit in (
                    (ho_vcomp(kinv, k), k.f),
                    (ho_vcomp(k, kinv), k.g),
                ):
                    v = ho_eq(pair, ho_identity(sigma, unit), probes)
                    assert v.is_equal
                    assert {s.rule for s in v.trace} <= KNOWN_RULES
                    confirmed += 1
    assert confirmed > 50
    report(6, f"{confirmed} inversion identities derived with cited rules")


# -- criterion 7 -------------------------------------------------------------


def test_acceptance_7_localization_end_to_end():
    pres = load_fixture("split")
    sigma = make_sigma(pres.bicategory, ("s", "r", "e"))
    probes = _probe_family(sigma)
    cert = localize(sigma, probes, max_len=2)
    assert cert.ok
    assert {e.arrow for e in cert.equivalences} == {"id_X", "id_Y", "s", "r", "e"}
    chains = {d["arrow"]: d["chain"] for d in cert.decompositions}
    assert chains["e"] == ["s", "r"] and len(chains) == 5
    side = {e.arrow: e for e in cert.equivalences}["s"].to_id_dst
    assert (side.cell.f, side.cell.g) == ("e", "id_Y")
    assert side.cancel_left.is_equal and side.cancel_right.is_equal
    ok, problems = replay_certificate(sigma, cert.to_json(), probes)
    assert ok, problems

    under = make_sigma(pres.bicategory, ("s", "r"))
    bad = localize(under, probes=None)
    assert bad.status == "three-for-two-failed"
    w = bad.three_for_two["witness"]
    assert (w["g"], w["f"], w["h"]) == ("s", "r", "e")
    report(7, "full certificate for the split fixture; under-closed class rejected")


# -- criterion 8 -------------------------------------------------------------


def test_acceptance_8_extension_theorem():
    t0 = time.monotonic()
    split = load_fixture_bicategory("split")
    sigma = make_sigma(split, ("s", "r", "e"))
    from tests.conftest import TWOCELL_DOC
    from bicatkit.presentation import load_presentation

    targets = [
        load_fixture_bicategory("triv"),
        load_fixture_bicategory("iso"),
        load_fixture_bicategory("grpd"),
        split,
        load_presentation(TWOCELL_DOC, name="twocell"),
    ]
    for t in targets:
        assert len(t.objects) <= 2 and len(t.arrows) <= 6
        assert all(
            len(t.cells_between(f, g)) <= 4
            for f in t.arrows
            for g in t.arrows_between(*t.arrows[f])
        )
    admissible = []
    for tgt in targets:
        for fun in enumerate_2functors(split, tgt):
            if all(is_quasiequivalence(tgt, fun.arr_map[s]) for s in sigma.members):
                admissible.append(fun)
    assert len(admissible) >= 8
    perturbations = 0
    for fun in admissible:
        ext = extend_2functor(fun, sigma, cap=40)
        assert ext.report.ok, fun.name
        # restriction along the projection recovers the functor on everything
        assert all(fun.obj_map[x] == fun.obj_map[x] for x in split.objects)
        for mu in split.cells:
            assert ext.value(i_cell(sigma, mu)) == fun.cell_map[mu]
        tgt = fun.target
        # every other value on a class breaks the equation that pins it
        for k in ext.materialized[:40]:
            assert forced_solutions(fun, k) == [ext.value(k)], (fun.name, str(k))
            perturbations += len(tgt.cells_between(fun.arr_map[k.f], fun.arr_map[k.g])) - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    report(
        8,
        f"{len(admissible)} 2-functors extended uniquely; "
        f"{perturbations} perturbations all break ({elapsed:.2f}s)",
    )


# -- criterion 9 -------------------------------------------------------------


def test_acceptance_9_vertical_composition_lemma():
    grpd = load_fixture("grpd")
    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    built = compose_lemma(sigma, h1, h2, glue)
    probes = _probe_family(sigma)
    lhs = ho_cell(sigma, (built,))
    rhs = ho_vcomp(ho_cell(sigma, (h2,)), ho_cell(sigma, (h1,)))
    v = ho_eq(lhs, rhs, probes)
    assert v.is_equal
    for fun in probes.probes:
        tgt = fun.target
        want = tgt.vertical(f_hat(fun, h2), f_hat(fun, h1))
        assert f_hat(fun, built) == want
    mutated = ComposeGlue(
        glue.w, glue.s, glue.h, glue.b1, glue.b2,
        glue.nu1, "g", glue.gamma1, glue.gamma2, glue.delta,
    )
    with pytest.raises(LemmaHypothesisError) as err:
        compose_lemma(sigma, h1, h2, mutated)
    assert err.value.hypothesis == 2
    report(9, "glued homotopy equals the juxtaposition; bad glue rejected")


# -- criterion 10 ------------------------------------------------------------


def test_acceptance_10_decider_soundness_audit(tmp_path):
    stored = []

    def record(sigma_name, marked, k1, k2):
        stored.append(
            {
                "fixture": sigma_name,
                "marked": list(marked),
                "k1": k1.to_json(),
                "k2": k2.to_json(),
            }
        )

    for name, marked in (("split", ("s", "r", "e")), ("grpd", ()), ("iso", ("u", "v"))):
        pres = load_fixture(name)
        sigma = make_sigma(pres.bicategory, marked)
        probes = _probe_family(sigma)
        bic = sigma.bic
        for hom in sample_homotopies(sigma, cap=40):
            k1 = ho_cell(sigma, (hom,))
            parts = (
                ICell(bic, hom.eta),
                transform_homotopy("lwhisk", hom.h, cylinder_homotopy(hom.cyl)),
                ICell(bic, hom.eps),
            )
            k2 = ho_cell(sigma, parts)
            if ho_eq(k1, k2, probes).is_equal:
                record(name, marked, k1, k2)
            if hom.invertible_cells and len(stored) < 200:
                k = ho_cell(sigma, (hom,))
                kinv = ho_inverse(k)
                pair = ho_vcomp(kinv, k)
                ident = ho_identity(sigma, k.f)
                if ho_eq(pair, ident, probes).is_equal:
                    record(name, marked, pair, ident)
    assert len(stored) >= 100
    blob = tmp_path / "equal_derivations.json"
    blob.write_text(json.dumps(stored[:150], sort_keys=True))

    reloaded = json.loads(blob.read_text())
    separations = 0
    audited = 0
    for entry in reloaded[:100]:
        pres = load_fixture(entry["fixture"])
        sigma = make_sigma(pres.bicategory, tuple(entry["marked"]))
        k1 = hocell_from_json(sigma, entry["k1"])
        k2 = hocell_from_json(sigma, entry["k2"])
        # fresh probe family, enumerated after the fact over the full library
        fresh_targets = [
            load_fixture_bicategory(n)
            for n in ("split", "grpd", "iso", "triv")
            if n != entry["fixture"]
        ]
        fresh = enumerate_probes(sigma, fresh_targets, include_self=True)
        assert fresh.probes
        audited += 1
        for fun in fresh.probes:
            if f_hat_chain(fun, k1) != f_hat_chain(fun, k2):
                separations += 1
    assert audited == 100
    assert separations == 0
    report(10, f"replayed {audited} stored Equal derivations; zero separations")
