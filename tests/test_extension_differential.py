"""Extensions along the projection against the head/tail route they replaced.

``ExtensionG.value`` is F of a class's source hat when that exists and
``f_hat_chain`` otherwise, for every pseudofunctor, and one verification
body, which checks whiskering up to phi, serves 2-functors and
pseudofunctors.  ``tests/reference_scans.py`` keeps the old route: the
``ExtensionG`` record with ``head`` and ``tail``, ``extend_pseudofunctor``
through the head/tail factorization, the 2-cell extension that ran two full
extensions and checked PN2 on every materialized class, and
``perturbation_breaks`` scanning every cell.  Both sides must give equal
materialized families (the reference's samples truncated to the cap, see
``capped_reference``) and equal values on the family, on vertical composites
of family pairs, on both whiskers of every member and on identity classes,
and equal report fields, in the record and in JSON, on the fields the report
keeps (``KEPT_FIELDS``).  The reference's vertical check must hold on every
subject, and its restriction check may fail only where the units check does.
On 2-functors every alternative value on the family breaks a forced equation:
the reference's ``perturbation_breaks`` says so, and on lone identity-cell
terms, which the reference left to its whisker loop, the unit pins the value
to the identity.

The subjects are the bundled ``chain_f``, a pseudofunctor whose arrow map is
not functorial on the nose (where whiskers hold only up to phi), the
functors of the transformation and modification fixtures of
``tests/test_ho.py``, and seeded pseudofunctors that are not 2-functors: xi
and phi drawn uniformly over the 2-functors between small Z/2 tables, kept
when ``validate_pseudofunctor`` passes.

A transformation between admissible 2-functors that passes
``validate_transformation`` is already its own extension (the proof is in
``ExtensionG``'s docstring).  The reference's PN2 loop over materialized
classes must pass every such transformation: those of ``tests/test_ho.py``
and seeded draws on chaotic_z2(2), chaotic_z2(3), chain_z2(3) and split_z2,
which lies outside the quasiequivalence regime.  Its PM loop must pass a
modification exactly when ``validate_modification`` does.

Every default probe of chaotic_z2(3), chain_z2(3) and split_z2 is extended
too, and its values on the family and every whisker of a member must equal
``f_hat_chain``: a value read off the source hat against the per-term route,
which split_z2's homotopy classes take.
"""
import random
from collections import Counter
from functools import cache

import pytest

from bench import families
from bicatkit.core import (
    ModificationData,
    PseudofunctorData,
    StructureError,
    TransformationData,
    identity_pseudofunctor,
    validate_bicategory,
    validate_modification,
    validate_pseudofunctor,
    validate_transformation,
)
from bicatkit.ho import (
    enumerate_2functors,
    enumerate_probes,
    extend_2functor,
    extend_pseudofunctor,
    f_hat_chain,
    ho_cell,
    ho_identity,
    ho_vcomp,
    ho_whisk,
    source_hat,
)
from bicatkit.homotopy import ICell
from bicatkit.library import default_probe_targets, load_chain_pseudofunctor, load_fixture
from bicatkit.presentation import load_presentation_with_sigma, load_pseudofunctor
from bicatkit.sigma import is_quasiequivalence, make_sigma

from tests import reference_scans as ref
from tests.conftest import TWOCELL_DOC
from tests.tables import split_z2_doc

CAP = 30
# the report fields, and the verdict, that extension reports still carry
KEPT_FIELDS = ("ok", "functorial_whisker", "preserves_units", "checked_whiskers")
_reference_sample = ref.sample_homotopies


def reference_sample(sigma, cap=200):
    """The reference's sample truncated to the cap.  The reference returns
    one homotopy past the cap when the cap falls on a cylinder's tautological
    homotopy and homotopies over that cylinder follow; ``sample_homotopies``
    returns the first ``cap``."""
    return _reference_sample(sigma, cap)[:cap]


@pytest.fixture(autouse=True)
def capped_reference(monkeypatch):
    """The reference's extensions materialize ``reference_sample``."""
    monkeypatch.setattr(ref, "sample_homotopies", reference_sample)


def marked_table(family, n):
    doc = families.generate(family, n, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    return make_sigma(pres.bicategory, pres.sigma_names)


def drawn_pseudofunctors(src, dst, draws, seed):
    """Uniform xi and phi over each 2-functor src -> dst; the draws that
    validate and are no 2-functor, without repeats."""
    rng = random.Random(seed)
    kept = {}
    for base in enumerate_2functors(src, dst):
        amap = base.arr_map
        for _ in range(draws):
            xi = {
                x: rng.choice(dst.cells_between(dst.id1[base.obj_map[x]], amap[src.id1[x]]))
                for x in src.objects
            }
            phi = {
                (g, f): rng.choice(
                    dst.cells_between(dst.hcomp1[(amap[g], amap[f])], amap[src.hcomp1[(g, f)]])
                )
                for g, f in src.composable_arrow_pairs()
            }
            key = (base.name, tuple(sorted(xi.items())), tuple(sorted(phi.items())))
            if key in kept:
                continue
            fun = PseudofunctorData(
                f"{base.name}~{len(kept)}", src, dst, base.obj_map, amap, base.cell_map, xi, phi
            )
            if validate_pseudofunctor(fun).ok and not fun.is_2functor:
                kept[key] = fun
    return list(kept.values())


def drawn_subjects(family, n, draws=150):
    """(sigma, pseudofunctor) pairs out of the marked table into chaotic_z2(2)."""
    sigma = marked_table(family, n)
    dst = marked_table("chaotic_z2", 2).bic
    return [(sigma, fun) for fun in drawn_pseudofunctors(sigma.bic, dst, draws, f"{family}{n}")]


def generated_subjects():
    return drawn_subjects("chain_z2", 3) + drawn_subjects("chaotic_z2", 2)


def map_doc(obj, arr):
    return "map_obj:\n" + "".join(f"  {x} -> {y}\n" for x, y in obj.items()) + (
        "map_arr:\n" + "".join(f"  {f} -> {g}\n" for f, g in arr.items())
    )


def split_functors():
    """The 2-functors split -> iso of tests/test_ho.py."""
    split, iso = load_fixture("split"), load_fixture("iso")
    sigma = make_sigma(split.bicategory, split.sigma_names)
    straight = load_pseudofunctor(
        map_doc({"X": "A", "Y": "B"}, {"s": "u", "r": "v", "e": "id_B"}),
        split.bicategory, iso.bicategory, name="straight",
    )
    swapped = load_pseudofunctor(
        map_doc({"X": "B", "Y": "A"}, {"s": "v", "r": "u", "e": "id_A"}),
        split.bicategory, iso.bicategory, name="swapped",
    )
    return sigma, straight, swapped


def twocell_subject():
    bic = load_presentation_with_sigma(TWOCELL_DOC, name="twocell").bicategory
    return make_sigma(bic, ()), identity_pseudofunctor(bic)


# p is its own inverse and isomorphic to id_A through c and d, so F(id_X) = p
# with xi = phi = c is a pseudofunctor whose arrow map is not functorial on
# the nose: F(id_X) * F(id_X) = id_A.  Its whiskers hold only up to phi.
WOBBLE_SRC = """
objects: X
cells:
  z : id_X => id_X
vcomp:
  z . z = id_id_X
sigma: id_X
"""
WOBBLE_TGT = """
objects: A
arrows:
  p : A -> A
compose:
  p . p = id_A
cells:
  c : id_A => p
  d : p => id_A
vcomp:
  d . c = id_id_A
  c . d = id_p
lwhisk:
  p * c = d
  p * d = c
rwhisk:
  c * p = d
  d * p = c
"""
WOBBLE_PF = """
map_obj:
  X -> A
map_arr:
  id_X -> p
map_cell:
  z -> id_p
  id_id_X -> id_p
xi:
  X = c
phi:
  id_X . id_X = c
"""


def wobble_subject():
    src = load_presentation_with_sigma(WOBBLE_SRC, "wobble_src")
    tgt = load_presentation_with_sigma(WOBBLE_TGT, "wobble_tgt").bicategory
    fun = load_pseudofunctor(WOBBLE_PF, src.bicategory, tgt, name="wobble")
    return make_sigma(src.bicategory, src.sigma_names), fun


def fixture_subjects():
    chain_f = load_chain_pseudofunctor()
    yield make_sigma(chain_f.source, ()), chain_f
    yield wobble_subject()
    sigma, straight, swapped = split_functors()
    yield sigma, straight
    yield sigma, swapped
    yield twocell_subject()


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StructureError as exc:
        return f"StructureError: {exc}"


def whiskered(ext):
    """The materialized family and both whiskers of every member."""
    bic = ext.sigma.bic
    cells = list(ext.materialized)
    for k in ext.materialized:
        x, y = bic.arrows[k.f]
        cells += [ho_whisk("left", r, k) for r in bic.out_arrows(y)]
        cells += [ho_whisk("right", r, k) for r in bic.in_arrows(x)]
    return cells


def probe_cells(ext):
    """The materialized family, both whiskers of every member, vertical
    composites of its composable pairs and every identity class."""
    family = ext.materialized
    cells = whiskered(ext)
    cells += [ho_vcomp(k2, k1) for k1 in family for k2 in family if k1.g == k2.f]
    cells += [ho_identity(ext.sigma, f) for f in sorted(ext.sigma.bic.arrows)]
    return cells


def extension_view(ext):
    if isinstance(ext, str):
        return ext
    return ext.materialized, [(k, outcome(ext.value, k)) for k in probe_cells(ext)]


def assert_same_report(new, old, label):
    """The new report against the reference's on the fields it keeps; the
    reference's vertical check holds, and its restriction check fails only
    where the units check does."""
    assert old.functorial_vertical, label
    assert old.agrees_on_cells or not new.preserves_units, label
    old_json = ref.extension_report_json(old)
    assert new.to_json() == {key: old_json[key] for key in KEPT_FIELDS}, label


def assert_same_extension(sigma, fun):
    new = outcome(extend_pseudofunctor, fun, sigma, cap=CAP)
    old = outcome(ref.extend_pseudofunctor, fun, sigma, cap=CAP)
    assert extension_view(new) == extension_view(old), fun.name
    if not isinstance(new, str):
        assert_same_report(new.report, old.report, fun.name)
    return new, old


def assert_same_perturbations(sigma, fun, new, old):
    """Every alternative value on the family and on lone identity-cell terms
    of a 2-functor breaks a forced equation; returns how many values were
    compared."""
    if not fun.is_2functor:
        return 0
    bic, d = sigma.bic, fun.target
    lone_ids = [ho_cell(sigma, (ICell(bic, bic.idc[f]),)) for f in sorted(bic.arrows)]
    compared = 0
    for k in new.materialized + lone_ids:
        for other in d.cells_between(fun.arr_map[k.f], fun.arr_map[k.g]):
            if k in lone_ids:
                # [I(id_f)] = id_f in Ho, so the unit pins the value to id
                breaks = other != d.idc[fun.arr_map[k.f]]
            else:
                breaks = ref.perturbation_breaks(old, k, other)
            assert breaks == (other != new.value(k)), (fun.name, str(k), other)
            compared += 1
    return compared


def test_fixture_extensions_match_head_tail_route():
    perturbations = 0
    for sigma, fun in fixture_subjects():
        new, old = assert_same_extension(sigma, fun)
        assert new.report.ok, fun.name
        perturbations += assert_same_perturbations(sigma, fun, new, old)
    assert perturbations > 20


def test_wobble_whiskers_hold_only_up_to_phi():
    sigma, fun = wobble_subject()
    assert validate_pseudofunctor(fun).ok and not fun.is_2functor
    assert all(validate_bicategory(b).ok for b in (fun.source, fun.target))
    ext = extend_pseudofunctor(fun, sigma, cap=CAP)
    assert ext.report.ok and ext.report.checked_whiskers > 10
    # the plain whisker is a cell on another arrow, so a check without the
    # phi conjugation fails on every member
    d = fun.target
    for k in ext.materialized:
        whiskered = ext.value(ho_whisk("left", "id_X", k))
        assert whiskered != d.whisker_l(fun.arr_map["id_X"], ext.value(k))


def test_generated_pseudofunctor_extensions_match_head_tail_route():
    subjects = generated_subjects()
    sources = {sigma.bic.name for sigma, _ in subjects}
    assert len(subjects) >= 8 and len(sources) == 2, [f.name for _, f in subjects]
    values = 0
    for sigma, fun in subjects:
        new, old = assert_same_extension(sigma, fun)
        assert new.report.ok, fun.name
        assert_same_perturbations(sigma, fun, new, old)
        values += len(probe_cells(new))
    assert values > 1000


def test_generated_2functor_extensions_match():
    # 2-functors take the same route on both sides, and only their
    # perturbations are checked
    dst = marked_table("chaotic_z2", 2).bic
    perturbations = 0
    for family, n in (("chain_z2", 3), ("chaotic_z2", 2)):
        sigma = marked_table(family, n)
        for fun in enumerate_2functors(sigma.bic, dst)[:6]:
            new, old = assert_same_extension(sigma, fun)
            perturbations += assert_same_perturbations(sigma, fun, new, old)
    assert perturbations > 100


def fixture_2cell_data():
    """The transformations and modifications of tests/test_ho.py, as
    (label, sigma, transformations, modifications)."""
    sigma, straight, swapped = split_functors()
    tgt = straight.target
    src = sigma.bic
    comp_obj = {"X": "u", "Y": "v"}
    comp_arr = {
        f: tgt.idc[tgt.hcomp1[(swapped.arr_map[f], comp_obj[src.arrow_src(f)])]]
        for f in src.arrows
    }
    ident = TransformationData(
        "ident", straight, straight,
        comp_obj={x: tgt.id1[straight.obj_map[x]] for x in src.objects},
        comp_arr={f: tgt.idc[straight.arr_map[f]] for f in src.arrows},
    )
    yield "split", sigma, [TransformationData("sym", straight, swapped, comp_obj, comp_arr), ident], []
    sigma, ident_fun = twocell_subject()
    theta = TransformationData(
        "tw", ident_fun, ident_fun,
        comp_obj={"U": "id_U", "V": "id_V"},
        comp_arr={"id_U": "id_id_U", "id_V": "id_id_V", "m": "k"},
    )
    modifications = [
        ModificationData("iden", theta, theta, {"U": "id_id_U", "V": "id_id_V"}),
        ModificationData("pert", theta, theta, {"U": "id_id_U", "V": "j"}),
    ]
    yield "twocell", sigma, [theta], modifications


def admissible(fun, sigma):
    return all(is_quasiequivalence(fun.target, fun.arr_map[s]) for s in sigma.members)


def drawn_transformations(sigma, draws, rng):
    """Transformations between admissible self-2-functors of sigma's table:
    each object component uniform over its hom, and each arrow component
    uniform over its cells, unless the arrow is the composite of two other
    arrows drawn before it, whose components then give its own by PN1.  The
    draws that pass ``validate_transformation``, without repeats."""
    bic = sigma.bic
    funs = [fun for fun in enumerate_2functors(bic, bic) if admissible(fun, sigma)]
    kept = {}
    for _ in range(draws):
        f_, g_ = rng.choice(funs), rng.choice(funs)
        homs = [bic.arrows_between(f_.obj_map[x], g_.obj_map[x]) for x in bic.objects]
        if not all(homs):
            continue
        comp_obj = {x: rng.choice(hom) for x, hom in zip(bic.objects, homs)}
        comp_arr = {}
        for f in sorted(bic.arrows):
            x, y = bic.arrows[f]
            split = next(
                (
                    (g, h) for g, h in bic.composable_arrow_pairs()
                    if bic.hcomp1[(g, h)] == f and f not in (g, h) and {g, h} <= comp_arr.keys()
                ),
                None,
            )
            if split is not None:
                g, h = split
                comp_arr[f] = bic.vertical(
                    bic.whisker_r(comp_arr[g], f_.arr_map[h]),
                    bic.whisker_l(g_.arr_map[g], comp_arr[h]),
                )
                continue
            cells = bic.cells_between(
                bic.hcomp1[(g_.arr_map[f], comp_obj[x])], bic.hcomp1[(comp_obj[y], f_.arr_map[f])]
            )
            if not cells:
                break
            comp_arr[f] = rng.choice(cells)
        else:
            key = (f_.name, g_.name, tuple(comp_obj.items()), tuple(sorted(comp_arr.items())))
            theta = TransformationData(f"t{len(kept)}", f_, g_, comp_obj, comp_arr)
            if key not in kept and validate_transformation(theta).ok:
                kept[key] = theta
    return list(kept.values())


def drawn_modifications(transformations, draws, rng):
    """Modifications between drawn pairs of parallel transformations, each
    component uniform over its cells."""
    parallel: dict = {}
    for theta in transformations:
        parallel.setdefault((theta.fun_from, theta.fun_to), []).append(theta)
    groups = list(parallel.values())
    out = []
    for _ in range(draws):
        group = rng.choice(groups)
        theta, eta = rng.choice(group), rng.choice(group)
        bic = theta.fun_from.target
        cells = {x: bic.cells_between(a, eta.comp_obj[x]) for x, a in theta.comp_obj.items()}
        if all(cells.values()):
            comp = {x: rng.choice(choices) for x, choices in cells.items()}
            out.append(ModificationData(f"m{len(out)}", theta, eta, comp))
    return out


def two_cell_subjects():
    """(label, sigma, transformations, modifications) for the fixtures and
    for seeded draws on chaotic_z2(2), chaotic_z2(3), chain_z2(3) and
    split_z2, where no marked arrow is a quasiequivalence."""
    yield from fixture_2cell_data()
    pres = load_presentation_with_sigma(split_z2_doc(), "split_z2")
    tables = {
        "chaotic_z2(2)": marked_table("chaotic_z2", 2),
        "chaotic_z2(3)": marked_table("chaotic_z2", 3),
        "chain_z2(3)": marked_table("chain_z2", 3),
        "split_z2": make_sigma(pres.bicategory, pres.sigma_names),
    }
    for label, sigma in tables.items():
        rng = random.Random(f"2cell:{label}")
        transformations = drawn_transformations(sigma, 1000, rng)
        yield label, sigma, transformations, drawn_modifications(transformations, 40, rng)


def test_two_cell_extensions_match_reference(monkeypatch):
    """The reference's class loop, which checked PN2 on every materialized
    class, never fails a transformation that passes
    ``validate_transformation`` between admissible 2-functors, since such a
    transformation is its own extension (see ``ExtensionG``); and the
    reference's PM loop passes a modification exactly when
    ``validate_modification`` does."""
    # each functor's reference extension is a pure function of its inputs
    monkeypatch.setattr(ref, "extend_2functor", cache(ref.extend_2functor))
    counts: Counter = Counter()
    for label, sigma, transformations, modifications in two_cell_subjects():
        for theta in transformations:
            assert admissible(theta.fun_from, sigma) and admissible(theta.fun_to, sigma)
            assert validate_transformation(theta).ok, (label, theta.name)
            _, report = ref.extend_2cell_data("transformation", theta, sigma, cap=CAP)
            assert report.ok, (label, theta.name, report.failures)
            counts[label] += 1
        for mod in modifications:
            _, report = ref.extend_2cell_data("modification", mod, sigma, cap=CAP)
            valid = validate_modification(mod).ok
            assert report.ok == valid, (label, mod.name)
            counts["modification", valid] += 1
    assert counts["split_z2"] >= 10 and counts["chain_z2(3)"] >= 10, counts
    assert sum(counts[label] for label in counts if isinstance(label, str)) >= 200, counts
    assert counts["modification", True] >= 20 and counts["modification", False] >= 20, counts


def default_probe_subjects():
    """(label, sigma, probe) for every default probe, self-probes included,
    of chaotic_z2(3) and chain_z2(3), where every marked arrow is a
    quasiequivalence, and of split_z2, where e, r and s are not."""
    pres = load_presentation_with_sigma(split_z2_doc(), "split_z2")
    tables = {
        "chaotic_z2(3)": marked_table("chaotic_z2", 3),
        "chain_z2(3)": marked_table("chain_z2", 3),
        "split_z2": make_sigma(pres.bicategory, pres.sigma_names),
    }
    for label, sigma in tables.items():
        for fun in enumerate_probes(sigma, default_probe_targets(sigma)).probes:
            yield label, sigma, fun


def test_extension_values_by_hat_match_per_term_route():
    """``ExtensionG.value`` is F of k's source hat when that exists, and
    otherwise each term solved in F's target: on every class of the family
    and every whisker of one it equals ``f_hat_chain``, and every report is
    the reference's.  On split_z2 each homotopy class takes the per-term
    route."""
    routes: Counter = Counter()
    for label, sigma, fun in default_probe_subjects():
        new = extend_2functor(fun, sigma, cap=CAP)
        old = ref.extend_2functor(fun, sigma, cap=CAP)
        assert new.materialized == old.materialized, fun.name
        assert_same_report(new.report, old.report, fun.name)
        for k in whiskered(new):
            assert new.value(k) == f_hat_chain(fun, k), (fun.name, str(k))
            routes[label, fun.target is sigma.bic, source_hat(k) is None] += 1
    assert routes["split_z2", False, True] > 100, routes
    for name in ("chaotic_z2(3)", "chain_z2(3)"):
        assert routes[name, True, False] > 1000 and routes[name, False, False] > 1000, routes
    assert not any(by_terms for (name, _, by_terms) in routes if name != "split_z2"), routes
