"""Extensions along the projection against the head/tail route they replaced.

``ExtensionG.value`` is ``f_hat_chain`` for every pseudofunctor, and one
verification body, which checks whiskering up to phi, serves 2-functors and
pseudofunctors.  ``tests/reference_scans.py`` keeps the old route: the
``ExtensionG`` record with ``head`` and ``tail``, ``extend_pseudofunctor``
through ``factorize``, ``extend_2cell_data`` running two full extensions and
its own PM loop, and ``perturbation_breaks`` scanning every cell.  Both sides
must give equal materialized families and equal values on the family, on
vertical composites of family pairs, on both whiskers of every member and on
identity classes; equal ``extend_2cell_data`` reports; and equal report
fields, in the record and in JSON, on the fields the report keeps
(``KEPT_FIELDS``).  The reference's vertical check must hold on every
subject, and its restriction check may fail only where the units check does.
On 2-functors every alternative value on the family breaks a forced equation:
the reference's ``perturbation_breaks`` says so, and on lone identity-cell
terms, which the reference left to its whisker loop, the unit pins the value
to the identity.

The subjects are the bundled ``chain_f``, a pseudofunctor whose arrow map is
not functorial on the nose (where whiskers hold only up to phi), the
transformation and modification fixtures of ``tests/test_ho.py``, and seeded
pseudofunctors that are not
2-functors: xi and phi drawn uniformly over the 2-functors between small Z/2
tables, kept when ``validate_pseudofunctor`` passes.
"""
import random

from bench import families
from bicatkit.core import (
    ModificationData,
    PseudofunctorData,
    StructureError,
    TransformationData,
    identity_pseudofunctor,
    validate_bicategory,
    validate_pseudofunctor,
)
from bicatkit.ho import (
    enumerate_2functors,
    extend_2cell_data,
    extend_pseudofunctor,
    ho_cell,
    ho_identity,
    ho_vcomp,
    ho_whisk,
)
from bicatkit.homotopy import ICell
from bicatkit.library import load_chain_pseudofunctor, load_fixture
from bicatkit.presentation import load_presentation_with_sigma, load_pseudofunctor
from bicatkit.sigma import make_sigma

from tests import reference_scans as ref
from tests.conftest import TWOCELL_DOC

CAP = 30
# the report fields, and the verdict, that extension reports still carry
KEPT_FIELDS = ("ok", "functorial_whisker", "preserves_units", "checked_whiskers")


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


def probe_cells(ext):
    """The materialized family, vertical composites of its composable pairs,
    both whiskers of every member and every identity class."""
    sigma = ext.sigma
    bic = sigma.bic
    family = ext.materialized
    cells = list(family)
    cells += [ho_vcomp(k2, k1) for k1 in family for k2 in family if k1.g == k2.f]
    for k in family:
        x, y = bic.arrows[k.f]
        cells += [ho_whisk("left", r, k) for r in bic.out_arrows(y)]
        cells += [ho_whisk("right", r, k) for r in bic.in_arrows(x)]
    cells += [ho_identity(sigma, f) for f in sorted(bic.arrows)]
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


def same_2cell_data(kind, data, sigma):
    new = outcome(extend_2cell_data, kind, data, sigma, cap=CAP)
    old = outcome(ref.extend_2cell_data, kind, data, sigma, cap=CAP)
    if isinstance(new, str):
        assert new == old, data.name
        return new
    assert not isinstance(old, str), (data.name, old)
    assert new[0] is data and old[0] is data
    assert new[1] == old[1], data.name
    assert new[1].to_json() == ref.two_cell_report_json(old[1]), data.name
    return new[1]


def fixture_2cell_data():
    """The transformations and modifications of tests/test_ho.py."""
    sigma, straight, swapped = split_functors()
    tgt = straight.target
    src = sigma.bic
    comp_obj = {"X": "u", "Y": "v"}
    comp_arr = {
        f: tgt.idc[tgt.hcomp1[(swapped.arr_map[f], comp_obj[src.arrow_src(f)])]]
        for f in src.arrows
    }
    yield "transformation", TransformationData("sym", straight, swapped, comp_obj, comp_arr), sigma
    ident = TransformationData(
        "ident", straight, straight,
        comp_obj={x: tgt.id1[straight.obj_map[x]] for x in src.objects},
        comp_arr={f: tgt.idc[straight.arr_map[f]] for f in src.arrows},
    )
    yield "transformation", ident, sigma
    # into split itself: the functor constant at X is admissible, the
    # identity is not (e is no quasiequivalence), so the error names the
    # second functor, as the old code's second extension did
    split = sigma.bic
    constant = load_pseudofunctor(
        map_doc({"X": "X", "Y": "X"}, {"s": "id_X", "r": "id_X", "e": "id_X"}),
        split, split, name="constant",
    )
    comp_arr = {f: split.idc[split.hcomp1[(f, "s" if split.arrow_src(f) == "Y" else "id_X")]]
                for f in split.arrows}
    yield "transformation", TransformationData(
        "to-identity", constant, identity_pseudofunctor(split), {"X": "id_X", "Y": "s"}, comp_arr
    ), sigma
    sigma, ident_fun = twocell_subject()
    theta = TransformationData(
        "tw", ident_fun, ident_fun,
        comp_obj={"U": "id_U", "V": "id_V"},
        comp_arr={"id_U": "id_id_U", "id_V": "id_id_V", "m": "k"},
    )
    yield "transformation", theta, sigma
    yield "modification", ModificationData("iden", theta, theta, {"U": "id_id_U", "V": "id_id_V"}), sigma
    yield "modification", ModificationData("pert", theta, theta, {"U": "id_id_U", "V": "j"}), sigma


def generated_2cell_data(rng):
    """Transformations with drawn components between the 2-functors of
    chaotic_z2(2) into itself, modifications with drawn components between
    them, and a transformation out of a pseudofunctor that is no 2-functor."""
    sigma, pseudo = drawn_subjects("chaotic_z2", 2, draws=40)[0]
    bic = sigma.bic
    funs = enumerate_2functors(bic, bic)
    transformations = []
    for i in range(12):
        f_, g_ = rng.choice(funs), rng.choice(funs)
        comp_obj = {
            x: rng.choice(bic.arrows_between(f_.obj_map[x], g_.obj_map[x])) for x in bic.objects
        }
        comp_arr = {}
        for f, (x, y) in bic.arrows.items():
            src = bic.hcomp1[(g_.arr_map[f], comp_obj[x])]
            dst = bic.hcomp1[(comp_obj[y], f_.arr_map[f])]
            comp_arr[f] = rng.choice(bic.cells_between(src, dst))
        transformations.append(TransformationData(f"t{i}", f_, g_, comp_obj, comp_arr))
        yield "transformation", transformations[-1], sigma
    for i in range(12):
        theta = rng.choice(transformations)
        eta = TransformationData(
            f"e{i}", theta.fun_from, theta.fun_to, theta.comp_obj,
            {f: rng.choice(bic.cells_between(*bic.cells[c])) for f, c in theta.comp_arr.items()},
        )
        comp = {x: rng.choice(bic.cells_between(a, a)) for x, a in theta.comp_obj.items()}
        yield "modification", ModificationData(f"m{i}", theta, eta, comp), sigma
    t = transformations[0]
    yield "transformation", TransformationData("p", pseudo, pseudo, t.comp_obj, t.comp_arr), sigma


def test_two_cell_extensions_match_reference():
    reports = [
        same_2cell_data(kind, data, sigma)
        for kind, data, sigma in [
            *fixture_2cell_data(), *generated_2cell_data(random.Random("2cell"))
        ]
    ]
    errors = sorted(r for r in reports if isinstance(r, str))
    assert len(errors) == 2
    assert "is not a 2-functor" in errors[0] and "outside the quasiequivalences" in errors[1]
    done = [r for r in reports if not isinstance(r, str)]
    assert len(done) > 20
    assert any(r.ok for r in done) and any(not r.ok for r in done)
    assert {r.kind for r in done if not r.ok} == {"transformation", "modification"}
