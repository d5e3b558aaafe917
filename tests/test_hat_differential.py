"""The hat solver against the scans it replaced.

``hat`` is the one hat solver: it reads every cylinder hat off the inverse
of whiskering that ``is_quasiequivalence`` keeps, and ``f_hat`` is the hat
of a homotopy's push-forward, solved once per target table.
``tests/reference_scans.py`` holds the old ``hat``, ``functor_cylinder_hat``,
``f_hat`` and ``_is_quasiequivalence``, which scanned the candidate cells
with one whisker or one ``comp_sub_f`` per candidate and counted the
solutions.  Both sides must give equal values or equal ``HatError`` text on
every sampled homotopy and its right whiskers and inverse, under ``hat`` in
the source and ``f_hat`` under each functor: the extension fixtures, the
drawn pseudofunctors that are not 2-functors, and every probe of three
generated tables.  Quasiequivalence verdicts must agree on every arrow of
those tables, and each kept inverse must invert whiskering.  Hand-built
tables reach each ``HatError``, and a functor that is not admissible or not
validated fails with the push-forward's own text; a guard checks that a
second pass over the same terms scans no cells.

``hat`` keeps each homotopy's hat in a memo on its table, so ``f_hat``
keeps the hat of each push-forward on the functor's target.  On the
fixtures, the four families at n = 2-4 and split_z2, the memoized hat of
every sampled homotopy and of each of its transforms equals the
reference's, on the first call and on a repeated one; a failing hat raises
on every call, runs the solver again and is never kept; and two parses of
one table keep separate memos, each of which dies with its table.  Likewise
a failing ``f_hat`` is kept nowhere, and a successful one is kept on the
target, so a second pass solves no cylinder hat.
"""
from __future__ import annotations

import gc
import weakref

import pytest

from bench import families
from bicatkit import homotopy
from bicatkit.core import PseudofunctorData, StructureError, identity_pseudofunctor
from bicatkit.ho import enumerate_probes, sample_homotopies
from bicatkit.homotopy import (
    HatError,
    cylinder_homotopy,
    f_hat,
    hat,
    make_cylinder,
    transform_homotopy,
)
from bicatkit.library import BICATEGORIES, fixture_text, load_fixture
from bicatkit.localize import default_probe_targets
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import is_quasiequivalence, make_sigma, whisker_preimages

from tests import reference_scans as ref
from tests.tables import COLLAPSE_DOC, split_z2_doc
from tests.test_extension_differential import (
    fixture_subjects,
    generated_subjects,
    marked_table,
    outcome,
)

CAP = 80
# p carries Z/2 = {id_p, z} and an idempotent n; every table loaded from it
# validates, and the tests below corrupt their own copies
STRAY_DOC = """
objects: A B
arrows:
  p : A -> B
cells:
  z : p => p
  n : p => p
vcomp:
  z . z = id_p
  z . n = n
  n . z = n
  n . n = n
sigma: id_B
"""


def subjects():
    """(sigma, functors): each extension fixture, the drawn pseudofunctors
    grouped by source, and every probe of three generated tables."""
    for sigma, fun in fixture_subjects():
        yield sigma, [fun]
    drawn: dict = {}
    for sigma, fun in generated_subjects():
        drawn.setdefault(sigma, []).append(fun)
    yield from drawn.items()
    for family, n in (("chaotic_z2", 3), ("chain_z2", 4), ("chaotic", 3)):
        sigma = marked_table(family, n)
        yield sigma, list(enumerate_probes(sigma, default_probe_targets(sigma)).probes)


def terms(sigma):
    """The sampled homotopies, each one's right whiskers (new cylinders) and
    its inverse when its cells are invertible."""
    bic = sigma.bic
    out = []
    for hom in sample_homotopies(sigma, cap=CAP):
        out.append(hom)
        out += [
            transform_homotopy("rwhisk", r, hom) for r in bic.in_arrows(bic.arrow_src(hom.f))
        ]
        if hom.invertible_cells:
            out.append(transform_homotopy("invert", "", hom))
    return out


def assert_same_verdicts(bic):
    """Equal quasiequivalence verdicts on every arrow; each kept table sends
    (a, b, f * c) to c, for every cell c into src(f) and nothing else."""
    for f in sorted(bic.arrows):
        verdict = outcome(is_quasiequivalence, bic, f)
        assert verdict == outcome(ref._is_quasiequivalence, bic, f), (bic.name, f)
        if verdict is True:
            table = whisker_preimages(bic, f)
            assert len(table) == len(bic.in_cells(bic.arrow_src(f))), (bic.name, f)
            for (a, b, fc), c in table.items():
                assert bic.cells[c] == (a, b) and bic.whisker_l(f, c) == fc, (bic.name, f, c)


def test_hats_match_reference():
    hats = hat_errors = values = 0
    for sigma, functors in subjects():
        bic = sigma.bic
        assert_same_verdicts(bic)
        for d in {fun.target for fun in functors} - {bic}:
            assert_same_verdicts(d)
        for t in terms(sigma):
            got = outcome(hat, bic, t)
            assert got == outcome(ref.hat, bic, t), (bic.name, t)
            hats += 1
            hat_errors += got.startswith("StructureError: ")
            for fun in functors:
                assert outcome(f_hat, fun, t) == outcome(ref.f_hat, fun, t), (fun.name, t)
                values += 1
    # marked arrows of the chain tables are no quasiequivalences
    assert hats > 2000 and 0 < hat_errors < hats and values > 60_000


def stray(corrupt=None):
    """The stray table, its cylinder on id_B with alpha0 = id_p and
    alpha1 = z (so alpha_tilde = z . id_p = z), and vcomp[(z, id_p)] set to
    corrupt afterwards when given."""
    bic = load_presentation_with_sigma(STRAY_DOC, "stray").bicategory
    cyl = make_cylinder(bic, "p", "p", "p", "id_B", "id_p", "z")
    if corrupt is not None:
        bic.vcomp[("z", "id_p")] = corrupt
    return bic, cyl


def bent(bic, cell, image):
    """The identity 2-functor on bic with cell sent to image instead."""
    base = identity_pseudofunctor(bic)
    cell_map = {**base.cell_map, cell: image}
    return PseudofunctorData(
        "bent", bic, bic, base.obj_map, base.arr_map, cell_map, base.xi, base.phi
    )


def hat_error(fn, *args):
    with pytest.raises(HatError) as new:
        fn(*args)
    with pytest.raises(HatError) as old:
        getattr(ref, fn.__name__)(*args)
    assert str(new.value) == str(old.value)
    return str(new.value)


def test_hat_errors_match_reference():
    # g * (-) is full but not faithful
    bic = load_presentation_with_sigma(COLLAPSE_DOC, "collapse").bicategory
    cyl = make_cylinder(bic, "f", "f", "h", "g", "id_h", "id_h")
    assert hat_error(hat, bic, cyl) == "arrow 'g' is not a quasiequivalence in collapse"
    with pytest.raises(HatError, match="^arrow 'g' is not a quasiequivalence in collapse$"):
        f_hat(identity_pseudofunctor(bic), cylinder_homotopy(cyl))
    # alpha_tilde read as a cell on id_A, which no cell on p whiskers to
    bic, cyl = stray(corrupt="id_id_A")
    assert hat_error(hat, bic, cyl) == (
        "hat of cylinder on 'id_B' has 0 solutions; "
        "tables are corrupted (uniqueness is guaranteed)"
    )
    # F(alpha1) is a cell on id_A, so the image cylinder has no alpha1
    bic, cyl = stray()
    assert hat(bic, cyl) == "z"
    with pytest.raises(StructureError) as err:
        f_hat(bent(bic, "z", "id_id_A"), cylinder_homotopy(cyl))
    assert type(err.value) is StructureError
    assert str(err.value) == "stray: vertical composite id_id_A . id_p not in vcomp table"
    # alpha_tilde read as the idempotent n, which is its own preimage
    bic, cyl = stray(corrupt="n")
    assert hat_error(hat, bic, cyl) == "hat solution 'n' is not invertible"


def test_second_pass_scans_no_cells(monkeypatch):
    # a self-probe, so the target is the source and hat and f_hat both count
    sigma = marked_table("chaotic_z2", 3)
    bic = sigma.bic
    fun = enumerate_probes(sigma, []).probes[0]
    assert fun.target is bic
    homs = terms(sigma)
    first = [(hat(bic, t), f_hat(fun, t)) for t in homs]
    scans = []
    cells_between = bic.cells_between

    def counted(f, g):
        scans.append((f, g))
        return cells_between(f, g)

    monkeypatch.setattr(bic, "cells_between", counted)
    assert [(hat(bic, t), f_hat(fun, t)) for t in homs] == first
    assert scans == []


MEMO_CAP = 60


def memo_tables():
    """(label, document text): each fixture, the four families at n = 2-4
    with every arrow marked, and split_z2."""
    for name in BICATEGORIES:
        yield name, fixture_text(f"{name}.bic")
    for family in ("chain", "chaotic", "chain_z2", "chaotic_z2"):
        for n in (2, 3, 4):
            yield f"{family}({n})", families.generate(family, n, 1, marked=True).text()
    yield "split_z2", split_z2_doc()


def parse(label, text):
    pres = load_presentation_with_sigma(text, label)
    return make_sigma(pres.bicategory, pres.sigma_names)


def transforms(hom):
    """hom and each transform of it: post and pre by every cell that
    composes, both whiskers by every arrow that composes, and the inverse
    when its cells are invertible."""
    bic = hom.bic
    out = [hom]
    out += [transform_homotopy("post", mu, hom) for mu in bic.cells_from(hom.g)]
    out += [transform_homotopy("pre", nu, hom) for nu in bic.cells_to(hom.f)]
    out += [
        transform_homotopy("lwhisk", r, hom) for r in bic.out_arrows(bic.arrow_dst(hom.f))
    ]
    out += [
        transform_homotopy("rwhisk", r, hom) for r in bic.in_arrows(bic.arrow_src(hom.f))
    ]
    if hom.invertible_cells:
        out.append(transform_homotopy("invert", "", hom))
    return out


def memo_terms(sigma):
    return [t for hom in sample_homotopies(sigma, cap=MEMO_CAP) for t in transforms(hom)]


def count_solver(monkeypatch) -> list:
    """Record the table of each cylinder hat ``hat`` solves: one
    ``whisker_preimages`` lookup each."""
    calls: list = []
    real = homotopy.whisker_preimages
    monkeypatch.setattr(
        homotopy, "whisker_preimages", lambda bic, s: calls.append(bic) or real(bic, s)
    )
    return calls


def test_memoized_hats_match_reference(monkeypatch):
    solved = failed = 0
    solver = count_solver(monkeypatch)
    for label, text in memo_tables():
        sigma = parse(label, text)
        bic = sigma.bic
        assert not bic._hat_cache, label
        homs = memo_terms(sigma)
        want = [outcome(ref.hat, bic, t) for t in homs]
        for repeat in ("first", "again"):
            solver.clear()
            got = [outcome(hat, bic, t) for t in homs]
            assert got == want, (label, repeat)
            errors = [t for t, v in zip(homs, got) if v.startswith("StructureError: ")]
            # each hat is solved on its first call only, and a failure, kept
            # nowhere, on every call
            first = len(set(homs) - set(errors)) if repeat == "first" else 0
            assert len(solver) == first + len(errors), (label, repeat)
            assert not any(t in bic._hat_cache for t in errors), label
        assert len(bic._hat_cache) == len(set(homs) - set(errors)), label
        solved += len(homs) - len(errors)
        failed += len(errors)
    # split and split_z2 mark arrows that are no quasiequivalences
    assert solved > 5000 and failed > 500, (solved, failed)


def test_failing_hat_raises_on_every_call(monkeypatch):
    """A homotopy over a cylinder on split's e, which is no
    quasiequivalence, raises the same HatError each time, and the solver
    runs each time."""
    pres = load_fixture("split")
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    bic = sigma.bic
    hom = next(t for t in sample_homotopies(sigma) if t.cyl.s == "e")
    solver = count_solver(monkeypatch)
    messages = []
    for _ in range(3):
        with pytest.raises(HatError) as err:
            hat(bic, hom)
        messages.append(str(err.value))
    assert messages == ["arrow 'e' is not a quasiequivalence in split"] * 3
    assert solver == [bic] * 3 and hom not in bic._hat_cache


def test_two_parses_keep_separate_memos(monkeypatch):
    """Two parses of one table share no memo: hatting the second solves
    every hat again in its own table, each memo holds only its own table's
    homotopies, and a memo dies with its table."""
    text = families.generate("chaotic_z2", 3, 1, marked=True).text()
    first, second = parse("one", text), parse("one", text)
    solver = count_solver(monkeypatch)
    hats = []
    for sigma in (first, second):
        solver.clear()
        homs = memo_terms(sigma)
        hats.append([hat(sigma.bic, t) for t in homs])
        assert solver == [sigma.bic] * len(set(homs))
        assert {t.bic for t in sigma.bic._hat_cache} == {sigma.bic}
    assert hats[0] == hats[1]
    gone = weakref.ref(first.bic)
    del first, homs
    gc.collect()
    assert gone() is None


def count_push_forwards(monkeypatch) -> list:
    """Record the functor of each homotopy ``homotopy.apply_functor`` pushes
    forward (its cylinder's push-forward is not recorded)."""
    calls: list = []
    real = homotopy.apply_functor

    def counted(fun, obj):
        if isinstance(obj, homotopy.Homotopy):
            calls.append(fun)
        return real(fun, obj)

    monkeypatch.setattr(homotopy, "apply_functor", counted)
    return calls


def test_failing_f_hat_is_kept_nowhere_and_raises_again(monkeypatch):
    """The identity functor on collapse sends g to g, which is no
    quasiequivalence: every call pushes the homotopy forward and runs the
    solver again, and the table's memo does not keep it."""
    bic = load_presentation_with_sigma(COLLAPSE_DOC, "collapse").bicategory
    hom = cylinder_homotopy(make_cylinder(bic, "f", "f", "h", "g", "id_h", "id_h"))
    fun = identity_pseudofunctor(bic)
    pushed, solver = count_push_forwards(monkeypatch), count_solver(monkeypatch)
    for _ in range(3):
        with pytest.raises(HatError, match="^arrow 'g' is not a quasiequivalence"):
            f_hat(fun, hom)
    assert pushed == [fun] * 3 and solver == [bic] * 3
    assert hom not in bic._hat_cache


def test_f_hat_keeps_the_image_hat_on_the_target(monkeypatch):
    """Under a probe into another table, f_hat's value is the hat of the
    push-forward, kept in the target's memo and not in the source's; a
    second pass pushes every homotopy forward again but solves no
    cylinder hat."""
    sigma = marked_table("chaotic_z2", 3)
    probes = enumerate_probes(sigma, default_probe_targets(sigma)).probes
    fun = next(p for p in probes if p.target is not sigma.bic)
    homs = memo_terms(sigma)
    first = [f_hat(fun, t) for t in homs]
    images = [homotopy.apply_functor(fun, t) for t in homs]
    assert [fun.target._hat_cache[m] for m in images] == first
    assert not sigma.bic._hat_cache
    pushed, solver = count_push_forwards(monkeypatch), count_solver(monkeypatch)
    assert [f_hat(fun, t) for t in homs] == first
    assert pushed == [fun] * len(homs) and solver == []
