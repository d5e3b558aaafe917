"""The incidence-index walks and the table-driven document reader against
the code they replaced.

``tests/reference_scans.py`` holds the old code: the parser (its section
loops and its fill of forced table entries), the old ``load_pseudofunctor``
and ``load_computad``, ``w_split_decompose``, ``is_quasiequivalence``,
``sample_homotopies``, ``extend_2functor`` and ``perturbation_breaks``.  Both
sides must give equal tables, maps and computads or the same parse error
text, equal decompositions at every ``max_len`` from 1 to 4, equal
quasiequivalence verdicts for every arrow, equal homotopy samples (the
reference's truncated to the cap, which it overshoots by one), equal
extension reports on the fields they keep, and alternative values that all
break a forced equation, on the bundled fixtures and on
the benchmark's generated families, clean and with every mutation kind,
strict and not, and on documents one line off them.  The only inputs allowed
to differ are those the reader newly rejects (see ``newly_rejected``), a
computad cell's unknown anchor or path arrow, now reported at the cell's line
(see ``without_location``), and perturbations of a lone identity-cell term,
which the unit pins and the reference left to its whisker loop.
"""
import itertools
import random
import re

import pytest

from bench import families
from bicatkit.core import StructureError
from bicatkit.elevator import load_computad
from bicatkit.ho import (
    enumerate_probes,
    extend_2functor,
    ho_cell,
    sample_homotopies,
)
from bicatkit.homotopy import ICell
from bicatkit.library import BICATEGORIES, fixture_text, load_fixture_bicategory
from bicatkit.localize import default_probe_targets
from bicatkit.presentation import ParseError, load_presentation_with_sigma, load_pseudofunctor
from bicatkit.sigma import (
    Decomposition,
    is_quasiequivalence,
    make_sigma,
    w_split_decompose,
)

from tests import reference_scans as ref
from tests.tables import COLLAPSE_DOC
from tests.test_extension_differential import assert_same_report, reference_sample

# chain_z2 needs 4 objects for a composable triple of non-identity arrows
SIZES = {"chain": (3, 4, 6), "chain_z2": (4, 5), "chaotic": (2, 3, 4), "chaotic_z2": (2, 3, 4)}
# explicit unitor and associator entries, which the generated families leave
# to the strict fill
COHERENCE_DOC = """
strict false
objects: X Y
arrows:
  f : X -> Y
  g : Y -> Y
compose:
  g . f = f
  g . g = g
cells:
  a : f => f
  b : g => g
unitors:
  lambda f = a
  rho f = a
  lambda g = b
  rho id_X = id_id_X
assoc:
  theta g g f = a
  theta g g g = b
  theta id_Y g f = id_f
"""
TABLE_FIELDS = (
    "name", "objects", "arrows", "id1", "hcomp1", "cells", "idc", "vcomp",
    "lwhisk", "rwhisk", "lunitor", "runitor", "assoc", "strict",
)


def parsed(parse, view=lambda x: x):
    """view(parse()), or the ParseError text."""
    try:
        return view(parse())
    except ParseError as exc:
        return f"ParseError: {exc}"


def parse_both(text, name):
    """(new, old) parse results: a Presentation or the ParseError text."""
    return (
        parsed(lambda: load_presentation_with_sigma(text, name)),
        parsed(lambda: ref.ReferenceDocBuilder(name, text).build()),
    )


def assert_same_parse(text, name):
    new, old = parse_both(text, name)
    if newly_rejected("bic", new, old):
        return None
    if isinstance(old, str):
        assert new == old, name
        return None
    assert not isinstance(new, str), (name, new)
    assert new.sigma_names == old.sigma_names, name
    for field in TABLE_FIELDS:
        assert getattr(new.bicategory, field) == getattr(old.bicategory, field), (name, field)
    return new


def as_non_strict(text):
    return text.replace("strict true", "strict false")


def documents():
    """(name, text) of the fixtures and of the generated families at the
    sizes above, clean and with every mutation kind."""
    for name in BICATEGORIES:
        yield name, fixture_text(f"{name}.bic")
    yield "collapse", COLLAPSE_DOC
    yield "coherence", COHERENCE_DOC
    for family, seed in itertools.product(families.FAMILIES, (1, 2)):
        for n in SIZES[family]:
            doc = families.generate(family, n, seed, marked=seed == 2)
            yield doc.name, doc.text()
            for m in families.mutations_for(family):
                mutant = families.mutate(doc, m.name, seed)
                yield mutant.name, mutant.text()


def line_mutants(text, rng, count):
    """Documents that differ from text in one line: dropped, doubled, or with
    one name replaced by another name of the document."""
    lines = text.splitlines()
    names = sorted(set(doc_names(text)))
    for _ in range(count):
        out = list(lines)
        i = rng.randrange(len(out))
        kind = rng.randrange(3)
        if kind == 0:
            del out[i]
        elif kind == 1:
            out.insert(i, out[i])
        else:
            toks = out[i].split(" ")
            j = rng.randrange(len(toks))
            toks[j] = rng.choice(names)
            out[i] = " ".join(toks)
        yield "\n".join(out) + "\n"


def doc_names(text):
    for line in text.splitlines():
        for tok in line.replace(":", " ").split():
            if tok not in ("->", "=>", ".", "*", "=", "strict", "true", "false"):
                yield tok


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "non-strict"))
def test_parser_fill_matches_reference(strict):
    parsed = 0
    for name, text in documents():
        if not strict:
            text = as_non_strict(text)
        parsed += assert_same_parse(text, name) is not None
    assert parsed > 100


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "non-strict"))
def test_parser_line_mutants_match_reference(strict):
    rng = random.Random(f"line-mutants:{strict}")
    seeds = [(n, fixture_text(f"{n}.bic")) for n in BICATEGORIES]
    seeds.append(("coherence", COHERENCE_DOC))
    seeds += [
        (doc.name, doc.text())
        for doc in (families.generate(f, 3, 1, marked=True) for f in families.FAMILIES)
    ]
    errors = 0
    for name, text in seeds:
        if not strict:
            text = as_non_strict(text)
        for mutant in line_mutants(text, rng, 40):
            errors += assert_same_parse(mutant, name) is None
    assert errors >= 20, f"only {errors} mutants fail to parse"


# what only the table-driven reader rejects, per document kind: a repeated
# assoc, xi or phi key, a computad object that is no name, and a computad
# arrow to an undeclared object, which the old code reported at line 1
# through make_computad
NEWLY_REJECTED = {
    "bic": "duplicate assoc entry",
    "pf": "duplicate (xi|phi) entry",
    "cmp": "bad name|arrow '[^']*' references undeclared object",
}


def newly_rejected(kind, new, old):
    pattern = rf"ParseError: line \d+, column \d+: ({NEWLY_REJECTED[kind]})"
    if not (isinstance(new, str) and re.match(pattern, new)):
        return False
    if "undeclared object" in new:
        return isinstance(old, str) and old.startswith("ParseError: line 1, column 1: ")
    return "bad name" in new or not isinstance(old, str)


def functor_view(fun):
    return fun.obj_map, fun.arr_map, fun.cell_map, fun.xi, fun.phi


def test_pseudofunctor_reader_matches_reference():
    src, tgt = load_fixture_bicategory("chain_src"), load_fixture_bicategory("chain_tgt")
    # the fixture, and the fixture with explicit xi entries
    with_xi = fixture_text("chain_f.pf") + "xi:\n  W = id_id_W\n  X = id_id_X\n"
    rng = random.Random("pf-line-mutants")
    seen = {"same": 0, "error": 0, "new": 0}
    docs = [fixture_text("chain_f.pf"), with_xi]
    for doc in docs + [m for text in docs for m in line_mutants(text, rng, 200)]:
        new = parsed(lambda: load_pseudofunctor(doc, src, tgt), functor_view)
        old = parsed(lambda: ref.load_pseudofunctor(doc, src, tgt), functor_view)
        if new == old:
            seen["error" if isinstance(new, str) else "same"] += 1
        else:
            assert newly_rejected("pf", new, old), (doc, new, old)
            seen["new"] += 1
    assert seen["same"] > 50 and seen["error"] > 50 and seen["new"] > 0, seen


# the computads of the tests and the benchmark's elevator ladder, with path,
# scalar and anchored cells
COMPUTADS = (
    "objects: X Y Z\narrows:\n  f1 : X -> Y\n  f2 : X -> Y\n  g1 : Y -> Z\n  g2 : Y -> Z\n"
    "cells:\n  al : f1 => f2\n  be : g1 => g2\n",
    "objects: X Y\narrows:\n  f : X -> Y\ncells:\n  a : f => f\n  sc : 1 => 1 @ X\n",
    "objects: X Y Z\narrows:\n  f : X -> Y\n  g : Y -> Z\n  h : X -> Z\n"
    "cells:\n  m : g.f => h\n  n : h => g.f\n  k : g.f => g.f\n  sc : 1 => 1 @ Y\n",
    "objects: X0 X1 X2 X3\narrows:\n"
    + "".join(f"  f{i} : X{i - 1} -> X{i}\n  g{i} : X{i - 1} -> X{i}\n" for i in (1, 2, 3))
    + "cells:\n"
    + "".join(f"  a{i} : f{i} => g{i}\n  b{i} : f{i} => g{i}\n" for i in (1, 2, 3)),
)


# a cell's anchor and path arrows are checked at the cell's line, and
# make_computad names the cell of a path that breaks or of boundaries that
# are not parallel, which are reported at its line too; the old code
# reported all four at line 1 through make_computad, prefixed by the
# computad's name, so these errors are compared without location
MOVED_TO_CELL_LINE = re.compile(
    r"ParseError: line \d+, column \d+: (?:c: )?"
    r"(unknown arrow '[^']*' in path|cell '[^']*' anchored at unknown object"
    r"|path breaks at '[^']*' \. '[^']*'|cell '[^']*' boundary paths not parallel)$"
)


def without_location(result):
    m = isinstance(result, str) and MOVED_TO_CELL_LINE.match(result)
    return f"ParseError: {m.group(1)}" if m else result


def test_computad_reader_matches_reference():
    rng = random.Random("cmp-line-mutants")
    seen = {"same": 0, "error": 0, "new": 0, "moved": 0}
    for text in COMPUTADS:
        for doc in [text, *line_mutants(text, rng, 150)]:
            located = parsed(lambda: load_computad(doc, "c"))
            new = without_location(located)
            old = without_location(parsed(lambda: ref.load_computad(doc, "c")))
            seen["moved"] += new != located
            if new == old:
                seen["error" if isinstance(new, str) else "same"] += 1
            else:
                assert newly_rejected("cmp", new, old), (doc, new, old)
                seen["new"] += 1
    assert seen["same"] > 100 and seen["error"] > 100 and seen["new"] > 0, seen
    assert seen["moved"] > 10, seen


def outcome(fn, *args):
    """fn(*args), or "error" when it raises on a missing table entry.  On a
    table that fails validation the two sides may visit the missing entries
    in another order, so which entry, and which exception, is not compared."""
    try:
        return fn(*args)
    except (StructureError, KeyError):
        return "error"


def sigma_cases():
    """(label, sigma) over every document: the document's own sigma, all
    arrows, and seeded halves and quarters of the arrows, which leave many
    arrows to be reached by chains of several marked ones."""
    for name, text in documents():
        pres = load_presentation_with_sigma(text, name)
        arrows = sorted(pres.bicategory.arrows)
        rng = random.Random(name)
        half = rng.sample(arrows, len(arrows) // 2)
        quarter = rng.sample(arrows, len(arrows) // 4)
        for label, chosen in (
            ("own", pres.sigma_names), ("all", arrows), ("half", half), ("quarter", quarter)
        ):
            # a fresh table per case, so no memo is shared between cases
            fresh = load_presentation_with_sigma(text, name).bicategory
            yield f"{name}/{label}", make_sigma(fresh, chosen)


def test_sigma_searches_match_reference():
    cases = errors = chains = 0
    for label, sigma in sigma_cases():
        bic = sigma.bic
        for f in sorted(bic.arrows):
            got = outcome(is_quasiequivalence, bic, f)
            assert got == outcome(ref.is_quasiequivalence, bic, f), (label, f)
            errors += got == "error"
            for max_len in (1, 2, 3, 4):
                got = outcome(w_split_decompose, sigma, f, max_len)
                assert got == outcome(ref.w_split_decompose, sigma, f, max_len), (
                    label, f, max_len,
                )
            chains += isinstance(got, Decomposition) and len(got.chain) > 1
        cases += 1
    assert cases > 400 and errors > 0
    assert chains > 100, f"only {chains} decompositions need several marked arrows"


def test_homotopy_samples_match_reference():
    compared = 0
    for label, sigma in sigma_cases():
        if len(sigma.bic.arrows) > 12:
            continue
        got = outcome(sample_homotopies, sigma, 150)
        assert got == outcome(reference_sample, sigma, 150), label
        compared += not isinstance(got, str) and len(got) > 0
    assert compared > 50


def sampler_corpus():
    """The bundled fixtures and the four generated families at n = 2-4, seed
    1, each with its own marked class."""
    docs = [(name, fixture_text(f"{name}.bic")) for name in BICATEGORIES]
    for family in ("chain", "chain_z2", "chaotic", "chaotic_z2"):
        for n in (2, 3, 4):
            doc = families.generate(family, n, 1, marked=True)
            docs.append((doc.name, doc.text()))
    for name, text in docs:
        pres = load_presentation_with_sigma(text, name)
        yield name, make_sigma(pres.bicategory, pres.sigma_names)


def test_samples_are_the_reference_prefix_at_every_cap():
    """At every cap from 1 to 300 the sample is the reference's truncated to
    the cap and holds min(total, cap) homotopies.  The reference returns one
    past the cap at 338 of these (table, cap) pairs: wherever the cap falls
    on a tautological homotopy with homotopies over its cylinder to follow."""
    overshoots = 0
    for name, sigma in sampler_corpus():
        total = len(ref.sample_homotopies(sigma, 10**6))
        for cap in range(1, 301):
            old = ref.sample_homotopies(sigma, cap)
            got = sample_homotopies(sigma, cap)
            assert got == old[:cap] and len(got) == min(total, cap), (name, cap)
            overshoots += len(old) > cap
    assert overshoots == 338


def probe_cases():
    """The first probes of each fixture, and of two generated tables whose
    homs are Z/2, where whiskering carries most of the structure."""
    docs = [(name, fixture_text(f"{name}.bic")) for name in BICATEGORIES]
    for family, n in (("chaotic_z2", 2), ("chain_z2", 4)):
        doc = families.generate(family, n, 3, marked=family.startswith("chaotic"))
        docs.append((doc.name, doc.text()))
    for name, text in docs:
        pres = load_presentation_with_sigma(text, name)
        sigma = make_sigma(pres.bicategory, pres.sigma_names)
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
        for fun in probes.probes[:12]:
            yield name, sigma, fun


def test_extension_and_perturbations_match_reference(monkeypatch):
    monkeypatch.setattr(ref, "sample_homotopies", reference_sample)
    probes = perturbations = lone_broken = 0
    for name, sigma, fun in probe_cases():
        new = extend_2functor(fun, sigma, cap=30)
        old = ref.extend_2functor(fun, sigma, cap=30)
        assert_same_report(new.report, old.report, (name, fun.name))
        assert new.materialized == old.materialized, (name, fun.name)
        bic, d = sigma.bic, fun.target
        # [I(id_f)] = id_f in Ho, so the unit pins a lone identity-cell term
        # to the identity; the reference left it to its whisker loop, which
        # can miss
        lone_ids = [ho_cell(sigma, (ICell(bic, bic.idc[f]),)) for f in sorted(bic.arrows)]
        for k in new.materialized + lone_ids:
            assert new.value(k) == old.value(k)
            for other in d.cells_between(fun.arr_map[k.f], fun.arr_map[k.g]):
                if k in lone_ids:
                    breaks = other != d.idc[fun.arr_map[k.f]]
                    lone_broken += breaks
                else:
                    breaks = ref.perturbation_breaks(old, k, other)
                assert breaks == (other != new.value(k)), (name, fun.name, str(k), other)
                perturbations += 1
        probes += 1
    assert probes > 30 and perturbations > 100 and lone_broken > 10
