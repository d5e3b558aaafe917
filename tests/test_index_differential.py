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
(see ``without_location``), a bad name's column, now counted from the start
of its raw line (see ``in_raw_columns``), and perturbations of a lone
identity-cell term, which the unit pins and the reference left to its whisker
loop.

The column-wise reader is also held to the per-entry reader it replaced
(``reference_scans.Document``), loading every document of these corpora
through the same fills: the same tables in storage order, the same ``where``
maps and the same first error up to ``in_raw_columns``, also on documents two
edits off the seeds, which can hold two errors at once.  Its incidence index
equals the one ``core._group`` files over the sorted ids.
"""
import itertools
import random
import re
from unittest import mock

import pytest

from bench import families
from bicatkit import elevator, presentation
from bicatkit.core import StructureError, _group
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
    """The parse of text equals the hand-written builder's, and the per-entry
    reader's in storage order too, with the same where maps and the same
    first error; the incidence index is the one _group files."""
    assert_same_reading(lambda: load_presentation_with_sigma(text, name), text, bicategory_view)
    new, old = parse_both(text, name)
    old = in_raw_columns(old, text)
    if newly_rejected("bic", new, old):
        return None
    if isinstance(old, str):
        assert new == old, name
        return None
    assert not isinstance(new, str), (name, new)
    assert new.sigma_names == old.sigma_names, name
    for field in TABLE_FIELDS:
        assert getattr(new.bicategory, field) == getattr(old.bicategory, field), (name, field)
    assert index_of(new.bicategory) == regrouped(new.bicategory), name
    return new


def in_order(value):
    """A table as its items in storage order; any other field as it is."""
    return list(value.items()) if isinstance(value, dict) else value


def bicategory_view(pres):
    bic = pres.bicategory
    return pres.sigma_names, [in_order(getattr(bic, field)) for field in TABLE_FIELDS]


INDEX = (
    "_arrows_between", "_out_arrows", "_in_arrows", "_cells_between", "_cells_from",
    "_cells_to", "_out_cells", "_in_cells",
)


def index_of(bic):
    """The incidence index: the sorted ids and each grouping's items in order."""
    return bic._sorted_arrows, bic._sorted_cells, [in_order(getattr(bic, g)) for g in INDEX]


def regrouped(bic):
    """The incidence index rebuilt with one _group pass per grouping over the
    sorted ids."""
    arrows, cells = tuple(sorted(bic.arrows)), tuple(sorted(bic.cells))
    typed = [a for a in cells if bic.cells[a][0] in bic.arrows]
    groups = (
        _group(arrows, bic.arrows.get),
        _group(arrows, lambda f: bic.arrows[f][0]),
        _group(arrows, lambda f: bic.arrows[f][1]),
        _group(cells, bic.cells.get),
        _group(cells, lambda a: bic.cells[a][0]),
        _group(cells, lambda a: bic.cells[a][1]),
        _group(typed, lambda a: bic.arrows[bic.cells[a][0]][0]),
        _group(typed, lambda a: bic.arrows[bic.cells[a][0]][1]),
    )
    return arrows, cells, [in_order(g) for g in groups]


def read_with(reader, load, view):
    """view(load()) or its ParseError text, with every document that load
    opens read by reader, and the where maps of those documents."""
    docs = []

    class Recorded(reader):
        def __init__(self, *args):
            super().__init__(*args)
            docs.append(self)

    with mock.patch.object(presentation, "Document", Recorded):
        with mock.patch.object(elevator, "Document", Recorded):
            result = parsed(load, view)
    return result, [doc.where for doc in docs]


def assert_same_reading(load, text, view):
    """The column-wise reader and the per-entry reader it replaced give the
    same view of load() and the same where maps, or the same first error up to
    in_raw_columns."""
    new, new_where = read_with(presentation.Document, load, view)
    old, where = read_with(ref.Document, load, view)
    assert new == in_raw_columns(old, text), text
    if not isinstance(new, str):
        assert new_where == where, text
    return new


BAD_NAME = re.compile(r"ParseError: line (\d+), column (\d+): (bad name .*)")
HEADER = re.compile(rf"(?:{'|'.join(ref._SECTIONS)}):\s*")


def in_raw_columns(result, text):
    """result with the column of a bad-name error counted from the start of
    its raw line: the older readers count it from the start of the entry, the
    one way the reader's errors may differ from theirs."""
    m = isinstance(result, str) and BAD_NAME.fullmatch(result)
    if not m:
        return result
    line, column, message = m.groups()
    code = text.splitlines()[int(line) - 1].split("#", 1)[0]
    header = HEADER.match(code.strip())
    start = len(code) - len(code.lstrip()) + (header.end() if header else 0)
    return f"ParseError: line {line}, column {start + int(column)}: {message}"


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


def edit(lines, i, rng, names, kind=None):
    """Drop line i, double it, or replace one of its names by one of names."""
    kind = rng.randrange(3) if kind is None else kind
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split(" ")
        j = rng.randrange(len(toks))
        toks[j] = rng.choice(names)
        lines[i] = " ".join(toks)


def line_mutants(text, rng, count):
    """Documents that differ from text in one line: dropped, doubled, or with
    one name replaced by another name of the document."""
    lines = text.splitlines()
    names = sorted(set(doc_names(text)))
    for _ in range(count):
        out = list(lines)
        edit(out, rng.randrange(len(out)), rng, names)
        yield "\n".join(out) + "\n"


def two_edit_mutants(text, rng, count):
    """Documents two edits off text, alternately on two different lines (the
    later edited first, so each edit lands on the line drawn for it) and two
    name replacements on one line."""
    lines = text.splitlines()
    names = sorted(set(doc_names(text)))
    for n in range(count):
        out = list(lines)
        if n % 2:
            i, j = sorted(rng.sample(range(len(out)), 2))
            edit(out, j, rng, names)
            edit(out, i, rng, names)
        else:
            i = rng.randrange(len(out))
            edit(out, i, rng, names, kind=2)
            edit(out, i, rng, names, kind=2)
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


def mutant_seeds(strict):
    """(name, text) of the fixtures, the coherence document and the generated
    families at n = 3, strict or not."""
    seeds = [(n, fixture_text(f"{n}.bic")) for n in BICATEGORIES]
    seeds.append(("coherence", COHERENCE_DOC))
    seeds += [
        (doc.name, doc.text())
        for doc in (families.generate(f, 3, 1, marked=True) for f in families.FAMILIES)
    ]
    return [(name, text if strict else as_non_strict(text)) for name, text in seeds]


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "non-strict"))
def test_parser_line_mutants_match_reference(strict):
    rng = random.Random(f"line-mutants:{strict}")
    errors = 0
    for name, text in mutant_seeds(strict):
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


def ordered_functor_view(fun):
    return [in_order(table) for table in functor_view(fun)]


def computad_view(comp):
    return comp.objects, in_order(comp.arrows), in_order(comp.cells)


def test_pseudofunctor_reader_matches_reference():
    src, tgt = load_fixture_bicategory("chain_src"), load_fixture_bicategory("chain_tgt")
    # the fixture, and the fixture with explicit xi entries
    with_xi = fixture_text("chain_f.pf") + "xi:\n  W = id_id_W\n  X = id_id_X\n"
    rng = random.Random("pf-line-mutants")
    seen = {"same": 0, "error": 0, "new": 0}
    docs = [fixture_text("chain_f.pf"), with_xi]
    for doc in docs + [m for text in docs for m in line_mutants(text, rng, 200)]:
        assert_same_reading(lambda: load_pseudofunctor(doc, src, tgt), doc, ordered_functor_view)
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
            assert_same_reading(lambda: load_computad(doc, "c"), doc, computad_view)
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


def two_edit_cases(kind):
    """(documents, load, view) per document kind: the documents whose two-edit
    mutants are read, how to load one, and what of it to compare."""
    if kind == "bic":
        for strict in (True, False):
            for name, text in mutant_seeds(strict):
                load = lambda doc, name=name: load_presentation_with_sigma(doc, name)  # noqa: E731
                yield [text], load, bicategory_view
    elif kind == "pf":
        src, tgt = load_fixture_bicategory("chain_src"), load_fixture_bicategory("chain_tgt")
        docs = [fixture_text("chain_f.pf"), fixture_text("chain_f.pf") + "xi:\n  W = id_id_W\n"]
        yield docs, lambda doc: load_pseudofunctor(doc, src, tgt), ordered_functor_view
    else:
        yield COMPUTADS, lambda doc: load_computad(doc, "c"), computad_view


@pytest.mark.parametrize("kind", ("bic", "pf", "cmp"))
def test_two_edit_mutants_fail_where_the_per_entry_reader_fails(kind):
    """With two edits a document can hold two errors, so the first one
    reported pins the order of the checks: the lowest failing row, and within
    it syntax, then names left to right, a repeated _NEW name at its place and
    any other repeated key last.  The hand-written builder is not the
    reference here: it checks arrow endpoints after the whole section."""
    rng = random.Random(f"two-edit-mutants:{kind}")
    errors = set()
    for docs, load, view in two_edit_cases(kind):
        for mutant in (m for text in docs for m in two_edit_mutants(text, rng, 60)):
            result = assert_same_reading(lambda: load(mutant), mutant, view)
            if isinstance(result, str):
                errors.add(re.sub(r"'[^']*'|\d+| entry .*|\[.*\]", "_", result))
    assert len(errors) >= {"bic": 15, "pf": 9, "cmp": 8}[kind], sorted(errors)


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
