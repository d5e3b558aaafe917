import pytest

from bicatkit.core import validate_bicategory
from bicatkit.elevator import load_computad
from bicatkit.library import load_fixture_bicategory
from bicatkit.presentation import ParseError, load_presentation, load_pseudofunctor

from tests.tables import implicit_structure_cases

TRIV_DOC = """
# one object, everything else synthesized
strict true
objects: pt
"""


def test_trivial_document_entity_counts():
    bic = load_presentation(TRIV_DOC, name="t")
    assert len(bic.objects) == 1
    assert len(bic.arrows) == 1
    assert len(bic.cells) == 1
    assert bic.id1["pt"] == "id_pt"
    assert bic.idc["id_pt"] == "id_id_pt"


def _reduce_word(word: str) -> str:
    """Independent oracle: normal forms of arrow words in the split fixture,
    by string rewriting (letters applied right-to-left, like composition)."""
    rules = [("rs", ""), ("sr", "e"), ("ee", "e"), ("es", "s"), ("re", "r")]
    changed = True
    while changed:
        changed = False
        for src, dst in rules:
            if src in word:
                word = word.replace(src, dst, 1)
                changed = True
                break
    return word


def test_split_document_closed_under_composition(split):
    bic = split.bicategory
    assert len(bic.objects) == 2
    assert len(bic.arrows) == 5
    ends = {"s": ("X", "Y"), "r": ("Y", "X"), "e": ("Y", "Y")}
    # every composable word of generators, length <= 4, folds through the
    # table and agrees with the word-rewriting oracle
    words = [""]
    for _ in range(4):
        words = [w + c for w in words for c in "sre"]
        for w in words:
            ok = all(
                ends[a][1] == ends[b][0] for a, b in zip(w[1:], w[:-1])
            )
            if not ok:
                continue
            acc = w[-1]
            for letter in reversed(w[:-1]):
                acc = bic.hcomp1[(letter, acc)]
            reduced = _reduce_word(w)
            want = reduced if reduced else "id_X"
            assert acc == want, (w, acc, want)


def test_split_has_declared_sigma(split):
    assert split.sigma_names == ("s", "r", "e")


def test_dangling_reference_rejected():
    doc = """
strict true
objects: X
arrows:
  f : X -> X
compose:
  f . q = f
"""
    with pytest.raises(ParseError, match="dangling reference to arrow 'q'"):
        load_presentation(doc)


def test_duplicate_ids_rejected():
    with pytest.raises(ParseError, match="duplicate arrow"):
        load_presentation(
            "objects: X\narrows:\n  f : X -> X\n  f : X -> X\n"
        )
    with pytest.raises(ParseError, match="duplicate object"):
        load_presentation("objects: X X\n")


def test_parse_error_carries_line_numbers():
    doc = "objects: X\narrows:\n  busted line here\n"
    with pytest.raises(ParseError) as err:
        load_presentation(doc)
    assert err.value.line == 3


def test_content_outside_section_rejected():
    with pytest.raises(ParseError, match="outside any section"):
        load_presentation("stray\n")


def test_undeclared_object_in_arrow_rejected():
    with pytest.raises(ParseError, match="undeclared object"):
        load_presentation("objects: X\narrows:\n  f : X -> Z\n")


def test_loaded_fixture_validates(split, iso, grpd, triv, twocell):
    for pres in (split, iso, grpd, triv, twocell):
        assert validate_bicategory(pres.bicategory).ok, pres.bicategory.name


def test_pseudofunctor_document_requires_total_maps(split, iso):
    with pytest.raises(ParseError, match="map_obj misses"):
        load_pseudofunctor("map_obj:\n  X -> A\n", split.bicategory, iso.bicategory)


def test_pseudofunctor_document_rejects_unknown_names(split, iso):
    doc = "map_obj:\n  X -> A\n  Y -> B\nmap_arr:\n  s -> nope\n"
    with pytest.raises(ParseError, match="dangling reference to target arrow"):
        load_pseudofunctor(doc, split.bicategory, iso.bicategory)


@pytest.mark.parametrize("doc, message, at", implicit_structure_cases(), ids=["xi", "phi", "phi-id"])
def test_implicit_structure_errors_name_the_map_arr_line_at_fault(doc, message, at):
    src, tgt = load_fixture_bicategory("chain_src"), load_fixture_bicategory("chain_tgt")
    line = doc.splitlines().index(f"  {at}") + 1
    with pytest.raises(ParseError) as info:
        load_pseudofunctor(doc, src, tgt)
    assert str(info.value) == f"line {line}, column 1: functor: {message}"


# one document per kind with a single entry in every keyed section; each case
# repeats that entry's line
KEYED_BIC = """
strict false
objects: X
arrows:
  f : X -> X
compose:
  f . f = f
cells:
  a : f => f
vcomp:
  a . a = a
lwhisk:
  f * a = a
rwhisk:
  a * f = a
unitors:
  lambda f = a
  rho f = a
assoc:
  theta f f f = a
"""
KEYED_PF = """
map_obj:
  X -> B
  Y -> A
map_arr:
  s -> v
  r -> u
  e -> id_A
xi:
  X = id_id_B
phi:
  r . s = id_id_B
"""
KEYED_CMP = """
objects: X
arrows:
  f : X -> X
cells:
  a : f => f
  sc : 1 => 1 @ X
"""


KEYED = {"bic": KEYED_BIC, "pf": KEYED_PF, "cmp": KEYED_CMP}


def _repeat(doc: str, line: str) -> str:
    return doc.replace(f"  {line}\n", f"  {line}\n  {line}\n", 1)


def _load_kind(kind, text, split, iso):
    if kind == "bic":
        return load_presentation(text)
    if kind == "pf":
        return load_pseudofunctor(text, split.bicategory, iso.bicategory)
    return load_computad(text)


@pytest.mark.parametrize(
    "kind, line, message",
    [
        ("bic", "f : X -> X", "duplicate arrow 'f'"),
        ("bic", "f . f = f", "duplicate compose entry f . f"),
        ("bic", "a : f => f", "duplicate cell 'a'"),
        ("bic", "a . a = a", "duplicate vcomp entry a . a"),
        ("bic", "f * a = a", "duplicate lwhisk entry f * a"),
        ("bic", "a * f = a", "duplicate rwhisk entry a * f"),
        ("bic", "lambda f = a", "duplicate lambda entry for 'f'"),
        ("bic", "rho f = a", "duplicate rho entry for 'f'"),
        ("bic", "theta f f f = a", "duplicate assoc entry theta f f f"),
        ("pf", "X -> B", "duplicate map_obj entry for 'X'"),
        ("pf", "s -> v", "duplicate map_arr entry for 's'"),
        ("pf", "X = id_id_B", "duplicate xi entry for 'X'"),
        ("pf", "r . s = id_id_B", "duplicate phi entry r . s"),
        ("cmp", "f : X -> X", "duplicate arrow 'f'"),
        ("cmp", "a : f => f", "duplicate cell 'a'"),
    ],
)
def test_repeated_key_rejected_in_every_keyed_section(split, iso, kind, line, message):
    doc = KEYED[kind]
    _load_kind(kind, doc, split, iso)  # the document itself is accepted
    with pytest.raises(ParseError) as err:
        _load_kind(kind, _repeat(doc, line), split, iso)
    assert message in str(err.value)
    assert err.value.line == doc.splitlines().index(f"  {line}") + 2


@pytest.mark.parametrize(
    "kind, line, changed, message",
    [
        ("bic", "f : X -> X", "f : X -> Q", "arrow 'f' references undeclared object 'Q'"),
        ("bic", "f . f = f", "f . q = f", "dangling reference to arrow 'q'"),
        ("bic", "a : f => f", "a : q => f", "dangling reference to arrow 'q'"),
        ("bic", "a . a = a", "a . a = q", "dangling reference to cell 'q'"),
        ("bic", "f * a = a", "q * a = a", "dangling reference to arrow 'q'"),
        ("bic", "a * f = a", "a * f = q", "dangling reference to cell 'q'"),
        ("bic", "rho f = a", "rho q = a", "dangling reference to arrow 'q'"),
        ("bic", "theta f f f = a", "theta f f f = q", "dangling reference to cell 'q'"),
        ("pf", "X -> B", "Q -> B", "dangling reference to source object 'Q'"),
        ("pf", "X -> B", "X -> Q", "dangling reference to target object 'Q'"),
        ("pf", "s -> v", "q -> v", "dangling reference to source arrow 'q'"),
        ("pf", "s -> v", "s -> q", "dangling reference to target arrow 'q'"),
        ("pf", "X = id_id_B", "Q = id_id_B", "dangling reference to source object 'Q'"),
        ("pf", "X = id_id_B", "X = q", "dangling reference to target cell 'q'"),
        ("pf", "r . s = id_id_B", "r . q = id_id_B", "dangling reference in phi entry r . q"),
        ("pf", "r . s = id_id_B", "r . s = q", "dangling reference to target cell 'q'"),
        ("cmp", "f : X -> X", "f : Q -> X", "arrow 'f' references undeclared object 'Q'"),
        ("cmp", "a : f => f", "a : f => q", "unknown arrow 'q' in path"),
        ("cmp", "a : f => f", "a : f.q.f => f", "unknown arrow 'q' in path"),
        ("cmp", "a : f => f", "a : q => f", "unknown arrow 'q' in path"),
        ("cmp", "sc : 1 => 1 @ X", "sc : 1 => 1 @ Q", "cell 'sc' anchored at unknown object"),
    ],
)
def test_dangling_reference_rejected_in_every_column(split, iso, kind, line, changed, message):
    doc = KEYED[kind]
    with pytest.raises(ParseError) as err:
        _load_kind(kind, doc.replace(f"  {line}\n", f"  {changed}\n", 1), split, iso)
    assert message in str(err.value)
    assert err.value.line == doc.splitlines().index(f"  {line}") + 1


@pytest.mark.parametrize(
    "kind, foreign",
    [
        ("bic", "map_obj:"),
        ("bic", "xi:"),
        ("bic", "phi:"),
        ("pf", "sigma: s"),
        ("pf", "unitors:"),
        ("pf", "assoc:"),
        ("pf", "lwhisk:"),
        ("pf", "rwhisk:"),
        ("pf", "strict true"),
        ("cmp", "compose:"),
        ("cmp", "vcomp:"),
        ("cmp", "sigma: f"),
        ("cmp", "map_arr:"),
        ("cmp", "strict false"),
    ],
)
def test_foreign_section_rejected_at_its_line(split, iso, kind, foreign):
    doc = KEYED[kind]
    lines = doc.splitlines()
    text = "\n".join(lines[:2] + [foreign] + lines[2:]) + "\n"
    noun = {"bic": "bicategory", "pf": "pseudofunctor", "cmp": "computad"}[kind]
    with pytest.raises(ParseError, match=f"not allowed in a {noun} file") as err:
        _load_kind(kind, text, split, iso)
    assert err.value.line == 3


def test_computad_object_names_are_checked():
    with pytest.raises(ParseError, match="bad name 'b@d!'") as err:
        load_computad("objects: X b@d!\n")
    assert (err.value.line, err.value.column) == (1, 3)


def test_computad_arrow_to_undeclared_object_rejected_at_its_line():
    doc = "objects: X\narrows:\n  f : X -> X\n  g : X -> Z\ncells:\n  a : f => f\n"
    with pytest.raises(ParseError, match="arrow 'g' references undeclared object 'Z'") as err:
        load_computad(doc)
    assert err.value.line == 4
