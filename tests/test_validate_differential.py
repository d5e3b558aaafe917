"""The indexed validator against the scan-and-filter validator it replaced.

``reference_validate_bicategory`` (tests/reference_validator.py) is the old
code.  Both must return equal reports, the same violations in the same order,
on the bundled fixtures, on the acceptance-1 mutation stream and on the
benchmark's generated families, clean and with every mutation kind.  The
reference runs every sweep; the validator skips H2, and on strict tables the
pentagon and triangle, where they cannot fire, so the last tests give each
premise of those skips a table where it alone fails.  It also checks
vertical associativity, W1, W3 and the unitor and associator naturality
squares only on instances with no identity input while ``vcomp-unit`` and
W2 hold, so further tests break each of those two laws and compare the
reports, whose violations then include instances with identity inputs.
Its one walk of the composable triples passes a triple whose associator is
the identity of both composites while ``vcomp-unit`` holds, so the last
tests move associators off that identity, with and without the unit law,
and insert the composition tables in other orders, since the typing loops
sort only the violations they report.  Where every unitor, or every
associator, is an identity, the naturality squares are checked as
whiskering laws, so tests project one whisker of a monoid-valued table and
move a unitor or an associator off the identity.
"""
import ast
import itertools
import random
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from bench import families
from bicatkit.core import Bicategory, Violation, validate_bicategory
from bicatkit.library import BICATEGORIES, load_fixture_bicategory
from bicatkit.presentation import load_presentation_with_sigma

from tests.reference_validator import (
    composable_arrow_pairs,
    composable_arrow_triples,
    reference_validate_bicategory,
)
from tests.test_acceptance import _mutations
from tests.tables import UNITOR_DOC, rebuild

# generated sizes kept small: the reference validator is quartic
SIZES = {"chain": (3, 4, 8), "chain_z2": (4, 7), "chaotic": (2, 3, 5), "chaotic_z2": (2, 3, 5)}


def assert_same_report(bic):
    got = validate_bicategory(bic)
    assert got == reference_validate_bicategory(bic), bic.name
    return got


def assert_same_enumeration(bic):
    assert bic.composable_arrow_pairs() == tuple(composable_arrow_pairs(bic))
    assert bic.composable_arrow_triples() == tuple(composable_arrow_triples(bic))


def generated(family, n, seed, mutation=None):
    doc = families.generate(family, n, seed)
    if mutation is not None:
        doc = families.mutate(doc, mutation, seed)
    return load_presentation_with_sigma(doc.text(), name=doc.name).bicategory


@pytest.mark.parametrize("name", BICATEGORIES)
def test_fixtures_and_their_mutants_match_reference(name):
    bic = load_fixture_bicategory(name)
    assert assert_same_report(bic).ok
    assert_same_enumeration(bic)
    stream = _mutations(bic, random.Random(f"differential:{name}"))
    flagged = 0
    for mutant, _desc in itertools.islice(stream, 300):
        flagged += not assert_same_report(mutant).ok
    assert flagged >= 50, f"{name}: only {flagged} violating mutants"


@pytest.mark.parametrize("family", families.FAMILIES)
def test_generated_families_match_reference(family):
    for n, seed in itertools.product(SIZES[family], (1, 2)):
        bic = generated(family, n, seed)
        assert assert_same_report(bic).ok
        assert_same_enumeration(bic)
        for m in families.mutations_for(family):
            mutant = generated(family, n, seed, m.name)
            rep = assert_same_report(mutant)
            assert m.expected in rep.axioms(), (mutant.name, m.expected)
            assert_same_enumeration(mutant)
            assert_same_report(rebuild(mutant, strict=False))


@pytest.mark.parametrize("family", ("chain_z2", "chaotic_z2"))
def test_generated_single_entry_mutants_match_reference(family):
    bic = generated(family, 3, 7)
    stream = _mutations(bic, random.Random(f"differential:{family}"))
    for mutant, _desc in itertools.islice(stream, 150):
        assert_same_report(mutant)


def whiskers_killed(bic, rng):
    """Whiskering by a non-identity arrow sends a seeded half of the z cells
    to identities.  Each whisker stays a homomorphism of Z/2, so every axiom
    up to H2 holds, while many associator naturality squares (Ntheta1-3)
    fail, several per cell."""
    ids = set(bic.id1.values())
    lwhisk, rwhisk = dict(bic.lwhisk), dict(bic.rwhisk)
    for table, arrow_of in ((lwhisk, lambda key: key[0]), (rwhisk, lambda key: key[1])):
        for key, c in table.items():
            if arrow_of(key) not in ids and not bic.is_identity_cell(c) and rng.random() < 0.5:
                table[key] = bic.idc[bic.cell_src(c)]
    return rebuild(bic, lwhisk=lwhisk, rwhisk=rwhisk)


def redirected(name, bic, rng):
    """Each entry of a cell-valued table moves, with probability 1/2, to a
    seeded cell of the same hom: typing holds and the laws fail many times."""
    table = dict(getattr(bic, name))
    for key, c in table.items():
        if rng.random() < 0.5:
            table[key] = rng.choice(bic.cells_between(*bic.cells[c]))
    return rebuild(bic, **{name: table})


def deleted(name, bic, rng):
    """A seeded half of the entries of a table are gone."""
    table = {key: c for key, c in getattr(bic, name).items() if rng.random() < 0.5}
    return rebuild(bic, **{name: table})


@pytest.mark.parametrize("scramble, tags", [
    (whiskers_killed, {"Ntheta1", "Ntheta2", "Ntheta3"}),
    (partial(redirected, "assoc"), {"pentagon", "triangle"}),
    (partial(redirected, "vcomp"), {"vcomp-unit", "vcomp-assoc", "W1"}),
    (partial(deleted, "lwhisk"), {"lwhisk-totality"}),
    (partial(deleted, "rwhisk"), {"rwhisk-totality"}),
])
@pytest.mark.parametrize("family, n", [("chain_z2", 5), ("chaotic_z2", 3)])
def test_many_violations_per_axiom_keep_their_order(scramble, tags, family, n):
    for seed in range(3):
        bic = scramble(generated(family, n, seed), random.Random(seed))
        rep = assert_same_report(bic)
        assert tags <= rep.axioms(), (bic.name, rep.axioms())


def test_validator_is_not_quartic():
    """On chain(16) x Z/2 (136 arrows, 272 cells) the scan-and-filter
    validator took over 300 times as long as the indexed one, far beyond this
    bound.  The bound may be tightened but never loosened."""
    bic = generated("chain_z2", 16, 1)
    assert (len(bic.arrows), len(bic.cells)) == (136, 272)
    t0 = time.perf_counter()
    rep = validate_bicategory(bic)
    elapsed = time.perf_counter() - t0
    assert rep.ok
    assert elapsed < 3.0, f"validating chain_z2(16) took {elapsed:.2f}s"


# -- sweeps that run only where they can fire ---------------------------------


def axiom_counts(rep):
    return Counter(v.axiom for v in rep.violations)


def moved(bic, name, key, cell):
    """bic with one entry of a cell-valued table moved to another cell."""
    table = dict(getattr(bic, name))
    table[key] = cell
    return rebuild(bic, **{name: table})


def units_swapped(bic):
    """Every identity cell id_f and its Z/2 partner z_f trade places in idc,
    in the unitors and in the associators.  Typing, W1-W3, H2 and every
    strictness check still hold (unitors and associators are the new
    identities), but z_f . z_f = id_f breaks each vcomp unit law."""
    swap = {}
    for f, i in bic.idc.items():
        swap[i], swap[f"z_{f}"] = f"z_{f}", i
    return rebuild(
        bic,
        idc={f: f"z_{f}" for f in bic.idc},
        **{
            name: {key: swap[c] for key, c in getattr(bic, name).items()}
            for name in ("lunitor", "runitor", "assoc")
        },
    )


@pytest.mark.parametrize("n, counts", [
    (2, {"vcomp-unit": 16, "pentagon": 32, "triangle": 8}),
    (3, {"vcomp-unit": 36, "pentagon": 243, "triangle": 27}),
])
def test_vcomp_unit_alone_gates_pentagon_and_triangle(n, counts):
    """On a strict table where vcomp-unit is the only premise that fails,
    pentagon and triangle are still checked and still fire."""
    bic = units_swapped(generated("chaotic_z2", n, 1))
    assert bic.strict
    rep = assert_same_report(bic)
    assert axiom_counts(rep) == counts


def test_strict_assoc_cell_alone_gates_pentagon_and_triangle():
    """One associator that is z, not the identity, of its arrow: only
    strict-assoc-cell among the premises fails; the strictness entries stay
    after the triangle."""
    bic = generated("chaotic_z2", 2, 1)
    i = bic.id1[sorted(bic.objects)[0]]
    rep = assert_same_report(moved(bic, "assoc", (i, i, i), f"z_{i}"))
    assert axiom_counts(rep) == {"pentagon": 6, "triangle": 1, "strict-assoc-cell": 1}
    assert [v.axiom for v in rep.violations][-2:] == ["triangle", "strict-assoc-cell"]


@pytest.mark.parametrize("name", ["lunitor", "runitor"])
def test_strict_unitors_alone_gates_the_triangle(name):
    """One unitor that is z_f, not id_f: Z/2 is abelian, so naturality
    holds, and only strict-unitors among the premises fails."""
    bic = generated("chaotic_z2", 2, 1)
    f = next(f for f in sorted(bic.arrows) if f not in bic.id1.values())
    rep = assert_same_report(moved(bic, name, f, f"z_{f}"))
    assert axiom_counts(rep) == {"triangle": 2, "strict-unitors": 1}


def anti_associative(strict):
    """One object X and arrows a, b composed by x . y = swap(x), so that
    h . (g . f) != (h . g) . f for all h, g, f in {a, b}.  Each hom category
    on {a, b} is chaotic x Z/2: a cell x => y of parity p is c_x_y_p, and
    composing and whiskering add parities.  Every associator of three
    non-identity arrows has parity 1, the others are identities.  Every
    axiom before the pentagon holds; the pentagon adds parities 1 + 1 on its
    left and 1 + 1 + 1 on its right.  With every other premise true, only
    strict-assoc says that the table is not strict."""
    ab = ("a", "b")
    swap = {"a": "b", "b": "a"}

    def comp(g, f):
        return f if g == "id_X" else g if f == "id_X" else swap[g]

    def cell(x, y, p):
        return "id_id_X" if x == "id_X" else f"c_{x}_{y}_{p}"

    arrows = {"id_X": ("X", "X"), "a": ("X", "X"), "b": ("X", "X")}
    spans = [("id_X", "id_X", 0)] + [(x, y, p) for x in ab for y in ab for p in (0, 1)]
    names = {cell(*s): s for s in spans}
    pairs = itertools.product(arrows, repeat=2)
    return Bicategory(
        name="anti_assoc",
        objects=("X",),
        arrows=arrows,
        id1={"X": "id_X"},
        hcomp1={(g, f): comp(g, f) for g, f in pairs},
        cells={c: (x, y) for c, (x, y, _) in names.items()},
        idc={f: cell(f, f, 0) for f in arrows},
        vcomp={
            (d, c): cell(x, w, (p + q) % 2)
            for c, (x, y, p) in names.items()
            for d, (y2, w, q) in names.items()
            if y2 == y
        },
        lwhisk={(g, c): cell(comp(g, x), comp(g, y), p) for g in arrows for c, (x, y, p) in names.items()},
        rwhisk={(c, f): cell(comp(x, f), comp(y, f), p) for f in arrows for c, (x, y, p) in names.items()},
        lunitor={f: cell(f, f, 0) for f in arrows},
        runitor={f: cell(f, f, 0) for f in arrows},
        assoc={
            (h, g, f): cell(comp(h, comp(g, f)), comp(comp(h, g), f), int("id_X" not in (h, g, f)))
            for h, g, f in itertools.product(arrows, repeat=3)
        },
        strict=strict,
    )


def test_strict_assoc_alone_gates_the_pentagon():
    """The generated families and the fixtures have at most one arrow per
    hom, so strict-assoc cannot fail there without another premise; this
    hand-built table is a case where it is the only one."""
    rep = assert_same_report(anti_associative(strict=True))
    assert axiom_counts(rep) == {"pentagon": 16, "strict-assoc": 8}


def test_pentagon_and_triangle_run_on_every_non_strict_table():
    rep = assert_same_report(anti_associative(strict=False))
    assert axiom_counts(rep) == {"pentagon": 16}
    grpd = rebuild(load_fixture_bicategory("grpd"), strict=False)
    rep = assert_same_report(moved(grpd, "assoc", ("id_P", "id_P", "id_P"), "g"))
    assert {"pentagon", "triangle"} <= rep.axioms()


SWEPT = ("vcomp", "lwhisk", "rwhisk", "assoc", "lunitor", "runitor")


def single_entry_mutants(bic):
    """(table, key, cell): one entry moved to another cell of its boundary."""
    for name in SWEPT:
        table = getattr(bic, name)
        for key in sorted(table):
            for c in bic.cells_between(*bic.cells[table[key]]):
                if c != table[key]:
                    yield name, key, c


def sweep_tables():
    for family, n in itertools.product(families.FAMILIES, (2, 3, 4)):
        yield f"{family}({n})", generated(family, n, 1)
    grpd = load_fixture_bicategory("grpd")
    yield "grpd", grpd
    yield "grpd non-strict", rebuild(grpd, strict=False)


def test_single_entry_mutant_sweep_matches_reference():
    """A seeded subset of the single-entry mutants of the six cell-valued
    tables: at most 8 per table and bicategory, each declared strict as
    generated and again non-strict.  chain and chaotic have one cell per
    hom, so only their clean tables are compared."""
    rng = random.Random("validate-sweep")
    seen = Counter()
    for label, bic in sweep_tables():
        assert assert_same_report(bic).ok, label
        by_table = {}
        for name, key, c in single_entry_mutants(bic):
            by_table.setdefault(name, []).append((key, c))
        if label.startswith(("chain(", "chaotic(")):
            assert not by_table, label
        for name, entries in sorted(by_table.items()):
            for key, c in rng.sample(entries, min(8, len(entries))):
                mutant = moved(bic, name, key, c)
                seen.update(assert_same_report(mutant).axioms())
                if mutant.strict:
                    seen.update(assert_same_report(rebuild(mutant, strict=False)).axioms())
    assert {"vcomp-unit", "vcomp-assoc", "W1", "W3", "Ntheta2", "pentagon", "triangle",
            "strict-unitors", "strict-assoc-cell"} <= set(seen), seen


def validate_tables_shapes():
    """(family, n) of every clean table of the validate-tables workload, read
    from bench/workloads.py without importing it."""
    tree = ast.parse(Path(families.__file__).with_name("workloads.py").read_text())
    found = {
        t.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if getattr(t, "id", "").startswith("VALIDATE_")
    }
    return sorted({(f, n) for f, n, *_ in found["VALIDATE_POOL"] + found["VALIDATE_EXTRA"]})


@pytest.fixture
def hcomp2_calls(monkeypatch):
    calls = []
    real = Bicategory.hcomp2

    def counted(self, beta, alpha):
        calls.append((beta, alpha))
        return real(self, beta, alpha)

    monkeypatch.setattr(Bicategory, "hcomp2", counted)
    return calls


def test_clean_benchmark_tables_skip_interchange(hcomp2_calls):
    shapes = validate_tables_shapes()
    assert len(shapes) == 15
    for family, n in shapes:
        assert validate_bicategory(generated(family, n, 1)).ok
    assert hcomp2_calls == []


def test_interchange_runs_beside_a_vcomp_assoc_violation(hcomp2_calls):
    """grpd with id . id = g: the mutant of the fixture stream whose H2
    violations the sweep must still find."""
    grpd = load_fixture_bicategory("grpd")
    rep = assert_same_report(moved(grpd, "vcomp", ("id_id_P", "id_id_P"), "g"))
    assert {"vcomp-assoc", "H2"} <= rep.axioms()
    assert hcomp2_calls


# -- instances with identity inputs -------------------------------------------


def whisker_unit_broken(bic):
    """The whisker g * id_f of the first composable pair moved to the other
    cell of g*f: W2 fails once, and W3 on instances with identity inputs."""
    g, f = bic.composable_arrow_pairs()[0]
    gf = bic.hcomp1[(g, f)]
    other = next(c for c in bic.cells_between(gf, gf) if c != bic.idc[gf])
    return moved(bic, "lwhisk", (g, bic.idc[f]), other)


def vcomp_unit_broken(bic):
    """z . id_f, for the first non-identity cell z on f, moved to id_f:
    ``vcomp-unit`` fails once, and vertical associativity, W1 and W3 on
    instances with identity inputs."""
    z = next(a for a in sorted(bic.cells) if not bic.is_identity_cell(a))
    f = bic.cell_src(z)
    return moved(bic, "vcomp", (z, bic.idc[f]), bic.idc[f])


def both_units_broken(bic):
    """Both of the above: W1 and W2 fire together, in their order."""
    return vcomp_unit_broken(whisker_unit_broken(bic))


def identity_input_tables():
    for family, n in itertools.product(("chain_z2", "chaotic_z2"), (2, 3, 4)):
        yield f"{family}({n})", generated(family, n, 1)
    yield "grpd", load_fixture_bicategory("grpd")


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("broken, tags", [
    (whisker_unit_broken, {"W2", "W3"}),
    (vcomp_unit_broken, {"vcomp-unit", "vcomp-assoc", "W1"}),
    (both_units_broken, {"vcomp-unit", "vcomp-assoc", "W1", "W2"}),
])
def test_identity_inputs_are_checked_beside_a_unit_law_violation(broken, tags, strict):
    """With ``vcomp-unit`` or W2 broken, every instance is checked again:
    the reports equal the reference's, and the named axioms fire on
    instances with an identity cell among their inputs."""
    for label, bic in identity_input_tables():
        if not strict:
            bic = rebuild(bic, strict=False)
        mutant = broken(bic)
        rep = assert_same_report(mutant)
        with_identity = {
            v.axiom for v in rep.violations if any(map(mutant.is_identity_cell, v.witness))
        }
        assert tags - {"W2", "vcomp-unit"} <= with_identity, (label, rep.axioms())
        assert tags <= rep.axioms(), (label, rep.axioms())
        if label != "grpd":  # one arrow, where no W3 instance fails
            assert "W3" in with_identity, (label, rep.axioms())
        order = [v.axiom for v in rep.violations if v.axiom in ("W1", "W2", "W3")]
        assert order == sorted(order), (label, order)


@pytest.fixture
def index_calls(monkeypatch):
    calls = Counter()
    for name in ("cells_from", "out_cells"):
        real = getattr(Bicategory, name)

        def counted(self, key, name=name, real=real):
            calls[name, key] += 1
            return real(self, key)

        monkeypatch.setattr(Bicategory, name, counted)
    return calls


def test_clean_benchmark_tables_sweep_only_non_identity_cells(index_calls):
    """On the clean validate-tables shapes the equation sweeps look up the
    cells after a cell (``cells_from``: vertical associativity, twice, and
    W3) and the cells composable with it (``out_cells``: W1) only for
    non-identity cells, so never on chain and chaotic, whose cells are all
    identities."""
    shapes = validate_tables_shapes()
    assert len(shapes) == 15
    for family, n in shapes:
        bic = generated(family, n, 1)
        want = Counter()
        for a in sorted(bic.cells):
            if bic.is_identity_cell(a):
                continue
            f1, f2 = bic.cells[a]
            want["cells_from", f2] += 2
            want["out_cells", bic.arrow_dst(f1)] += 1
            for b in bic.cells_from(f2):
                if not bic.is_identity_cell(b):
                    want["cells_from", bic.cell_dst(b)] += 1
        index_calls.clear()
        if not family.endswith("_z2"):
            assert not want
        assert validate_bicategory(bic).ok
        assert index_calls == want, (family, n)


# -- one walk of the composable triples ---------------------------------------

# Z/2 x {1, e} with e idempotent: element (s, t) is z^s e^t
MONOID = [(s, t) for s in (0, 1) for t in (0, 1)]
ONE, Z, E = (0, 0), (1, 0), (0, 1)


def chaotic_monoid(n, unit):
    """chaotic(n), one arrow aij : Xi -> Xj for each pair of objects with aii
    the identity, where every hom is the commutative monoid Z/2 x {1, e}:
    c_f_st is z^s e^t on f, vcomp multiplies, whiskering keeps the element.
    idc, the unitors and the associators all name the element ``unit``.
    With ONE this is a valid strict table.  With Z, not a unit, only
    ``vcomp-unit``, pentagon and triangle fail, so the associator walk runs
    without its fast path.  An e cell is invertible under neither."""
    objects = [f"X{i}" for i in range(n)]
    arrows = {f"a{i}{j}": (objects[i], objects[j]) for i in range(n) for j in range(n)}
    pairs = [(g, f) for g in arrows for f in arrows if f[2] == g[1]]

    def comp(g, f):
        return f"a{f[1]}{g[2]}"

    def cell(f, m):
        return f"c_{f}_{m[0]}{m[1]}"

    def mul(k, m):
        return ((k[0] + m[0]) % 2, k[1] | m[1])

    return Bicategory(
        name=f"chaotic_monoid({n}, {unit})",
        objects=objects,
        arrows=arrows,
        id1={x: f"a{i}{i}" for i, x in enumerate(objects)},
        hcomp1={(g, f): comp(g, f) for g, f in pairs},
        cells={cell(f, m): (f, f) for f in arrows for m in MONOID},
        idc={f: cell(f, unit) for f in arrows},
        vcomp={(cell(f, k), cell(f, m)): cell(f, mul(k, m)) for f in arrows for k in MONOID for m in MONOID},
        lwhisk={(g, cell(f, m)): cell(comp(g, f), m) for g, f in pairs for m in MONOID},
        rwhisk={(cell(g, m), f): cell(comp(g, f), m) for g, f in pairs for m in MONOID},
        lunitor={f: cell(f, unit) for f in arrows},
        runitor={f: cell(f, unit) for f in arrows},
        assoc={(h, g, f): cell(comp(h, comp(g, f)), unit) for h, g in pairs for f in arrows if f[2] == g[1]},
        strict=True,
    )


def associators_set(bic, entry):
    """bic with the associators of its first, middle and last composable
    triples set to entry(bic, composite), or deleted where that is None."""
    triples = bic.composable_arrow_triples()
    assoc = dict(bic.assoc)
    for t in (triples[0], triples[len(triples) // 2], triples[-1]):
        h, g, f = t
        cell = entry(bic, bic.hcomp1[(h, bic.hcomp1[(g, f)])])
        if cell is None:
            del assoc[t]
        else:
            assoc[t] = cell
    return rebuild(bic, assoc=assoc)


def another_arrows_identity(bic, s):
    return bic.idc[next(f for f in sorted(bic.arrows) if f != s)]


def element(m):
    return lambda bic, s: f"c_{s}_{m[0]}{m[1]}"


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("unit", [ONE, Z], ids=["units-hold", "vcomp-unit-broken"])
@pytest.mark.parametrize("entry, tag", [
    (lambda bic, s: None, "assoc-missing"),
    (another_arrows_identity, "assoc-typing"),
    (element(E), "assoc-invertible"),
    (None, "strict-assoc-cell"),
])
def test_associator_walk_slow_path_matches_reference(entry, tag, unit, strict):
    """Associators of triples whose two composites agree, each moved off the
    identity of that composite: deleted, the identity of another arrow (an
    identity cell, but mistyped), an e cell (not invertible), or the other
    unit-like cell, invertible but no identity cell (strict-assoc-cell,
    reported only on a strict table).  With ``vcomp-unit`` broken the walk
    checks every triple."""
    if entry is None:
        entry = element(ONE if unit == Z else Z)
    bic = chaotic_monoid(3, unit)
    if not strict:
        bic = rebuild(bic, strict=False)
    assert assert_same_report(bic).ok == (unit == ONE)
    rep = assert_same_report(associators_set(bic, entry))
    if tag == "strict-assoc-cell" and not strict:
        assert not {"assoc-missing", "assoc-typing", "assoc-invertible"} & rep.axioms()
    else:
        assert axiom_counts(rep)[tag] == 3, rep.axioms()
    assert ("vcomp-unit" in rep.axioms()) == (unit == Z)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_identity_associator_is_checked_without_vcomp_units(strict):
    """The fast path needs ``vcomp-unit``: with id . id = z on the one hom,
    the associator id_id_X is its own composite's identity but has no
    inverse, and the report says so."""
    bic = load_presentation_with_sigma(UNITOR_DOC, name="unitor_z").bicategory
    bic = moved(rebuild(bic, strict=strict), "vcomp", ("id_id_X", "id_id_X"), "z")
    rep = assert_same_report(bic)
    assert axiom_counts(rep)["assoc-invertible"] == 1
    assert rep.violations[-1] == Violation(
        "assoc-invertible", ("id_X", "id_X", "id_X"), left="id_id_X"
    )


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_non_associative_compose_matches_reference(strict):
    """anti_associative: h . (g . f) != (h . g) . f on its triples of
    non-identity arrows, so the walk never takes its fast path there, not
    even for an associator that is the identity of h . (g . f); strict-assoc
    is filed in the walk and reported after the triangle."""
    bic = anti_associative(strict)
    rep = assert_same_report(bic)
    assert axiom_counts(rep)["strict-assoc"] == (8 if strict else 0)
    if strict:
        assert [v.axiom for v in rep.violations][-8:] == ["strict-assoc"] * 8
    # the identity of h . (g . f) as an associator is mistyped there
    src = bic.hcomp1[("a", bic.hcomp1[("b", "a")])]
    rep = assert_same_report(moved(bic, "assoc", ("a", "b", "a"), bic.idc[src]))
    assert axiom_counts(rep) == {"assoc-typing": 1}


# -- naturality squares of identity structure cells ---------------------------


def projected(bic, name, arrow, on):
    """bic with the whisker by ``arrow`` of the cells on ``on`` (in lwhisk or
    rwhisk) sent to the endomorphism z^s e^t -> z^s of Z/2 x {1, e}.  It
    fixes both unit-like cells, so W1-W3 still hold, while the naturality
    squares that whisker it fail.  It moves two entries, e and z e: no
    endomorphism of the monoid moves one element alone."""
    table = dict(getattr(bic, name))
    for key, c in table.items():
        by, cell = key if name == "lwhisk" else key[::-1]
        if by == arrow and bic.cell_src(cell) == on:
            table[key] = c[:-1] + "0"
    return rebuild(bic, **{name: table})


def associator_z(bic, rep):
    """bic with the associator that the first Ntheta violation of rep reads
    set to z, invertible but no identity cell."""
    v = next(v for v in rep.violations if v.axiom.startswith("Ntheta"))
    h, g, f = (bic.cell_src(w) if w in bic.cells else w for w in v.witness)
    s = bic.hcomp1[(h, bic.hcomp1[(g, f)])]
    return moved(bic, "assoc", (h, g, f), f"c_{s}_10")


def unitor_z(bic, name, on):
    """bic with the unitor of ``on`` that the squares whiskering by an
    identity on that side read (lambda for rwhisk, rho for lwhisk) set to z."""
    return moved(bic, {"rwhisk": "lunitor", "lwhisk": "runitor"}[name], on, f"c_{on}_10")


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("variant", ["identities", "associator-z", "unitor-z", "vcomp-unit-broken"])
@pytest.mark.parametrize("move, tags", [
    (("rwhisk", "a00", "a01"), {"Nlambda", "Ntheta2", "Ntheta3"}),
    (("lwhisk", "a11", "a01"), {"Nrho", "Ntheta1", "Ntheta2"}),
    (("lwhisk", "a12", "a01"), {"Ntheta1", "Ntheta2"}),
    (("rwhisk", "a01", "a12"), {"Ntheta2", "Ntheta3"}),
])
def test_structure_cell_squares_match_reference(move, tags, variant, strict):
    """chaotic_monoid(3) with one whisker projected.  With every unitor and
    associator an identity and ``vcomp-unit`` holding, the validator checks
    Nlambda, Nrho and Ntheta1-3 as whiskering laws, and exactly the squares
    that read the whisker fail.  One associator set to z sends Ntheta, and
    one unitor set to z sends Nlambda/Nrho, down the full squares, whose
    sides then carry the z; so does ``vcomp-unit`` broken (unit Z)."""
    bic = chaotic_monoid(3, Z if variant == "vcomp-unit-broken" else ONE)
    if not strict:
        bic = rebuild(bic, strict=False)
    mutant = projected(bic, *move)
    rep = assert_same_report(mutant)
    if variant == "identities":
        assert rep.axioms() == tags
    elif variant == "associator-z":
        rep = assert_same_report(associator_z(mutant, rep))
    elif variant == "unitor-z":
        rep = assert_same_report(unitor_z(mutant, move[0], move[2]))
    assert tags <= rep.axioms(), rep.axioms()


class ReadCounting(dict):
    """A table that counts its reads by key."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = Counter()

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_clean_benchmark_tables_read_each_associator_once():
    """On the clean Z/2 validate-tables shapes every associator is an
    identity, so the walk reads each one once and the naturality squares,
    checked as whiskering laws, read none."""
    shapes = [(f, n) for f, n in validate_tables_shapes() if f.endswith("_z2")]
    assert {f for f, _ in shapes} == {"chain_z2", "chaotic_z2"}
    for family, n in shapes:
        bic = generated(family, n, 1)
        bic.assoc = assoc = ReadCounting(bic.assoc)
        assert validate_bicategory(bic).ok
        assert assoc.reads == Counter(bic.composable_arrow_triples()), (family, n)


# -- typing violations in key order -------------------------------------------


def reordered(bic, order):
    """bic rebuilt with every dict in another insertion order."""
    names = ("arrows", "id1", "hcomp1", "cells", "idc", "vcomp", "lwhisk", "rwhisk",
             "lunitor", "runitor", "assoc")
    return rebuild(bic, **{name: dict(order(list(getattr(bic, name).items()))) for name in names})


def typing_broken(bic, rng, name):
    """Entries of one composition table made wrong: three name an unknown
    arrow or cell, four name another one, and up to three new keys pair an
    arrow or cell with one it may not compose with."""
    table = dict(getattr(bic, name))
    pool = sorted(bic.arrows if name == "hcomp1" else bic.cells)
    keys = sorted(table)
    for key in rng.sample(keys, 3):
        table[key] = "ghost"
    for key in rng.sample(keys, 4):
        table[key] = rng.choice([v for v in pool if v != table[key]])
    left = sorted(bic.arrows) if name == "lwhisk" else pool
    right = sorted(bic.arrows) if name == "rwhisk" else pool
    for _ in range(3):
        table.setdefault((rng.choice(left), rng.choice(right)), rng.choice(pool))
    return rebuild(bic, **{name: table})


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("names, tags", [
    (("hcomp1",), {"hcomp1-ref", "hcomp1-typing"}),
    (("vcomp",), {"vcomp-ref", "vcomp-typing"}),
    (("lwhisk", "rwhisk"), {"lwhisk-ref", "lwhisk-typing", "rwhisk-ref", "rwhisk-typing"}),
])
def test_typing_violations_are_reported_in_key_order(names, tags, order):
    """The typing loops walk each table in storage order and sort only the
    violations: with every dict of the table inserted in reversed or
    shuffled order, the reports still equal the reference's, entry for
    entry."""
    rng = random.Random(f"key-order:{names}:{order}")
    permute = {"reversed": lambda items: items[::-1],
               "shuffled": lambda items: rng.sample(items, len(items))}[order]
    for family, n in (("chaotic_z2", 3), ("chain_z2", 4)):
        bic = generated(family, n, 1)
        for name in names:
            bic = typing_broken(bic, rng, name)
        mutant = reordered(bic, permute)
        rep = assert_same_report(mutant)
        assert rep == validate_bicategory(bic)
        assert tags <= rep.axioms(), (family, rep.axioms())
        assert sum(v.axiom in tags for v in rep.violations) >= 6 * len(names)
