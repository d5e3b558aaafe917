"""The indexed validator against the scan-and-filter validator it replaced.

``reference_validate_bicategory`` (tests/reference_validator.py) is the old
code.  Both must return equal reports, the same violations in the same order,
on the bundled fixtures, on the acceptance-1 mutation stream and on the
benchmark's generated families, clean and with every mutation kind.
"""
import itertools
import random
import time
from functools import partial

import pytest

from bench import families
from bicatkit.core import validate_bicategory
from bicatkit.library import BICATEGORIES, load_fixture_bicategory
from bicatkit.presentation import load_presentation_with_sigma

from tests.reference_validator import (
    composable_arrow_pairs,
    composable_arrow_triples,
    reference_validate_bicategory,
)
from tests.test_acceptance import _mutations
from tests.test_core_validate import rebuild

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
