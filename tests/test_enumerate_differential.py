"""The forward-checking enumerator against the one it replaced.

``enumerate_2functors`` checks each source table entry as soon as the last
generator it mentions is assigned.  ``tests/reference_scans.py`` holds the old
enumerator, which checked the tables on complete maps only.  Both must list
the same 2-functors (name, object, arrow and cell maps) in the same order on:
the fixtures into each other; the generated families at every size the old
enumerator finishes in about a second, into the default probe targets and,
where it finishes, into themselves, and the smaller families without
2-cells once more with their vertical and whisker tables dropped, so that
the checks of composites are the only ones; two non-strict tables whose unitors or
associator are non-identity cells, so that the coherence checks prune; and
every change of one entry of a small table that still validates, as source
and as target.
"""
from __future__ import annotations

import itertools

import pytest

from bench import families
from bicatkit.core import Bicategory, validate_bicategory
from bicatkit.ho import enumerate_2functors
from bicatkit.library import BICATEGORIES, load_fixture_bicategory
from bicatkit.localize import default_probe_targets
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests import reference_scans as ref
from tests.test_index_differential import TABLE_FIELDS

# (family, sizes into the default targets and into itself, sizes into the
# default targets only); into itself, chain_z2(5) takes the old enumerator
# about 80 s and chaotic_z2(4) minutes
FAMILY_SIZES = (
    ("chain", (2, 3, 4, 5, 6), ()),
    ("chain_z2", (2, 3, 4), (5,)),
    ("chaotic", (2, 3, 4), (5,)),
    ("chaotic_z2", (2, 3), (4,)),
)
# one object whose identity arrow carries Z/2 = {id, z}, with both unitors z
UNITOR_DOC = """
strict false
objects: X
compose:
  id_X . id_X = id_X
cells:
  z : id_X => id_X
vcomp:
  z . z = id_id_X
lwhisk:
  id_X * z = z
rwhisk:
  z * id_X = z
unitors:
  lambda id_X = z
  rho id_X = z
assoc:
  theta id_X id_X id_X = id_id_X
"""
# the arrows {id_X, f} form Z/2, so does every hom; the associator is the
# nontrivial 3-cocycle, the non-identity cell y on f at (f, f, f) only
COCYCLE_DOC = """
strict false
objects: X
arrows:
  f : X -> X
compose:
  id_X . id_X = id_X
  f . id_X = f
  id_X . f = f
  f . f = id_X
cells:
  z : id_X => id_X
  y : f => f
vcomp:
  z . z = id_id_X
  y . y = id_f
lwhisk:
  id_X * z = z
  id_X * y = y
  f * z = y
  f * y = z
rwhisk:
  z * id_X = z
  y * id_X = y
  z * f = y
  y * f = z
unitors:
  lambda id_X = id_id_X
  rho id_X = id_id_X
  lambda f = id_f
  rho f = id_f
assoc:
  theta id_X id_X id_X = id_id_X
  theta id_X id_X f = id_f
  theta id_X f id_X = id_f
  theta id_X f f = id_id_X
  theta f id_X id_X = id_f
  theta f id_X f = id_id_X
  theta f f id_X = id_id_X
  theta f f f = y
"""
MUTABLE = ("hcomp1", "vcomp", "lwhisk", "rwhisk", "lunitor", "runitor", "assoc")


def listing(funs):
    return [(f.name, f.obj_map, f.arr_map, f.cell_map) for f in funs]


def assert_same(src, dst):
    """Both enumerators agree on src -> dst; returns how many they list."""
    new = listing(enumerate_2functors(src, dst))
    assert new == listing(ref.enumerate_2functors(src, dst)), (src.name, dst.name)
    return len(new)


def family_table(family, n):
    doc = families.generate(family, n, 1, marked=True)
    return load_presentation_with_sigma(doc.text(), doc.name).bicategory


def non_strict_tables():
    return [
        load_presentation_with_sigma(UNITOR_DOC, "unitor").bicategory,
        load_presentation_with_sigma(COCYCLE_DOC, "cocycle").bicategory,
    ]


def small_tables():
    """The fixtures, three small generated tables and the non-strict ones."""
    tables = [load_fixture_bicategory(name) for name in BICATEGORIES]
    tables += [family_table(f, n) for f, n in (("chain_z2", 3), ("chaotic_z2", 2), ("chaotic", 3))]
    return tables + non_strict_tables()


def replaced(bic, name, **tables):
    """A copy of bic under a new name with some tables replaced."""
    return Bicategory(**{**{f: getattr(bic, f) for f in TABLE_FIELDS}, "name": name, **tables})


def valid_single_entry_mutants(tables):
    """Every table that one changed entry of a table in tables gives and that
    still validates: each composite, whisker, unitor or associator entry is
    set to every other arrow or cell in turn."""
    for bic in tables:
        for table in MUTABLE:
            pool = sorted(bic.arrows) if table == "hcomp1" else sorted(bic.cells)
            for key, value in sorted(getattr(bic, table).items()):
                for other in pool:
                    if other != value:
                        name = f"{bic.name}[{table} {key}={other}]"
                        mutant = replaced(bic, name, **{table: {**getattr(bic, table), key: other}})
                        if validate_bicategory(mutant).ok:
                            yield mutant


def test_fixtures_into_each_other():
    fixtures = [load_fixture_bicategory(name) for name in BICATEGORIES]
    for src, dst in itertools.product(fixtures, repeat=2):
        assert_same(src, dst)


@pytest.mark.parametrize(
    "family,n,into_self",
    [(f, n, True) for f, both, _ in FAMILY_SIZES for n in both]
    + [(f, n, False) for f, _, targets_only in FAMILY_SIZES for n in targets_only],
)
def test_families_into_default_targets_and_themselves(family, n, into_self):
    bic = family_table(family, n)
    for dst in default_probe_targets(make_sigma(bic, ())) + ([bic] if into_self else []):
        assert_same(bic, dst)
        if family in ("chain", "chaotic") and into_self:
            # identity cells only: their whisker entries repeat every hcomp1
            # check, so without them hcomp1 alone decides
            assert_same(replaced(bic, f"{bic.name}-1cells", vcomp={}, lwhisk={}, rwhisk={}), dst)


def test_non_strict_coherence_prunes():
    unitor, cocycle = non_strict_tables()
    # z is a generator cell that lambda and rho pin to the target's unitor:
    # into itself z must go to z, into a strict table to the identity
    assert assert_same(unitor, unitor) == 1
    assert [f.cell_map["z"] for f in enumerate_2functors(unitor, unitor)] == ["z"]
    assert assert_same(unitor, load_fixture_bicategory("grpd")) == 1
    # theta(f, f, f) = y pins y to theta(Ff, Ff, Ff): y when f goes to f,
    # where without that check y -> id_f (and z -> id) would pass too
    assert assert_same(cocycle, cocycle) == 2
    assert [(f.arr_map["f"], f.cell_map["y"]) for f in enumerate_2functors(cocycle, cocycle)] == [
        ("f", "y"),
        ("id_X", "id_id_X"),
    ]
    for src, dst in itertools.product(small_tables(), repeat=2):
        if not (src.strict and dst.strict):
            assert_same(src, dst)


def test_valid_single_entry_mutants():
    tables = small_tables()
    mutants = list(valid_single_entry_mutants(tables))
    # grpd with g . g = g, chain_tgt with tau . tau = tau, and the cocycle
    # table with a trivial associator
    assert len(mutants) >= 3
    for mutant in mutants:
        for other in tables + [mutant]:
            assert_same(mutant, other)
            assert_same(other, mutant)
