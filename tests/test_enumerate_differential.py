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
and as target.  The lists include xi and phi, which each result of the new
enumerator reads off its cell map when they are first asked for, and which
the old one left to ``PseudofunctorData`` to fill in.
Both tables must validate; every pair of the fixtures, the generated families
at three seeds and the non-strict tables is compared, and so are the
benchmark's larger tables with their probe targets, against the search that
had a level for every image but the identities, with each map's keys in
order.  Equal lists do not show how much is tried on the way, so more tests
count the search's steps against the partial maps that satisfy every
constraint they can be checked on, and the target entries the search reads.
"""
from __future__ import annotations

import itertools

import pytest

from bench import families
from bicatkit import ho
from bicatkit.core import Bicategory, StructureError, validate_bicategory
from bicatkit.ho import enumerate_2functors
from bicatkit.library import BICATEGORIES, load_fixture_bicategory
from bicatkit.localize import default_probe_targets
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests import reference_scans as ref
from tests.tables import COCYCLE_DOC, UNIT_DOC, UNITOR_DOC
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
MUTABLE = ("hcomp1", "vcomp", "lwhisk", "rwhisk", "lunitor", "runitor", "assoc")


def listing(funs):
    """Each 2-functor's name, maps, and xi and phi as item lists; the old
    enumerator's xi and phi are the ones PseudofunctorData fills in from the
    maps."""
    return [
        (f.name, f.obj_map, f.arr_map, f.cell_map, list(f.xi.items()), list(f.phi.items()))
        for f in funs
    ]


def full_listing(funs):
    """Each 2-functor's name and its five maps as item lists, keys in order."""
    return [
        (f.name, *(list(m.items()) for m in (f.obj_map, f.arr_map, f.cell_map, f.xi, f.phi)))
        for f in funs
    ]


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
        load_presentation_with_sigma(UNIT_DOC, "unit").bicategory,
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
            # identity cells only, whose entries the enumerator does not
            # check on a valid target; with the tables dropped hcomp1 alone
            # decides, as it does with them
            assert_same(replaced(bic, f"{bic.name}-1cells", vcomp={}, lwhisk={}, rwhisk={}), dst)


def test_non_strict_coherence_prunes():
    unitor, cocycle, _ = non_strict_tables()
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


# the complete-maps reference tries this many maps at most on a compared
# pair; beyond it a pair can take minutes (chaotic_z2(4) into itself tries
# 2^16 cell maps on each of 256 object maps), so a larger pair is compared
# with the forward-checking enumerator the thin rules replaced
REFERENCE_WORK = 1000
SWEEP_SEEDS = (1, 2, 3)


def reference_work(src, dst):
    """An upper bound on the maps the complete-maps reference tries."""
    gens = [f for f in src.arrows if f not in set(src.id1.values())]
    cells = [a for a in src.cells if a not in set(src.idc.values())]
    arrows = max(len(dst.arrows_between(x, y)) for x in dst.objects for y in dst.objects)
    parallel = max(len(dst.cells_between(f, g)) for f in dst.arrows for g in dst.arrows)
    return len(dst.objects) ** len(src.objects) * arrows ** len(gens) * parallel ** len(cells)


def assert_same_as_a_reference(src, dst):
    """The enumerator lists what the level-per-image search lists, keys in
    the same order, and agrees with the complete-maps reference where that
    finishes quickly, and with the forward-checking one elsewhere."""
    funs = enumerate_2functors(src, dst)
    assert full_listing(funs) == full_listing(ref.level_enumerate_2functors(src, dst)), (
        src.name, dst.name
    )
    slow = reference_work(src, dst) > REFERENCE_WORK
    reference = ref.forward_enumerate_2functors if slow else ref.enumerate_2functors
    assert listing(funs) == listing(reference(src, dst)), (src.name, dst.name)


def sweep_tables():
    """The fixtures, the generated families at n = 2, 3, 4 and each sweep
    seed, and the non-strict tables, all valid."""
    tables = [load_fixture_bicategory(name) for name in BICATEGORIES]
    for family in families.FAMILIES:
        for n in (2, 3, 4):
            for seed in SWEEP_SEEDS:
                doc = families.generate(family, n, seed)
                tables.append(load_presentation_with_sigma(doc.text(), doc.name).bicategory)
    tables += non_strict_tables()
    assert all(validate_bicategory(bic).ok for bic in tables)
    return tables


def test_every_pair_of_valid_tables():
    # the unit table's f . id_X = f1 is the one hcomp1 entry with an identity
    # input that is not strict-unital
    tables = sweep_tables()
    assert len(tables) == 6 + 4 * 3 * len(SWEEP_SEEDS) + 3
    slow = 0
    for src, dst in itertools.product(tables, repeat=2):
        assert_same_as_a_reference(src, dst)
        slow += reference_work(src, dst) > REFERENCE_WORK
    # most pairs are compared with the complete-maps reference
    assert 0 < slow < len(tables) ** 2 / 4


@pytest.mark.parametrize("family,n", [("chaotic", 4), ("chaotic_z2", 3), ("chaotic_z2", 4)])
def test_benchmark_shapes_list_as_the_level_search(family, n):
    # the localize-replay tables at the sizes whose self-probes dominate:
    # chaotic(4) into itself sets every arrow with its objects, and
    # chaotic_z2(n) into itself looks for its z cells
    bic = family_table(family, n)
    for dst in default_probe_targets(make_sigma(bic, ())) + [bic]:
        got = full_listing(enumerate_2functors(bic, dst))
        assert got == full_listing(ref.level_enumerate_2functors(bic, dst)), dst.name
        assert got, dst.name


def test_unit_entries_of_a_valid_target_are_not_read():
    # chaotic(3) has identity cells only, so every vcomp and whisker entry of
    # the source holds on a valid target once the identities are assigned
    bic = family_table("chaotic", 3)
    assert set(bic.cells) == set(bic.idc.values()) and bic.vcomp
    counted = replaced(bic, bic.name)
    tables = ("vcomp", "lwhisk", "rwhisk")
    for table in tables:
        setattr(counted, table, CountedDict(getattr(bic, table)))
    funs = enumerate_2functors(bic, counted)
    assert [getattr(counted, table).count for table in tables] == [0, 0, 0]
    assert listing(funs) == listing(ref.enumerate_2functors(bic, bic))


def test_a_thin_target_reads_no_entry_it_settles():
    # every hom of chaotic(3), chain(3), triv and iso has at most one arrow
    # and every pair of parallel arrows at most one cell, so no hcomp1,
    # vcomp or whisker entry of a valid source is read; grpd has one arrow
    # and two cells, so its composites are settled and its cells are not
    source = family_table("chaotic_z2", 3)
    tables = ("hcomp1", "vcomp", "lwhisk", "rwhisk")
    thin = [family_table("chaotic", 3), family_table("chain", 3)]
    thin += [load_fixture_bicategory(name) for name in ("triv", "iso")]
    for dst in thin + [load_fixture_bicategory("grpd")]:
        counted = replaced(dst, dst.name)
        for table in tables:
            setattr(counted, table, CountedDict(getattr(dst, table)))
        funs = enumerate_2functors(source, counted)
        assert listing(funs) == listing(ref.forward_enumerate_2functors(source, dst))
        reads = [getattr(counted, table).count for table in tables]
        if dst in thin:
            assert reads == [0, 0, 0, 0], dst.name
        else:
            assert reads[0] == 0 and all(reads[1:]), dst.name


def test_composites_with_identities_are_checked_on_a_non_strict_target():
    # in the unit table f . id_X = f1, so a strict source's g . id_X = g
    # rules out F g = f; that is checked when g is bound, so the cells'
    # candidates are listed only on arrow maps with every composite, while
    # the identity cells' images are looked up once per object and arrow
    # candidate bound
    unit = non_strict_tables()[-1]
    assert unit.hcomp1[("f", "id_X")] == "f1" and validate_bicategory(unit).ok
    for src in small_tables():
        if not src.strict:
            continue
        counted = replaced(unit, unit.name)
        counted.idc = CountedDict(unit.idc)
        calls = []
        counted.cells_between = lambda f, g: calls.append((f, g)) or unit.cells_between(f, g)
        funs = enumerate_2functors(src, counted)
        assert listing(funs) == listing(ref.enumerate_2functors(src, unit)), src.name
        object_steps, _ = consistent_counts(src, unit)
        tries = object_steps * len(unit.objects) + arrow_tries(src, unit)
        assert counted.idc.count == tries, src.name
        images = {a for amap in arrow_maps(src, unit) for a in amap.values()}
        assert {f for pair in calls for f in pair} <= images, src.name


def test_a_missing_composite_is_reported_as_before():
    bic = family_table("chaotic", 3)
    key = max(bic.hcomp1)
    hole = replaced(bic, "hole", hcomp1={k: v for k, v in bic.hcomp1.items() if k != key})
    messages = []
    for enumerate_into in (enumerate_2functors, ref.enumerate_2functors):
        with pytest.raises(StructureError) as info:
            enumerate_into(hole, bic)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"hole->{bic.name}#0: {key!r} is unmapped or unknown"


class CountedTuple(tuple):
    """A tuple that counts the loops over it."""

    count = 0

    def __iter__(self):
        self.count += 1
        return super().__iter__()


class CountedDict(dict):
    """A dict that records the keys it is read at."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    @property
    def count(self):
        return len(self.reads)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def cell_entries_hold(src, dst, amap, cmap):
    """Whether every vcomp and whisker entry of src whose cells cmap maps holds."""
    return (
        all(dst.vcomp.get((cmap[b], cmap[a])) == cmap[c]
            for (b, a), c in src.vcomp.items() if {a, b, c} <= cmap.keys())
        and all(dst.lwhisk.get((amap[g], cmap[a])) == cmap[c]
                for (g, a), c in src.lwhisk.items() if {a, c} <= cmap.keys())
        and all(dst.rwhisk.get((cmap[a], amap[f])) == cmap[c]
                for (a, f), c in src.rwhisk.items() if {a, c} <= cmap.keys())
    )


def is_arrow_thin(bic):
    return all(len(bic.arrows_between(x, y)) <= 1 for x in bic.objects for y in bic.objects)


def is_thin(bic):
    return is_arrow_thin(bic) and all(
        len(bic.cells_between(f, g)) <= 1 for f in bic.arrows for g in bic.arrows
    )


def consistent_counts(src, dst):
    """By brute force, for a strict src: the maps of each proper prefix of
    the objects under which every non-identity arrow with both ends mapped
    has a hom, and, on the arrow maps under which every composite holds, the
    maps of each proper prefix of the non-identity cells under which every
    vcomp and whisker entry with its cells mapped holds; on a thin dst no
    cell is looked for."""
    objs = list(src.objects)
    gens = [f for f in sorted(src.arrows) if f not in set(src.id1.values())]
    ends = [src.arrows[f] for f in gens]
    idcs = set(src.idc.values())
    cells = [] if is_thin(dst) else [a for a in sorted(src.cells) if a not in idcs]

    def homs_ok(omap):
        return all(dst.arrows_between(omap[x], omap[y]) for x, y in ends if x in omap and y in omap)

    object_steps = sum(
        homs_ok(dict(zip(objs, m)))
        for k in range(len(objs)) for m in itertools.product(dst.objects, repeat=k)
    )
    cell_steps = 0
    for amap in arrow_maps(src, dst):
        idmap = {src.idc[f]: dst.idc[amap[f]] for f in src.arrows}
        for j in range(len(cells)):
            homs = [dst.cells_between(*(amap[f] for f in src.cells[a])) for a in cells[:j]]
            cell_steps += sum(
                cell_entries_hold(src, dst, amap, {**idmap, **dict(zip(cells, m))})
                for m in itertools.product(*homs)
            )
    return object_steps, cell_steps


def forced_lookups(src, dst):
    """By brute force, for a strict src and an arrow-thin dst: the identity
    cells the object levels look up past their own.  For each object map of
    a nonempty prefix whose shorter prefix gives every non-identity arrow
    with both ends mapped a hom: one per non-identity arrow whose later end
    is the prefix's last object, in sorted order, up to the first whose hom
    is empty; and on a thin dst, when none is, one per non-identity cell
    between such arrows or that object's identity."""
    objs = list(src.objects)
    at = {x: i for i, x in enumerate(objs)}
    ids = set(src.id1.values())
    gens = [f for f in sorted(src.arrows) if f not in ids]
    cells = [a for a in sorted(src.cells) if a not in set(src.idc.values())]

    def last(f):
        return max(src.arrows[f], key=at.__getitem__)

    def homs(omap, arrows):
        return [dst.arrows_between(*(omap[x] for x in src.arrows[f])) for f in arrows]

    lookups = 0
    for k, x in enumerate(objs):
        owned = [f for f in gens if last(f) == x]
        earlier = [f for f in gens if at[last(f)] < k]
        owned_cells = [a for a in cells if last(src.cells[a][0]) == x]
        for m in itertools.product(dst.objects, repeat=k + 1):
            omap = dict(zip(objs, m))
            if not all(homs(omap, earlier)):
                continue
            found = list(itertools.takewhile(bool, homs(omap, owned)))
            lookups += len(found)
            if len(found) == len(owned) and is_thin(dst):
                lookups += len(owned_cells)
    return lookups


def arrow_maps(src, dst):
    """By brute force: the object and arrow maps, in the enumerator's order,
    under which every composite of src holds."""
    objs = list(src.objects)
    gens = [f for f in sorted(src.arrows) if f not in set(src.id1.values())]
    for combo in itertools.product(dst.objects, repeat=len(objs)):
        omap = dict(zip(objs, combo))
        homs = [dst.arrows_between(*(omap[x] for x in src.arrows[f])) for f in gens]
        for images in itertools.product(*homs):
            amap = {**{src.id1[x]: dst.id1[omap[x]] for x in objs}, **dict(zip(gens, images))}
            if all(dst.hcomp1.get((amap[g], amap[f])) == amap[c]
                   for (g, f), c in src.hcomp1.items()):
                yield amap


def arrow_entries_hold(src, dst, amap):
    """Whether every composite of a strict src whose arrows amap maps holds
    and, unless dst is strict too, every unitor and associator entry whose
    arrows it maps, each of src's being the identity cell of an arrow."""
    mapped = amap.keys()
    owner = {c: f for f, c in src.idc.items()}
    return (
        all(dst.hcomp1.get((amap[g], amap[f])) == amap[c]
            for (g, f), c in src.hcomp1.items() if {g, f, c} <= mapped)
        and (dst.strict or all(
            dst.lunitor[amap[f]] == dst.idc[amap[f]] == dst.runitor[amap[f]]
            for f in src.arrows if f in mapped
        ) and all(
            dst.assoc[(amap[h], amap[g], amap[f])] == dst.idc[amap[owner[c]]]
            for (h, g, f), c in src.assoc.items() if {h, g, f, owner[c]} <= mapped
        ))
    )


def arrow_tries(src, dst):
    """By brute force, for a strict src: the arrow candidates the search
    binds, one per map of a nonempty prefix of the non-identity arrows, on a
    complete object map under which every such arrow has a hom, whose
    restriction to the shorter prefix satisfies ``arrow_entries_hold``."""
    objs = list(src.objects)
    gens = [f for f in sorted(src.arrows) if f not in set(src.id1.values())]
    tries = 0
    for combo in itertools.product(dst.objects, repeat=len(objs)):
        omap = dict(zip(objs, combo))
        homs = [dst.arrows_between(*(omap[x] for x in src.arrows[f])) for f in gens]
        if not all(homs):
            continue
        ids = {src.id1[x]: dst.id1[omap[x]] for x in objs}
        for k in range(1, len(gens) + 1):
            for images in itertools.product(*homs[:k]):
                tries += arrow_entries_hold(src, dst, {**ids, **dict(zip(gens[:k - 1], images))})
    return tries


def test_search_extends_exactly_the_consistent_partial_maps(monkeypatch):
    # the results are not built, so only the search reads the target
    monkeypatch.setattr(ho.PseudofunctorData, "two_functor", lambda **kw: kw)
    fixtures = [load_fixture_bicategory(name) for name in BICATEGORIES]
    # chaotic_z2(2) has a Z/2 of cells on every arrow
    families_ = [family_table(*shape) for shape in (("chain", 3), ("chain_z2", 3), ("chaotic_z2", 2))]
    for src, dst in itertools.product(fixtures + families_, repeat=2):
        if not (src.strict and dst.strict):
            continue
        object_steps, cell_steps = consistent_counts(src, dst)
        counted = replaced(dst, dst.name)
        counted.objects = CountedTuple(dst.objects)
        counted.id1, counted.idc = CountedDict(dst.id1), CountedDict(dst.idc)
        calls = []
        counted.cells_between = lambda f, g: calls.append((f, g)) or dst.cells_between(f, g)
        enumerate_2functors(src, counted)
        # the objects are tried once per partial object map that passes, and
        # each object bound looks up its identity arrow's and identity
        # cell's images; on an arrow-thin target the object levels look up
        # the identity cells of the arrows they set, and of the cells too on
        # a thin one, and otherwise each arrow bound looks up its identity
        # cell's; the candidates of the cells looked for are listed once per
        # partial cell map that passes
        assert counted.objects.count == object_steps, (src.name, dst.name)
        object_tries = object_steps * len(dst.objects)
        assert counted.id1.count == object_tries, (src.name, dst.name)
        past = forced_lookups(src, dst) if is_arrow_thin(dst) else arrow_tries(src, dst)
        assert counted.idc.count == object_tries + past, (src.name, dst.name)
        assert len(calls) == cell_steps, (src.name, dst.name)
