import pytest

from bicatkit.core import (
    ModificationData,
    PseudofunctorData,
    StructureError,
    TransformationData,
    comp_sub_f,
    identity_pseudofunctor,
    validate_bicategory,
    validate_modification,
    validate_pseudofunctor,
    validate_transformation,
)
from bench import families
from bicatkit.presentation import load_presentation_with_sigma, load_pseudofunctor

from tests.tables import rebuild

COLLAPSE_DOC = """
map_obj:
  X -> A
  Y -> B
map_arr:
  s -> u
  r -> v
  e -> id_B
"""


def collapse(split, iso):
    return load_pseudofunctor(
        COLLAPSE_DOC, split.bicategory, iso.bicategory, name="collapse"
    )


def test_identity_2functor_on_split_ok(split):
    fun = identity_pseudofunctor(split.bicategory)
    assert fun.is_2functor
    assert validate_pseudofunctor(fun).ok


def test_split_to_iso_collapse_ok(split, iso):
    fun = collapse(split, iso)
    assert validate_pseudofunctor(fun).ok
    # e must land on u.v = id_B; the table forces it
    assert fun.arr_map["e"] == iso.bicategory.hcomp1[("u", "v")]


def test_split_to_iso_with_wrongly_typed_e_rejected(split, iso):
    src, tgt = split.bicategory, iso.bicategory
    fun = PseudofunctorData(
        name="bad",
        source=src,
        target=tgt,
        obj_map={"X": "A", "Y": "B"},
        arr_map={
            "id_X": "id_A",
            "id_Y": "id_B",
            "s": "u",
            "r": "v",
            "e": "u",  # not an endo-arrow of B
        },
        cell_map={c: tgt.idc["id_A"] for c in src.cells},
        xi={x: tgt.idc[tgt.id1[o]] for x, o in (("X", "A"), ("Y", "B"))},
        phi={pair: tgt.idc["id_A"] for pair in src.composable_arrow_pairs()},
    )
    rep = validate_pseudofunctor(fun)
    assert not rep.ok
    assert rep.axioms() & {"map-arr-typing", "map-cell-typing", "map-cell"}


def test_comp_sub_f_identity_cells_give_identity(split, iso):
    fun = collapse(split, iso)
    tgt = iso.bicategory
    out = comp_sub_f(fun, tgt.idc["u"], tgt.idc["v"], "s", "r", "s", "r")
    assert out == tgt.idc[fun.arr_map[split.bicategory.hcomp1[("s", "r")]]]


def test_comp_sub_f_matches_direct_image_on_grpd(grpd):
    bic = grpd.bicategory
    fun = identity_pseudofunctor(bic)
    for b in sorted(bic.cells):
        for a in sorted(bic.cells):
            got = comp_sub_f(fun, b, a, "id_P", "id_P", "id_P", "id_P")
            assert got == bic.hcomp2(b, a)


def test_comp_sub_f_equals_bruteforce_conjugation_on_chain(chain_f):
    fun = chain_f
    src, tgt = fun.source, fun.target
    for g1, f1 in src.composable_arrow_pairs():
        for g2 in tgt.arrows_between(*src.arrows[g1]) and src.arrows_between(*src.arrows[g1]):
            for f2 in src.arrows_between(*src.arrows[f1]):
                if (g2, f2) not in src.hcomp1:
                    continue
                for beta in tgt.cells_between(fun.arr_map[g1], fun.arr_map[g2]):
                    for alpha in tgt.cells_between(fun.arr_map[f1], fun.arr_map[f2]):
                        got = comp_sub_f(fun, beta, alpha, g1, f1, g2, f2)
                        # independent composite, straight from the tables
                        phi_in = tgt.inverse(fun.phi[(g1, f1)])
                        mid = tgt.vertical(
                            tgt.whisker_r(beta, fun.arr_map[f2]),
                            tgt.whisker_l(fun.arr_map[g1], alpha),
                        )
                        want = tgt.vertical(
                            fun.phi[(g2, f2)], tgt.vertical(mid, phi_in)
                        )
                        assert got == want


def _swap_probe(split, iso):
    doc = """
map_obj:
  X -> B
  Y -> A
map_arr:
  s -> v
  r -> u
  e -> id_A
"""
    return load_pseudofunctor(doc, split.bicategory, iso.bicategory, name="swapped")


def test_transformation_between_iso_probes(split, iso):
    f_ = collapse(split, iso)
    g_ = _swap_probe(split, iso)
    tgt = iso.bicategory
    theta = TransformationData(
        "sym",
        f_,
        g_,
        comp_obj={"X": "u", "Y": "v"},
        comp_arr={f: tgt.idc[tgt.hcomp1[(g_.arr_map[f], "u" if split.bicategory.arrow_src(f) == "X" else "v")]] for f in split.bicategory.arrows},
    )
    rep = validate_transformation(theta)
    assert rep.ok, rep.violations


def test_modification_perturbation_violates_pm(twocell):
    bic = twocell.bicategory
    fun = identity_pseudofunctor(bic)
    theta = TransformationData(
        "tw",
        fun,
        fun,
        comp_obj={"U": "id_U", "V": "id_V"},
        comp_arr={"id_U": "id_id_U", "id_V": "id_id_V", "m": "k"},
    )
    assert validate_transformation(theta).ok
    rho_ok = ModificationData("iden", theta, theta, {"U": "id_id_U", "V": "id_id_V"})
    assert validate_modification(rho_ok).ok
    rho_bad = ModificationData("pert", theta, theta, {"U": "id_id_U", "V": "j"})
    rep = validate_modification(rho_bad)
    assert not rep.ok
    assert "PM" in rep.axioms()


def test_transformation_requires_strict(twocell, grpd):
    loose = rebuild(twocell.bicategory, strict=False)
    fun = identity_pseudofunctor(loose)
    theta = TransformationData(
        "ns", fun, fun,
        comp_obj={"U": "id_U", "V": "id_V"},
        comp_arr={"id_U": "id_id_U", "id_V": "id_id_V", "m": "id_m"},
    )
    rep = validate_transformation(theta)
    assert not rep.ok and "strictness-required" in rep.axioms()


def test_xi_phi_must_be_given_when_not_forced(split, iso):
    with pytest.raises(StructureError, match="phi"):
        PseudofunctorData(
            name="gap",
            source=split.bicategory,
            target=iso.bicategory,
            obj_map={"X": "A", "Y": "B"},
            arr_map={"id_X": "id_A", "id_Y": "id_B", "s": "u", "r": "v", "e": "u"},
            cell_map={},
        )


def test_map_obj_rejects_an_arrow_as_image_of_an_object(split):
    bic = split.bicategory
    fun = PseudofunctorData(
        name="obj-to-arrow",
        source=bic,
        target=bic,
        obj_map={"X": "s", "Y": "Y"},  # s is an arrow of the target, not an object
        arr_map={f: f for f in bic.arrows},
        cell_map={a: a for a in bic.cells},
        xi={x: bic.idc[bic.id1[x]] for x in bic.objects},
        phi={(g, f): bic.idc[bic.hcomp1[(g, f)]] for g, f in bic.composable_arrow_pairs()},
    )
    rep = validate_pseudofunctor(fun)
    assert rep.violations[0].axiom == "map-obj"
    assert rep.violations[0].witness == ("X",)


@pytest.mark.parametrize(
    "obj_map, arr_map, missing",
    [
        ({"X": "A"}, {"id_X": "id_A", "id_Y": "id_B", "s": "u", "r": "v", "e": "id_B"}, "'Y'"),
        ({"X": "A", "Y": "B"}, {"id_X": "id_A", "id_Y": "id_B", "s": "u", "r": "v"}, "'e'"),
    ],
)
def test_unmapped_ids_raise_structure_error(split, iso, obj_map, arr_map, missing):
    with pytest.raises(StructureError, match=missing):
        PseudofunctorData(
            name="partial",
            source=split.bicategory,
            target=iso.bicategory,
            obj_map=obj_map,
            arr_map=arr_map,
            cell_map={},
        )


# one object whose identity arrow carries an idempotent cell n, n . n = n,
# which has no inverse
IDEMPOTENT_DOC = """
strict true
objects: U
cells:
  n : id_U => id_U
vcomp:
  n . n = n
"""


def chaotic_z2():
    """chaotic_z2(2): two objects, mutually inverse arrows a0_1 and a1_0, and
    a cell z_f, z_f . z_f = id_f, on every arrow f, whiskers sending z to z."""
    doc = families.generate("chaotic_z2", 2, 1)
    return load_presentation_with_sigma(doc.text(), doc.name).bicategory


def identity_transformation(fun, **changed_arr):
    """The identity transformation of fun, with the named cell components
    replaced."""
    c, d = fun.source, fun.target
    comp_obj = {x: d.id1[fun.obj_map[x]] for x in c.objects}
    comp_arr = {f: d.idc[fun.arr_map[f]] for f in c.arrows}
    return TransformationData(fun.name, fun, fun, comp_obj, {**comp_arr, **changed_arr})


def z_collapse(bic):
    """The 2-functor on chaotic_z2 that fixes objects and arrows and sends
    every z cell to an identity."""
    return PseudofunctorData(
        "collapse", bic, bic,
        {x: x for x in bic.objects},
        {f: f for f in bic.arrows},
        {a: bic.idc[f] for a, (f, _) in bic.cells.items()},
    )


def failing_transformation(tag):
    if tag == "strictness-required":
        loose = rebuild(chaotic_z2(), strict=False)
        return identity_transformation(identity_pseudofunctor(loose))
    if tag == "transf-arr-invertible":
        bic = load_presentation_with_sigma(IDEMPOTENT_DOC, "idempotent").bicategory
        assert validate_bicategory(bic).ok
        return identity_transformation(identity_pseudofunctor(bic), id_U="n")
    bic = chaotic_z2()
    ident = identity_pseudofunctor(bic)
    if tag == "transf-obj-typing":
        theta = identity_transformation(ident)
        return TransformationData("t", ident, ident, {**theta.comp_obj, "o0": "a0_1"}, theta.comp_arr)
    if tag == "transf-arr-typing":
        return identity_transformation(ident, a0_1="id_a1_0")
    if tag == "PN0":
        # theta of an identity arrow must be the identity.  PN1 on (id_x, id_x)
        # makes theta_(id_x) idempotent, so, being invertible, the identity:
        # no input with invertible components fails PN0 without PN1
        return identity_transformation(ident, id_o0="z_id_o0", id_o1="z_id_o1")
    if tag == "PN1":
        # theta of id_o0 = a1_0 . a0_1 must be a1_0 * z_a0_1 = z_id_o0
        return identity_transformation(ident, a0_1="z_a0_1")
    assert tag == "PN2"
    # the two functors agree on arrows and differ on every z cell
    collapse = z_collapse(bic)
    assert validate_pseudofunctor(collapse).ok and collapse.is_2functor
    theta = identity_transformation(ident)
    return TransformationData("t", ident, collapse, theta.comp_obj, theta.comp_arr)


@pytest.mark.parametrize(
    "tag",
    [
        "strictness-required",
        "transf-obj-typing",
        "transf-arr-typing",
        "transf-arr-invertible",
        "PN0",
        "PN1",
        "PN2",
    ],
)
def test_validate_transformation_reports_each_tag(tag):
    """One failing input per tag, which fails that tag alone, and PN0 beside
    PN1; the identity transformation of chaotic_z2, whose cells are not thin,
    passes."""
    bic = chaotic_z2()
    assert validate_transformation(identity_transformation(identity_pseudofunctor(bic))).ok
    want = {tag, "PN1"} if tag == "PN0" else {tag}
    assert validate_transformation(failing_transformation(tag)).axioms() == want


@pytest.mark.parametrize("tag", ["strictness-required", "modif-typing", "PM"])
def test_validate_modification_reports_each_tag(tag):
    """The identity modification of chaotic_z2's identity transformation
    passes; one changed input fails each tag alone."""
    bic = chaotic_z2()
    theta = identity_transformation(identity_pseudofunctor(bic))
    comp = {x: bic.idc[bic.id1[x]] for x in bic.objects}
    assert validate_modification(ModificationData("m", theta, theta, comp)).ok
    if tag == "strictness-required":
        loose = rebuild(bic, strict=False)
        theta = identity_transformation(identity_pseudofunctor(loose))
    if tag == "modif-typing":
        comp["o0"] = "z_a0_1"
    if tag == "PM":
        # a0_1 * z_id_o0 = z_a0_1, while rho_o1 * a0_1 is the identity
        comp["o0"] = "z_id_o0"
    assert validate_modification(ModificationData("m", theta, theta, comp)).axioms() == {tag}
