import pytest

from bicatkit.core import (
    ModificationData,
    PseudofunctorData,
    StructureError,
    TransformationData,
    comp_sub_f,
    compose_pseudofunctors,
    factorize,
    identity_pseudofunctor,
    validate_bicategory,
    validate_modification,
    validate_pseudofunctor,
    validate_transformation,
)
from bicatkit.presentation import load_pseudofunctor
from bicatkit.sigma import is_quasiequivalence

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


def test_factorize_identity_on_triv(triv):
    fun = identity_pseudofunctor(triv.bicategory)
    mid, f1, f2 = factorize(fun)
    assert len(mid.objects) == 1
    assert len(mid.arrows) == 1
    assert len(mid.cells) == 1
    assert validate_bicategory(mid).ok
    assert f2.is_2functor
    comp = compose_pseudofunctors(f1, f2)
    assert comp.obj_map == fun.obj_map and comp.arr_map == fun.arr_map


def test_factorize_collapse_has_five_arrows_and_identity_cells(split, iso):
    fun = collapse(split, iso)
    mid, f1, f2 = factorize(fun)
    assert len(mid.arrows) == 5
    assert validate_bicategory(mid).ok
    # every 2-cell of the intermediate is carried by an identity target cell
    for cell in mid.cells:
        assert f1.cell_map[cell].startswith("id_")
    assert validate_pseudofunctor(f1).ok
    assert validate_pseudofunctor(f2).ok


def test_factorize_chain_head_tail_laws(chain_f):
    fun = chain_f
    mid, f1, f2 = factorize(fun)
    assert validate_bicategory(mid).ok
    assert f2.is_2functor and not f1.is_2functor
    comp = compose_pseudofunctors(f1, f2)
    assert comp.arr_map == fun.arr_map
    assert comp.cell_map == fun.cell_map
    assert comp.phi == fun.phi and comp.xi == fun.xi
    # the head computes the same conjugated composites as the original
    src = fun.source
    for (g, f) in src.composable_arrow_pairs():
        beta = mid.idc[g]
        alpha = mid.idc[f]
        via_mid = comp_sub_f(f2, beta, alpha, g, f, g, f)
        assert f1.cell_map[via_mid] == comp_sub_f(
            fun, fun.target.idc[fun.arr_map[g]], fun.target.idc[fun.arr_map[f]], g, f, g, f
        )


def test_factorize_preserves_quasiequivalence(split, iso):
    fun = collapse(split, iso)
    mid, _, f2 = factorize(fun)
    for f in split.bicategory.arrows:
        if is_quasiequivalence(iso.bicategory, fun.arr_map[f]):
            assert is_quasiequivalence(mid, f2.arr_map[f])


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
