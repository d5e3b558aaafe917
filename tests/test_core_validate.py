import itertools

from bicatkit.core import identity_pseudofunctor, validate_bicategory, validate_pseudofunctor
from bicatkit.presentation import load_presentation

from tests.tables import UNIT_DOC, rebuild


def test_fixtures_validate(split, iso, grpd, triv):
    for pres in (split, iso, grpd, triv):
        rep = validate_bicategory(pres.bicategory)
        assert rep.ok, rep.violations


def test_redirected_vcomp_entry_is_a_typing_violation(split):
    bic = split.bicategory
    bad = dict(bic.vcomp)
    # id_e . id_e should be id_e; point it at a non-parallel cell
    bad[("id_e", "id_e")] = "id_s"
    rep = validate_bicategory(rebuild(bic, vcomp=bad))
    assert not rep.ok
    assert "vcomp-typing" in rep.axioms()


def test_missing_hcomp1_entry_reported(split):
    bic = split.bicategory
    table = dict(bic.hcomp1)
    del table[("e", "e")]
    rep = validate_bicategory(rebuild(bic, hcomp1=table))
    assert "hcomp1-totality" in rep.axioms()


def test_grpd_interchange_forces_horizontal_square_trivial(grpd):
    bic = grpd.bicategory
    assert bic.hcomp2("g", "g") == "id_id_P"
    # independent oracle: enumerate every interchange instance directly
    cells = sorted(bic.cells)
    for a, b, c, d in itertools.product(cells, repeat=4):
        if bic.cell_dst(a) != bic.cell_src(c) or bic.cell_dst(b) != bic.cell_src(d):
            continue
        lhs = bic.vertical(bic.hcomp2(d, c), bic.hcomp2(b, a))
        rhs = bic.hcomp2(bic.vertical(d, b), bic.vertical(c, a))
        assert lhs == rhs, (a, b, c, d)


def test_w1_both_orders_for_every_cell_pair(split, grpd, twocell, chain_f):
    for bic in (
        split.bicategory,
        grpd.bicategory,
        twocell.bicategory,
        chain_f.target,
    ):
        for a in sorted(bic.cells):
            f1, f2 = bic.cells[a]
            for b in sorted(bic.cells):
                g1, g2 = bic.cells[b]
                if bic.arrow_src(g1) != bic.arrow_dst(f1):
                    continue
                one = bic.vertical(bic.whisker_l(g2, a), bic.whisker_r(b, f1))
                two = bic.vertical(bic.whisker_r(b, f2), bic.whisker_l(g1, a))
                assert one == two


def test_identity_pseudofunctor_validates_everywhere(split, iso, grpd, triv, twocell):
    for pres in (split, iso, grpd, triv, twocell):
        rep = validate_pseudofunctor(identity_pseudofunctor(pres.bicategory))
        assert rep.ok, (pres.bicategory.name, rep.violations)


def test_strict_flag_enforced(split):
    bic = split.bicategory
    table = dict(bic.hcomp1)
    table[("e", "s")] = "id_Y"  # breaks e.s = s, hence strict associativity
    rep = validate_bicategory(rebuild(bic, hcomp1=table))
    assert not rep.ok
    # the misdirected composite shows up as a typing or associativity failure
    assert rep.axioms() & {"hcomp1-typing", "strict-assoc", "W2", "lwhisk-typing", "rwhisk-typing"}


def test_nonstrict_unitor_data_checked(grpd):
    # claim non-strict but keep identity unitors: still a valid bicategory
    bic = rebuild(grpd.bicategory, strict=False)
    assert validate_bicategory(bic).ok
    # breaking one unitor entry gets flagged with its axiom
    bad = dict(bic.lunitor)
    bad["id_P"] = "g"
    rep = validate_bicategory(rebuild(bic, lunitor=bad))
    assert not rep.ok
    assert "Nlambda" in rep.axioms() or "triangle" in rep.axioms()


def test_strict_table_whose_unit_composite_is_another_arrow_fails_strict_unital():
    """UNIT_DOC validates as a weak table, where f . id_X = f1 and lambda f = u
    are legal; declared strict, both break strictness at f and nothing else."""
    assert validate_bicategory(load_presentation(UNIT_DOC)).ok
    strict = UNIT_DOC.replace("strict false", "strict true", 1)
    assert strict != UNIT_DOC
    rep = validate_bicategory(load_presentation(strict))
    assert [(v.axiom, v.witness) for v in rep.violations] == [
        ("strict-unital", ("f",)),
        ("strict-unitors", ("f",)),
    ]
