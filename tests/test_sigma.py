import collections
import itertools

import pytest

from bench import families
from bicatkit import sigma as sigma_module
from bicatkit.core import StructureError
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import (
    check_three_for_two,
    find_equivalence,
    find_w_split,
    is_quasiequivalence,
    make_sigma,
    sigma_report,
    w_split_decompose,
)


def test_sigma_always_contains_identities(split):
    s = make_sigma(split.bicategory, ())
    assert {"id_X", "id_Y"} <= set(s.members)
    with pytest.raises(StructureError):
        make_sigma(split.bicategory, ("nope",))


def test_three_for_two_identities_only(split):
    assert check_three_for_two(make_sigma(split.bicategory, ())) is None


def test_three_for_two_witness_without_e(split):
    v = check_three_for_two(make_sigma(split.bicategory, ("s", "r")))
    assert v is not None
    assert (v.g, v.f, v.h, v.missing) == ("s", "r", "e", "e")


def test_three_for_two_full_sigma_ok(split, split_sigma):
    assert check_three_for_two(split_sigma) is None
    # independent oracle: exhaustive triple enumeration straight off the tables
    bic = split.bicategory
    for g, f in bic.composable_arrow_pairs():
        gf = bic.hcomp1[(g, f)]
        for h in bic.arrows_between(bic.arrow_src(f), bic.arrow_dst(g)):
            has_iso = any(
                bic.is_invertible(c) for c in bic.cells_between(gf, h)
            )
            if has_iso:
                flags = [x in split_sigma for x in (f, g, h)]
                assert sum(flags) != 2


def test_w_split_identity_both_roles(split):
    res = find_w_split(split.bicategory, "id_X")
    assert res.role == "both"
    assert res.as_section.cell == "id_id_X"


def test_w_split_s_is_section_with_retraction_r(split):
    res = find_w_split(split.bicategory, "s")
    assert res.role == "section"
    assert res.as_section.retraction == "r"
    assert res.as_section.cell == "id_id_X"


def test_w_split_e_is_neither(split):
    # independent oracle: exhaustive search over all Y-endomorphism partners
    bic = split.bicategory
    for partner in bic.arrows_between("Y", "Y"):
        rs = bic.hcomp1[(partner, "e")]
        assert not any(
            bic.is_invertible(c) for c in bic.cells_between(rs, "id_Y")
        )
    assert find_w_split(bic, "e").role == "none"


def test_decompose_w_split_arrow_is_itself(split_sigma):
    dec = w_split_decompose(split_sigma, "s", 4)
    assert dec.chain == ("s",)
    assert dec.cell == "id_s"


def test_decompose_e_as_section_then_retraction(split_sigma):
    dec = w_split_decompose(split_sigma, "e", 2)
    assert dec.chain == ("s", "r")
    assert dec.cell == "id_e"
    assert w_split_decompose(split_sigma, "e", 1) is None


def test_decompose_needs_positive_bound(split_sigma):
    with pytest.raises(StructureError):
        w_split_decompose(split_sigma, "e", 0)


def test_quasiequivalence_identity_and_iso(split, iso):
    assert is_quasiequivalence(split.bicategory, "id_X")
    assert is_quasiequivalence(iso.bicategory, "u")


def test_quasiequivalence_fails_for_s(split):
    bic = split.bicategory
    assert not is_quasiequivalence(bic, "s")
    # independent oracle: fullness of composition with s fails on hom(Y, Y):
    # no cell e => id_Y although s*r and s*id_Y are connected downstream
    assert bic.cells_between("e", "id_Y") == ()
    assert bic.hcomp1[("s", "r")] == "e"


def test_equivalences(split, iso):
    w = find_equivalence(split.bicategory, "id_X")
    assert w.quasiinverse == "id_X"
    w = find_equivalence(iso.bicategory, "u")
    assert (w.quasiinverse, w.cell_to_id_src, w.cell_to_id_dst) == (
        "v",
        "id_id_A",
        "id_id_B",
    )
    assert find_equivalence(split.bicategory, "s") is None


def test_equivalences_are_quasiequivalences(split, iso, grpd, triv, twocell):
    for pres in (split, iso, grpd, triv, twocell):
        bic = pres.bicategory
        for f in bic.arrows:
            if find_equivalence(bic, f) is not None:
                assert is_quasiequivalence(bic, f)


def test_two_sided_w_split_with_shared_partner_is_equivalence(split, iso, grpd, triv):
    for pres in (split, iso, grpd, triv):
        bic = pres.bicategory
        for f in bic.arrows:
            res = find_w_split(bic, f)
            if res.role != "both":
                continue
            if res.as_section.retraction == res.as_retraction.section:
                assert find_equivalence(bic, f) is not None


def test_three_for_two_stable_under_iso_closure(split):
    bic = split.bicategory

    def iso_closure(names):
        out = set(names)
        for f in names:
            for g in bic.arrows_between(*bic.arrows[f]):
                if any(bic.is_invertible(c) for c in bic.cells_between(f, g)):
                    out.add(g)
        return tuple(out)

    for base in itertools.combinations(("s", "r", "e"), 2):
        plain = check_three_for_two(make_sigma(bic, base))
        closed = check_three_for_two(make_sigma(bic, iso_closure(base)))
        assert (plain is None) == (closed is None)


def test_sigma_report_shape(split_sigma):
    rep = sigma_report(split_sigma, max_len=2)
    assert rep["three_for_two"]["ok"]
    rows = {r["arrow"]: r for r in rep["arrows"]}
    assert rows["e"]["decomposition"]["chain"] == ["s", "r"]
    assert rows["s"]["w_split"]["role"] == "section"


def test_w_split_search_runs_once_per_member_and_report(monkeypatch):
    """sigma_report searches each member exactly once: its own row and the
    decomposition pieces, which every w_split_decompose call shares, both
    read ``SigmaClass.w_splits``."""
    doc = families.generate("chaotic", 4, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    calls = collections.Counter()
    search = sigma_module.find_w_split

    def counted(bic, f):
        calls[f] += 1
        return search(bic, f)

    monkeypatch.setattr(sigma_module, "find_w_split", counted)
    report = sigma_report(sigma, max_len=4)
    assert len(sigma.members) == 16
    assert all(row["decomposition"] for row in report["arrows"])
    assert calls == collections.Counter(sigma.members)
