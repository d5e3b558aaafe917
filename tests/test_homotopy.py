import pytest

from bicatkit.core import StructureError, identity_pseudofunctor
from bicatkit.elevator import Layer, make_computad, make_expr, normalize
from bicatkit.homotopy import (
    ComposeGlue,
    HatError,
    ICell,
    LemmaHypothesisError,
    TransformOrigin,
    apply_functor,
    compose_lemma,
    cylinder_homotopy,
    f_hat,
    hat,
    identity_cylinder,
    inverse_cylinder,
    make_cylinder,
    make_homotopy,
    mu_homotopies,
    retraction_cylinder,
    transform_homotopy,
)
from bicatkit.library import load_fixture
from bicatkit.localize import LocalizationCertificate
from bicatkit.presentation import load_pseudofunctor
from bicatkit.queries import QueryDoc
from bicatkit.sigma import is_quasiequivalence, make_sigma
from bicatkit.ho import enumerate_probes, ho_cell, sample_homotopies

from tests.tables import grpd_lemma_instance


def collapse(split, iso):
    return load_pseudofunctor(
        """
map_obj:
  X -> A
  Y -> B
map_arr:
  s -> u
  r -> v
  e -> id_B
""",
        split.bicategory,
        iso.bicategory,
        name="collapse",
    )


def test_identity_cylinder_components(split):
    cx = identity_cylinder(split.bicategory, "X")
    assert (cx.w, cx.z, cx.d0, cx.d1, cx.x, cx.s) == ("X",) * 2 + ("id_X",) * 4
    assert cx.alpha0 == cx.alpha1 == "id_id_X"


def test_inverse_cylinder_is_involutive_swap(split, split_sigma):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    inv = inverse_cylinder(cyl)
    assert (inv.d0, inv.d1, inv.alpha0, inv.alpha1) == (
        cyl.d1,
        cyl.d0,
        cyl.alpha1,
        cyl.alpha0,
    )
    assert inverse_cylinder(inv) == cyl


def test_retraction_cylinder_matches_tables(split_sigma):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    assert (cyl.w, cyl.z, cyl.d0, cyl.d1, cyl.x, cyl.s) == (
        "Y",
        "X",
        "e",
        "id_Y",
        "r",
        "r",
    )
    assert cyl.alpha0 == "id_r" and cyl.alpha1 == "id_r"


def test_cylinder_homotopy_boundaries(split_sigma):
    bic = split_sigma.bic
    cx = identity_cylinder(bic, "X")
    hx = cylinder_homotopy(cx)
    assert (hx.h, hx.eta, hx.eps) == ("id_X", "id_id_X", "id_id_X")
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    hc = cylinder_homotopy(cyl)
    assert (hc.f, hc.g) == ("e", "id_Y")


def test_reconstruction_from_cylinder_class(split_sigma, grpd):
    # eps o (h * H^C) o eta rebuilds every sampled homotopy on the nose
    for sigma in (split_sigma, make_sigma(grpd.bicategory, ())):
        for hom in sample_homotopies(sigma, cap=60):
            step = cylinder_homotopy(hom.cyl)
            step = transform_homotopy("lwhisk", hom.h, step)
            step = transform_homotopy("pre", hom.eta, step)
            step = transform_homotopy("post", hom.eps, step)
            assert step == hom


def test_transform_post_with_identity_is_noop(grpd):
    bic = grpd.bicategory
    h0, _ = mu_homotopies(bic, "g")
    assert transform_homotopy("post", bic.idc[h0.g], h0) == h0


def test_invert_mu_homotopy_swaps_roles(grpd):
    bic = grpd.bicategory
    h0, _ = mu_homotopies(bic, "g")
    inv = transform_homotopy("invert", "", h0)
    assert (inv.f, inv.g) == (h0.g, h0.f)
    assert inv.eta == bic.inverse(h0.eps) and inv.eps == bic.inverse(h0.eta)
    assert inv.cyl == inverse_cylinder(h0.cyl)


def test_lwhisk_of_cylinder_class_composes_mediator(split_sigma):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    hc = cylinder_homotopy(cyl)
    # whiskering the tautological class by r replaces id_W with r * id_W = r
    out = transform_homotopy("lwhisk", "r", hc)
    assert out.h == "r"
    out = transform_homotopy("lwhisk", "e", hc)
    assert out.h == "e"


def test_mu_homotopies_identity_cell_all_identity(grpd):
    bic = grpd.bicategory
    h0, h1 = mu_homotopies(bic, "id_id_P")
    assert h0.eta == "id_id_P" and h0.eps == "id_id_P"
    assert h0 == h1


def test_mu_homotopies_displayed_tuples(grpd):
    bic = grpd.bicategory
    h0, h1 = mu_homotopies(bic, "g")
    assert (h0.h, h0.eta, h0.eps) == ("id_P", "g", "id_id_P")
    assert (h1.h, h1.eta, h1.eps) == ("id_P", "id_id_P", "g")


def test_mu_homotopies_hat_to_the_cell_under_every_probe(grpd):
    sigma = make_sigma(grpd.bicategory, ())
    probes = enumerate_probes(sigma, [])
    assert probes.probes
    for mu in sorted(grpd.bicategory.cells):
        h0, h1 = mu_homotopies(grpd.bicategory, mu)
        for fun in probes.probes:
            assert f_hat(fun, h0) == fun.cell_map[mu]
            assert f_hat(fun, h1) == fun.cell_map[mu]
            assert f_hat(fun, ICell(grpd.bicategory, mu)) == fun.cell_map[mu]


def test_apply_identity_functor_is_noop(split, split_sigma):
    fun = identity_pseudofunctor(split.bicategory)
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    assert apply_functor(fun, cyl) == cyl
    hc = cylinder_homotopy(cyl)
    assert apply_functor(fun, hc) == hc


def test_push_forward_rejects_a_cylinder_of_another_table(split_sigma):
    """A second parse of one table has the same names but is another table,
    so neither the push-forward nor f_hat, which reads it, takes its
    cylinders."""
    fun = identity_pseudofunctor(load_fixture("split").bicategory)
    hc = cylinder_homotopy(retraction_cylinder(split_sigma, "s", "r", "id_id_X"))
    for route, obj in ((apply_functor, hc.cyl), (apply_functor, hc), (f_hat, hc)):
        with pytest.raises(StructureError, match="^cylinder does not live in the functor's source$"):
            route(fun, obj)
    assert not fun.target._hat_cache


def test_apply_collapse_to_retraction_cylinder(split, split_sigma, iso):
    fun = collapse(split, iso)
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    img = apply_functor(fun, cyl)
    assert is_quasiequivalence(iso.bicategory, img.s)
    assert (img.w, img.z, img.d0, img.d1, img.x, img.s) == (
        "B",
        "A",
        "id_B",
        "id_B",
        "v",
        "v",
    )


def test_apply_chain_functor_corrects_eta_with_phi(chain_f):
    src = chain_f.source
    sigma = make_sigma(src, ())
    cyl = make_cylinder(src, "a", "a", "a", "id_X", "id_a", "id_a", sigma=sigma)
    hom = make_homotopy(cyl, "cb", src.idc["cba"], src.idc["cba"])
    img = apply_functor(chain_f, hom)
    tgt = chain_f.target
    want_eta = tgt.vertical(
        tgt.inverse(chain_f.phi[("cb", "a")]), chain_f.cell_map[hom.eta]
    )
    assert img.eta == want_eta
    want_eps = tgt.vertical(chain_f.cell_map[hom.eps], chain_f.phi[("cb", "a")])
    assert img.eps == want_eps


def test_hat_identity_cylinder(split):
    assert hat(split.bicategory, identity_cylinder(split.bicategory, "X")) == "id_id_X"


def test_hat_on_iso_image_cylinder(iso):
    bic = iso.bicategory
    cyl = make_cylinder(bic, "id_B", "id_B", "v", "v", "id_v", "id_v")
    # independent solve: the only candidate over the singleton hom works
    sols = [
        c
        for c in bic.cells_between("id_B", "id_B")
        if bic.whisker_l("v", c) == cyl.alpha_tilde()
    ]
    assert sols == ["id_id_B"]
    assert hat(bic, cyl) == "id_id_B"


def test_hat_of_cylinder_class_equals_cylinder_hat(iso, grpd):
    for pres, sig in ((iso, ("u", "v")), (grpd, ())):
        sigma = make_sigma(pres.bicategory, sig)
        for hom in sample_homotopies(sigma, cap=40):
            if not is_quasiequivalence(pres.bicategory, hom.cyl.s):
                continue
            hc = cylinder_homotopy(hom.cyl)
            assert hat(pres.bicategory, hc) == hat(pres.bicategory, hom.cyl)


def test_hat_requires_quasiequivalence(split, split_sigma):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    with pytest.raises(HatError, match="quasiequivalence"):
        hat(split.bicategory, cyl)


def test_hat_solves_defining_equation_exactly(iso, grpd, twocell):
    for pres, sig in ((iso, ("u", "v")), (grpd, ()), (twocell, ())):
        bic = pres.bicategory
        sigma = make_sigma(bic, sig)
        for hom in sample_homotopies(sigma, cap=60):
            cyl = hom.cyl
            if not is_quasiequivalence(bic, cyl.s):
                continue
            c_hat = hat(bic, cyl)
            assert bic.whisker_l(cyl.s, c_hat) == cyl.alpha_tilde()


def test_hat_of_inverse_is_inverse_hat(grpd, twocell):
    for pres in (grpd, twocell):
        bic = pres.bicategory
        sigma = make_sigma(bic, ())
        for hom in sample_homotopies(sigma, cap=60):
            if not hom.invertible_cells:
                continue
            if not is_quasiequivalence(bic, hom.cyl.s):
                continue
            inv = transform_homotopy("invert", "", hom)
            assert hat(bic, inv) == bic.inverse(hat(bic, hom))


def test_f_hat_on_cylinder_class_under_collapse(split, split_sigma, iso):
    fun = collapse(split, iso)
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    assert f_hat(fun, cylinder_homotopy(cyl)) == "id_id_B"


def test_f_hat_agrees_with_apply_then_hat(split, split_sigma, iso, grpd, chain_f):
    fun = collapse(split, iso)
    for hom in sample_homotopies(split_sigma, cap=60):
        img = apply_functor(fun, hom)
        assert f_hat(fun, hom) == hat(iso.bicategory, img)
    src = chain_f.source
    sigma = make_sigma(src, ())
    for hom in sample_homotopies(sigma, cap=60):
        img = apply_functor(chain_f, hom)
        assert f_hat(chain_f, hom) == hat(chain_f.target, img)


def test_f_hat_through_factorization(chain_f, split, split_sigma, iso):
    from tests.reference_scans import factorize

    for fun, sigma in (
        (chain_f, make_sigma(chain_f.source, ())),
        (collapse(split, iso), split_sigma),
    ):
        mid, f1, f2 = factorize(fun)
        for hom in sample_homotopies(sigma, cap=40):
            assert f1.cell_map[f_hat(f2, hom)] == f_hat(fun, hom)


def test_f_hat_whisker_and_compose_laws(split, split_sigma, iso, grpd):
    from bicatkit.core import comp_sub_f

    cases = [
        (collapse(split, iso), split_sigma),
        (identity_pseudofunctor(grpd.bicategory), make_sigma(grpd.bicategory, ())),
    ]
    for fun, sigma in cases:
        bic = sigma.bic
        tgt = fun.target
        for hom in sample_homotopies(sigma, cap=40):
            base = f_hat(fun, hom)
            for mu in bic.cells_between(hom.g, hom.g):
                lhs = f_hat(fun, transform_homotopy("post", mu, hom))
                assert lhs == tgt.vertical(fun.cell_map[mu], base)
            for nu in bic.cells_between(hom.f, hom.f):
                lhs = f_hat(fun, transform_homotopy("pre", nu, hom))
                assert lhs == tgt.vertical(base, fun.cell_map[nu])
            for r in sorted(bic.arrows):
                if bic.arrow_src(r) == bic.arrow_dst(hom.f):
                    lhs = f_hat(fun, transform_homotopy("lwhisk", r, hom))
                    rhs = comp_sub_f(
                        fun, tgt.idc[fun.arr_map[r]], base, r, hom.f, r, hom.g
                    )
                    assert lhs == rhs
                if bic.arrow_dst(r) == bic.arrow_src(hom.f):
                    lhs = f_hat(fun, transform_homotopy("rwhisk", r, hom))
                    rhs = comp_sub_f(
                        fun, base, tgt.idc[fun.arr_map[r]], hom.f, r, hom.g, r
                    )
                    assert lhs == rhs


def test_f_hat_of_functor_cylinder_unique_solution(chain_f):
    src = chain_f.source
    sigma = make_sigma(src, ())
    cyl = make_cylinder(src, "a", "a", "a", "id_X", "id_a", "id_a", sigma=sigma)
    assert f_hat(chain_f, cylinder_homotopy(cyl)) == "id_a"


def test_compose_lemma_trivial_instance(grpd):
    bic = grpd.bicategory
    sigma = make_sigma(bic, ())
    cx = identity_cylinder(bic, "P")
    ident = make_homotopy(cx, "id_P", "id_id_P", "id_id_P")
    glue = ComposeGlue(
        "P", "id_P", "id_P", "id_P", "id_P",
        "id_id_P", "id_id_P", "id_id_P", "id_id_P", "id_id_P",
    )
    out = compose_lemma(sigma, ident, ident, glue)
    assert (out.h, out.eta, out.eps) == ("id_P", "id_id_P", "id_id_P")


def test_compose_lemma_grpd_instance(grpd):
    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    out = compose_lemma(sigma, h1, h2, glue)
    # eta = (gamma1 * d0) o eta1 = g o g = id; eps = eps2 o (gamma2 * d1) = id
    assert (out.eta, out.eps) == ("id_id_P", "id_id_P")
    assert out.origin is not None


def test_compose_lemma_rejects_wrong_nu2_via_hypothesis_two(grpd):
    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    bad = ComposeGlue(
        glue.w, glue.s, glue.h, glue.b1, glue.b2,
        glue.nu1, "g", glue.gamma1, glue.gamma2, glue.delta,
    )
    with pytest.raises(LemmaHypothesisError) as err:
        compose_lemma(sigma, h1, h2, bad)
    assert err.value.hypothesis == 2


def test_compose_lemma_rejects_wrong_hypothesis_one(grpd):
    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    bad = ComposeGlue(
        glue.w, glue.s, glue.h, glue.b1, glue.b2,
        glue.nu1, glue.nu2, "id_id_P", glue.gamma2, glue.delta,
    )
    with pytest.raises(LemmaHypothesisError) as err:
        compose_lemma(sigma, h1, h2, bad)
    assert err.value.hypothesis == 1


def test_records_keep_their_equality_contract(split, split_sigma):
    # a homotopy's origin is provenance: == and != ignore it, and so does hash
    hom, other = sample_homotopies(split_sigma, cap=2)
    rebuilt = make_homotopy(hom.cyl, hom.h, hom.eta, hom.eps, TransformOrigin("invert", "", hom))
    assert hom == rebuilt and not hom != rebuilt and hash(hom) == hash(rebuilt)
    assert hom != other and not hom == other

    # equal marked classes, and the cells over them, are equal and hash alike
    s1, s2 = (make_sigma(split.bicategory, split.sigma_names) for _ in range(2))
    assert s1 is not s2 and s1 == s2 and not s1 != s2 and hash(s1) == hash(s2)
    k1, k2 = ho_cell(s1, (hom,)), ho_cell(s2, (rebuilt,))
    assert k1 == k2 and hash(k1) == hash(k2)

    # normal forms compare by layers and boundary only, so != must agree
    def nf(name):
        comp = make_computad(name, ["X", "Y"], {"f": ("X", "Y")}, {"a": (("f",), ("f",))})
        return normalize(make_expr(comp, [Layer((), "a", ())]))

    assert nf("one") == nf("two") and not nf("one") != nf("two")
    assert hash(nf("one")) == hash(nf("two"))

    # mutable records get fresh containers
    for make in (lambda: LocalizationCertificate("t", (), 4, 8), QueryDoc):
        a, b = vars(make()), vars(make())
        shared = [k for k, v in a.items() if isinstance(v, (list, dict)) and v is b[k]]
        assert shared == []
