import time

import pytest

from bench import families
from bicatkit.core import PseudofunctorData, StructureError, identity_pseudofunctor
from bicatkit.homotopy import (
    ICell,
    cylinder_homotopy,
    identity_cylinder,
    inverse_cylinder,
    make_homotopy,
    mu_homotopies,
    retraction_cylinder,
    transform_homotopy,
)
from bicatkit.ho import (
    enumerate_2functors,
    enumerate_probes,
    extend_2cell_data,
    extend_2functor,
    extend_pseudofunctor,
    f_hat_chain,
    ho_cell,
    ho_eq,
    ho_identity,
    ho_inverse,
    ho_vcomp,
    ho_whisk,
    hocell_from_json,
    i_cell,
    make_probe_set,
    sample_homotopies,
)
from bicatkit.library import BICATEGORIES, load_fixture, load_fixture_bicategory
from bicatkit.localize import default_probe_targets
from bicatkit.presentation import load_presentation_with_sigma, load_pseudofunctor
from bicatkit.sigma import make_sigma


@pytest.fixture(scope="module")
def split_probes(split, split_sigma):
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso", "grpd")]
    return enumerate_probes(split_sigma, targets)


@pytest.fixture(scope="module")
def grpd_sigma(grpd):
    return make_sigma(grpd.bicategory, ())


@pytest.fixture(scope="module")
def grpd_probes(grpd_sigma):
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso")]
    return enumerate_probes(grpd_sigma, targets)


def test_i_of_identity_is_empty_class(split_sigma):
    k = i_cell(split_sigma, "id_s")
    assert k.terms == () and (k.f, k.g) == ("s", "s")


def test_i_preserves_vertical_composition(grpd_sigma, grpd_probes):
    bic = grpd_sigma.bic
    for (b, a), c in bic.vcomp.items():
        lhs = i_cell(grpd_sigma, c)
        rhs = ho_vcomp(i_cell(grpd_sigma, b), i_cell(grpd_sigma, a))
        assert ho_eq(lhs, rhs, grpd_probes).is_equal


def test_i_preserves_whiskering_syntactically(grpd_sigma, grpd_probes):
    bic = grpd_sigma.bic
    for (g, a), c in bic.lwhisk.items():
        lhs = i_cell(grpd_sigma, c)
        rhs = ho_whisk("left", g, i_cell(grpd_sigma, a))
        assert ho_eq(lhs, rhs, grpd_probes).is_equal


def test_ho_vcomp_unit_and_concatenation(split_sigma, split_probes):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))
    ident = ho_identity(split_sigma, "e")
    assert ho_eq(ho_vcomp(k, ident), k, split_probes).is_equal
    k2 = ho_cell(split_sigma, (cylinder_homotopy(inverse_cylinder(cyl)),))
    joined = ho_vcomp(k2, k)
    assert joined.terms == k.terms + k2.terms


def test_whisker_by_identity_arrow_is_equal(split_sigma, split_probes):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))
    assert ho_eq(ho_whisk("left", "id_Y", k), k, split_probes).is_equal
    assert ho_eq(ho_whisk("right", "id_Y", k), k, split_probes).is_equal


def test_cylinder_class_inverts(split_sigma, split_probes):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))
    kinv = ho_cell(split_sigma, (cylinder_homotopy(inverse_cylinder(cyl)),))
    v = ho_eq(ho_vcomp(kinv, k), ho_identity(split_sigma, "e"), split_probes)
    assert v.is_equal
    assert any(s.rule == "cylinder-cancel" for s in v.trace)
    v = ho_eq(ho_vcomp(k, kinv), ho_identity(split_sigma, "id_Y"), split_probes)
    assert v.is_equal


def test_invertible_cells_class_inverts(grpd_sigma, grpd_probes):
    for hom in sample_homotopies(grpd_sigma, cap=40):
        if not hom.invertible_cells:
            continue
        k = ho_cell(grpd_sigma, (hom,))
        kinv = ho_inverse(k)
        assert kinv.terms[0] == transform_homotopy("invert", "", hom)
        assert ho_eq(ho_vcomp(kinv, k), ho_identity(grpd_sigma, k.f), grpd_probes).is_equal
        assert ho_eq(ho_vcomp(k, kinv), ho_identity(grpd_sigma, k.g), grpd_probes).is_equal


def test_decomposition_rule(grpd_sigma, grpd_probes):
    bic = grpd_sigma.bic
    for hom in sample_homotopies(grpd_sigma, cap=30):
        lhs = ho_cell(grpd_sigma, (hom,))
        parts = [
            ICell(bic, hom.eta),
            transform_homotopy("lwhisk", hom.h, cylinder_homotopy(hom.cyl)),
            ICell(bic, hom.eps),
        ]
        rhs = ho_cell(grpd_sigma, tuple(parts))
        assert ho_eq(lhs, rhs, grpd_probes).is_equal


def test_boundary_discipline(split_sigma, split_probes):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))  # e => id_Y
    with pytest.raises(StructureError, match="boundary mismatch"):
        ho_eq(k, ho_identity(split_sigma, "e"), split_probes)


def test_distinct_records_probe_and_values(grpd_sigma, grpd_probes):
    probes = make_probe_set(
        grpd_sigma,
        list(enumerate_probes(grpd_sigma, []).probes),
    )
    v = ho_eq(i_cell(grpd_sigma, "g"), ho_identity(grpd_sigma, "id_P"), probes)
    assert v.verdict == "distinct"
    fun = {p.name: p for p in probes.probes}[v.probe]
    assert f_hat_chain(fun, i_cell(grpd_sigma, "g")) == v.left_value
    assert v.left_value != v.right_value


def test_unknown_without_probes(grpd_sigma):
    v = ho_eq(i_cell(grpd_sigma, "g"), ho_identity(grpd_sigma, "id_P"), probes=None)
    assert v.verdict == "unknown"


def test_w1_exchange_rule(grpd_sigma, grpd_probes):
    bic = grpd_sigma.bic
    cx = identity_cylinder(bic, "P")
    h_cell = make_homotopy(cx, "id_P", "g", "id_id_P")
    k_cell = make_homotopy(cx, "id_P", "id_id_P", "g")
    kh = ho_cell(grpd_sigma, (h_cell,))
    kk = ho_cell(grpd_sigma, (k_cell,))
    lhs = ho_vcomp(ho_whisk("left", "id_P", kh), ho_whisk("right", "id_P", kk))
    rhs = ho_vcomp(ho_whisk("right", "id_P", kk), ho_whisk("left", "id_P", kh))
    v = ho_eq(lhs, rhs, grpd_probes)
    assert v.is_equal
    assert any(s.rule == "w1-exchange" for s in v.trace)


def test_equal_verdicts_hold_under_every_probe(split_sigma, split_probes, grpd_sigma, grpd_probes):
    # soundness: re-evaluate both sides of Equal pairs under all probes
    pairs = []
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))
    kinv = ho_cell(split_sigma, (cylinder_homotopy(inverse_cylinder(cyl)),))
    pairs.append((split_sigma, split_probes, ho_vcomp(kinv, k), ho_identity(split_sigma, "e")))
    h0, h1 = mu_homotopies(grpd_sigma.bic, "g")
    pairs.append((grpd_sigma, grpd_probes, ho_cell(grpd_sigma, (h0,)), ho_cell(grpd_sigma, (h1,))))
    for sigma, probes, a, b in pairs:
        assert ho_eq(a, b, probes).is_equal
        for fun in probes.probes:
            assert f_hat_chain(fun, a) == f_hat_chain(fun, b)


def test_equal_fuzz_never_separated_by_any_probe(split, split_sigma, split_probes, grpd_sigma, grpd_probes):
    import random

    rng = random.Random(17)
    for sigma, probes, extra_targets in (
        (split_sigma, split_probes, ("grpd", "iso", "triv")),
        (grpd_sigma, grpd_probes, ("split", "iso", "triv")),
    ):
        fresh = enumerate_probes(
            sigma,
            [load_fixture_bicategory(n) for n in extra_targets if n != sigma.bic.name],
            include_self=True,
        )
        atoms = [ho_cell(sigma, (h,)) for h in sample_homotopies(sigma, cap=25)]
        atoms += [i_cell(sigma, mu) for mu in sorted(sigma.bic.cells)]

        def random_chain():
            k = rng.choice(atoms)
            for _ in range(rng.randint(0, 2)):
                nxt = [a for a in atoms if a.f == k.g]
                if not nxt:
                    break
                k = ho_vcomp(rng.choice(nxt), k)
            return k

        equal_seen = 0
        for _ in range(250):
            k1, k2 = random_chain(), random_chain()
            if (k1.f, k1.g) != (k2.f, k2.g):
                continue
            verdict = ho_eq(k1, k2, probes)
            if verdict.is_equal:
                equal_seen += 1
                for fun in list(probes.probes) + list(fresh.probes):
                    assert f_hat_chain(fun, k1) == f_hat_chain(fun, k2)
            elif verdict.verdict == "distinct":
                fun = {p.name: p for p in probes.probes}[verdict.probe]
                assert f_hat_chain(fun, k1) != f_hat_chain(fun, k2)
        assert equal_seen > 10


def test_lemma_provenance_expands_in_decider(grpd, grpd_sigma, grpd_probes):
    from tests.test_homotopy import grpd_lemma_instance
    from bicatkit.homotopy import compose_lemma

    sigma, h1, h2, glue = grpd_lemma_instance(grpd)
    built = compose_lemma(sigma, h1, h2, glue)
    lhs = ho_cell(sigma, (built,))
    rhs = ho_vcomp(ho_cell(sigma, (h2,)), ho_cell(sigma, (h1,)))
    v = ho_eq(lhs, rhs, grpd_probes)
    assert v.is_equal
    assert any(s.rule == "lemma-expand" for s in v.trace)
    for fun in grpd_probes.probes:
        want = fun.target.vertical(f_hat_chain(fun, ho_cell(sigma, (h2,))),
                                   f_hat_chain(fun, ho_cell(sigma, (h1,))))
        assert f_hat_chain(fun, lhs) == want


def test_hocell_json_roundtrip(split_sigma):
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(
        split_sigma,
        (cylinder_homotopy(cyl), ICell(split_sigma.bic, "id_id_Y")),
    )
    back = hocell_from_json(split_sigma, k.to_json())
    assert back == k


def test_enumerate_2functors_counts(split, iso, grpd, triv):
    src = split.bicategory
    assert len(enumerate_2functors(src, triv.bicategory)) == 1
    # collapses to A, to B, the straight map and the swapped map
    assert len(enumerate_2functors(src, iso.bicategory)) == 4
    names = {f.arr_map["s"] for f in enumerate_2functors(src, iso.bicategory)}
    assert names == {"id_A", "id_B", "u", "v"}
    # identity plus two collapses
    endos = enumerate_2functors(src, src)
    assert any(f.arr_map == {a: a for a in src.arrows} for f in endos)


def test_probe_enumeration_prunes():
    # checking only complete maps took 80 s on chain(5)xZ/2 and did not finish
    # in minutes on chaotic(4)xZ/2; this bound may be tightened, not loosened
    for family, n in (("chain_z2", 5), ("chaotic_z2", 4)):
        doc = families.generate(family, n, 1, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
        sigma = make_sigma(pres.bicategory, pres.sigma_names)
        start = time.perf_counter()
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
        assert time.perf_counter() - start < 3.0, family
        if family == "chaotic_z2":
            # into itself 2 * 4^4, into iso 2^4, into triv, grpd and split 1 + 2 + 2
            assert len(probes.probes) == 2 * 4**4 + 2**4 + 5


def test_probe_side_conditions_enforced(split, split_sigma):
    src = split.bicategory
    ident = identity_pseudofunctor(src)
    with pytest.raises(StructureError, match="quasiequivalences"):
        make_probe_set(split_sigma, [ident])


def test_extension_of_collapse_probe(split, split_sigma, iso, split_probes):
    fun = load_pseudofunctor(
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
    ext = extend_2functor(fun, split_sigma)
    assert ext.report.ok
    # restriction along the projection recovers the functor
    for mu in split.bicategory.cells:
        assert ext.value(i_cell(split_sigma, mu)) == fun.cell_map[mu]
    # cylinder classes go to invertible cells with the inverse class inverse
    cyl = retraction_cylinder(split_sigma, "s", "r", "id_id_X")
    k = ho_cell(split_sigma, (cylinder_homotopy(cyl),))
    kinv = ho_cell(split_sigma, (cylinder_homotopy(inverse_cylinder(cyl)),))
    tgt = iso.bicategory
    assert tgt.vertical(ext.value(kinv), ext.value(k)) == tgt.idc[fun.arr_map["e"]]


def test_extension_into_self_when_sigma_is_equivalences(iso):
    bic = iso.bicategory
    sigma = make_sigma(bic, ("u", "v"))
    ident = identity_pseudofunctor(bic)
    ext = extend_2functor(ident, sigma)
    assert ext.report.ok
    # classes collapse to hat values computed in the bicategory itself
    from bicatkit.homotopy import hat

    for k in ext.materialized:
        if len(k.terms) == 1 and not isinstance(k.terms[0], ICell):
            assert ext.value(k) == hat(bic, k.terms[0])


def test_extend_pseudofunctor_agrees_with_2functor_route(split, split_sigma, iso):
    fun = load_pseudofunctor(
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
    via_2f = extend_2functor(fun, split_sigma)
    via_pf = extend_pseudofunctor(fun, split_sigma)
    for k in via_2f.materialized:
        assert via_2f.value(k) == via_pf.value(k)


def test_extend_pseudofunctor_chain_two_code_paths(chain_f):
    from bicatkit.homotopy import f_hat

    sigma = make_sigma(chain_f.source, ())
    ext = extend_pseudofunctor(chain_f, sigma)
    assert ext.report.ok
    for hom in sample_homotopies(sigma, cap=40):
        k = ho_cell(sigma, (hom,))
        assert ext.value(k) == f_hat(chain_f, hom)


def forced_solutions(fun, k):
    """The cells of a 2-functor's target that the equation pinning the empty
    or lone-term class k admits as its value, each candidate tried: the unit
    for the empty class, restriction for a lone cell term and, for a lone
    homotopy, the hat equation Fs * c = F(alpha_tilde) put between F(eta)
    and F(eps)."""
    assert fun.is_2functor
    d, amap, fmap = fun.target, fun.arr_map, fun.cell_map
    candidates = d.cells_between(amap[k.f], amap[k.g])
    if not k.terms:
        return [v for v in candidates if v == d.idc[amap[k.f]]]
    (term,) = k.terms
    if isinstance(term, ICell):
        return [v for v in candidates if v == fmap[term.cell]]
    cyl = term.cyl
    hats = [
        c for c in d.cells_between(amap[cyl.d0], amap[cyl.d1])
        if d.whisker_l(amap[cyl.s], c) == fmap[cyl.alpha_tilde()]
    ]
    return [
        v for v in candidates for c in hats
        if v == d.vertical_chain([fmap[term.eta], d.whisker_l(amap[term.h], c), fmap[term.eps]])
    ]


def test_perturbation_breaks_verified_equations(grpd, grpd_sigma):
    # every alternative value on a materialized class breaks the equation
    # that pins it, so the extension is the only one
    bic = grpd.bicategory
    ident = identity_pseudofunctor(bic)
    ext = extend_2functor(ident, grpd_sigma)
    assert ext.report.ok
    broken = 0
    for k in ext.materialized:
        assert forced_solutions(ident, k) == [ext.value(k)], str(k)
        broken += len(bic.cells_between(ident.arr_map[k.f], ident.arr_map[k.g])) - 1
    assert broken > 0


def test_perturbation_pins_lone_identity_cell_terms(triv):
    # [I(id_id_pt)] = id in Ho, so its value is forced; no whisker equation
    # separates g from it under this probe
    sigma = make_sigma(triv.bicategory, triv.sigma_names)
    probes = enumerate_probes(sigma, default_probe_targets(sigma)).probes
    fun = next(p for p in probes if p.name == "triv->grpd#0")
    ext = extend_2functor(fun, sigma)
    k = ho_cell(sigma, (ICell(triv.bicategory, "id_id_pt"),))
    assert ext.value(k) == "id_id_P"
    assert forced_solutions(fun, k) == ["id_id_P"]
    assert forced_solutions(fun, ho_identity(sigma, "id_pt")) == ["id_id_P"]


def test_units_check_fails_when_an_identity_cell_moves(grpd, grpd_sigma):
    # an unvalidated 2-functor sending id_id_P to g: neither [I(id_id_P)] nor
    # the identity cylinder's homotopy goes to an identity
    bic = grpd.bicategory
    base = identity_pseudofunctor(bic)
    bent = PseudofunctorData(
        "bent", bic, bic, base.obj_map, base.arr_map,
        {**base.cell_map, "id_id_P": "g"}, base.xi, base.phi,
    )
    ext = extend_2functor(bent, grpd_sigma)
    assert not ext.report.preserves_units and not ext.report.ok
    assert extend_2functor(base, grpd_sigma).report.preserves_units


def test_whisker_check_fails_when_a_cell_collapses():
    # an unvalidated self-map of chaotic_z2(2) sending z_a0_1 to id_a0_1:
    # the projected cell goes to an identity while its whiskers, other z
    # cells, keep their images
    doc = families.generate("chaotic_z2", 2, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    bic = pres.bicategory
    sigma = make_sigma(bic, pres.sigma_names)
    base = identity_pseudofunctor(bic)
    bent = PseudofunctorData(
        "bent", bic, bic, base.obj_map, base.arr_map,
        {**base.cell_map, "z_a0_1": "id_a0_1"}, base.xi, base.phi,
    )
    report = extend_2functor(bent, sigma).report
    assert not report.functorial_whisker and not report.ok
    assert report.preserves_units
    assert extend_2functor(base, sigma).report.ok


def test_extend_transformation_between_symmetric_probes(split, split_sigma, iso):
    from bicatkit.core import TransformationData, validate_transformation

    f_ = load_pseudofunctor(
        "map_obj:\n  X -> A\n  Y -> B\nmap_arr:\n  s -> u\n  r -> v\n  e -> id_B\n",
        split.bicategory, iso.bicategory, name="straight",
    )
    g_ = load_pseudofunctor(
        "map_obj:\n  X -> B\n  Y -> A\nmap_arr:\n  s -> v\n  r -> u\n  e -> id_A\n",
        split.bicategory, iso.bicategory, name="swapped",
    )
    tgt = iso.bicategory
    comp_obj = {"X": "u", "Y": "v"}
    comp_arr = {}
    for f in split.bicategory.arrows:
        x, _ = split.bicategory.arrows[f]
        src_arrow = tgt.hcomp1[(g_.arr_map[f], comp_obj[x])]
        comp_arr[f] = tgt.idc[src_arrow]
    theta = TransformationData("sym", f_, g_, comp_obj, comp_arr)
    assert validate_transformation(theta).ok
    _, report = extend_2cell_data("transformation", theta, split_sigma)
    assert report.ok, report.failures


def test_extend_identity_transformation_is_identity(split, split_sigma, iso):
    from bicatkit.core import TransformationData, validate_transformation

    f_ = load_pseudofunctor(
        "map_obj:\n  X -> A\n  Y -> B\nmap_arr:\n  s -> u\n  r -> v\n  e -> id_B\n",
        split.bicategory, iso.bicategory, name="straight",
    )
    tgt = iso.bicategory
    theta = TransformationData(
        "ident", f_, f_,
        comp_obj={x: tgt.id1[f_.obj_map[x]] for x in split.bicategory.objects},
        comp_arr={f: tgt.idc[f_.arr_map[f]] for f in split.bicategory.arrows},
    )
    assert validate_transformation(theta).ok
    extended, rep = extend_2cell_data("transformation", theta, split_sigma)
    assert rep.ok and extended is theta


def test_extend_modification_and_perturbation(twocell):
    from bicatkit.core import (
        ModificationData,
        TransformationData,
        validate_modification,
        validate_transformation,
    )

    bic = twocell.bicategory
    sigma = make_sigma(bic, ())
    ident = identity_pseudofunctor(bic)
    theta = TransformationData(
        "tw", ident, ident,
        comp_obj={"U": "id_U", "V": "id_V"},
        comp_arr={"id_U": "id_id_U", "id_V": "id_id_V", "m": "k"},
    )
    assert validate_transformation(theta).ok
    _, rep = extend_2cell_data(
        "transformation", theta, sigma
    )
    assert rep.ok, rep.failures
    rho = ModificationData("iden", theta, theta, {"U": "id_id_U", "V": "id_id_V"})
    assert validate_modification(rho).ok
    _, rep = extend_2cell_data("modification", rho, sigma)
    assert rep.ok
    bad = ModificationData("pert", theta, theta, {"U": "id_id_U", "V": "j"})
    _, rep = extend_2cell_data("modification", bad, sigma)
    assert not rep.ok and any("PM" in f for f in rep.failures)


def _probe_subjects():
    for name in BICATEGORIES:
        pres = load_fixture(name)
        yield make_sigma(pres.bicategory, pres.sigma_names)
    for family, n in (("chain", 3), ("chain_z2", 3), ("chaotic", 4), ("chaotic_z2", 3)):
        doc = families.generate(family, n, 1, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
        yield make_sigma(pres.bicategory, pres.sigma_names)


def test_enumerated_probes_pass_make_probe_set():
    # the CLI uses enumerate_probes' result without make_probe_set's checks;
    # they must hold for every probe it returns, with the default targets
    # and with every fixture named as a target, as `--probes` does
    fixtures = [load_fixture_bicategory(n) for n in BICATEGORIES]
    checked = 0
    for sigma in _probe_subjects():
        for targets, include_self in (
            (default_probe_targets(sigma), True),
            (fixtures, False),
        ):
            found = enumerate_probes(sigma, targets, include_self=include_self).probes
            assert make_probe_set(sigma, list(found)).probes == found
            checked += len(found)
    assert checked > 1000


def test_query_transforms_match_transform_homotopy(split_sigma):
    from bicatkit.queries import parse_query

    doc = parse_query(
        split_sigma,
        "cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)\n"
        "homotopy H = cyl(C)\n"
        "homotopy L = lwhisk(r, H)\n"
        "homotopy R = rwhisk(H, s)\n"
        "homotopy P = post(id_id_Y, H)\n"
        "homotopy N = pre(H, id_e)\n"
        "homotopy V = invert(H)\n",
    )
    h = doc.homotopies["H"]
    assert doc.homotopies["L"] == transform_homotopy("lwhisk", "r", h)
    assert doc.homotopies["R"] == transform_homotopy("rwhisk", "s", h)
    assert doc.homotopies["P"] == transform_homotopy("post", "id_id_Y", h)
    assert doc.homotopies["N"] == transform_homotopy("pre", "id_e", h)
    assert doc.homotopies["V"] == transform_homotopy("invert", "", h)
