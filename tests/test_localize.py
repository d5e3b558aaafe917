import json
import random
from collections import Counter

import pytest

from bench import families
from bicatkit import ho
from bicatkit import localize as localize_module
from bicatkit import sigma as sigma_module
from bicatkit.core import validate_bicategory
from bicatkit.ho import ProbeSet, enumerate_probes, f_hat_chain, hocell_from_json, i_cell
from bicatkit.library import (
    BICATEGORIES,
    default_probe_targets,
    load_fixture,
    load_fixture_bicategory,
)
from bicatkit.localize import localize, replay_certificate
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

from tests import reference_scans as ref
from tests.conftest import TWOCELL_DOC
from tests.tables import COCYCLE_DOC, COLLAPSE_DOC, UNIT_DOC, UNITOR_DOC, split_z2_doc
from tests.test_hat_differential import STRAY_DOC
from tests.test_index_differential import COHERENCE_DOC
from tests.test_presentation import TRIV_DOC


@pytest.fixture(scope="module")
def split_probeset(split_sigma):
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso", "grpd")]
    return enumerate_probes(split_sigma, targets)


def test_trivial_localization(triv):
    sigma = make_sigma(triv.bicategory, ())
    cert = localize(sigma)
    assert cert.ok
    assert [e.arrow for e in cert.equivalences] == ["id_pt"]


def test_split_full_sigma_certificate(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset, max_len=2)
    assert cert.ok
    assert cert.three_for_two is None
    decs = {d["arrow"]: d["chain"] for d in cert.decompositions}
    assert decs["e"] == ["s", "r"]
    assert decs["s"] == ["s"]
    eqs = {e.arrow: e for e in cert.equivalences}
    assert set(eqs) == {"id_X", "id_Y", "s", "r", "e"}
    assert eqs["s"].quasiinverse == "r"
    # the cylinder class e => id_Y sits inside s's witness and is invertible
    side = eqs["s"].to_id_dst
    assert (side.cell.f, side.cell.g) == ("e", "id_Y")
    assert side.cancel_left.is_equal and side.cancel_right.is_equal
    assert cert.probes_used
    # replay re-runs the passing sweep, so the JSON leaves it out
    assert "three_for_two" not in cert.to_json()


def test_split_underclosed_sigma_rejected(split):
    sigma = make_sigma(split.bicategory, ("s", "r"))
    cert = localize(sigma)
    assert cert.status == "three-for-two-failed"
    w = cert.three_for_two["witness"]
    assert (w["g"], w["f"], w["h"]) == ("s", "r", "e")
    assert not cert.equivalences
    assert cert.to_json()["three_for_two"] == {"ok": False, "witness": w}


def test_decomposition_bound_respected(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset, max_len=1)
    assert cert.status == "decomposition-failed"
    missing = [d for d in cert.decompositions if d["chain"] is None]
    assert missing and missing[0]["arrow"] == "e"


def test_certificate_json_is_deterministic(split_sigma, split_probeset):
    a = json.dumps(localize(split_sigma, split_probeset).to_json(), sort_keys=True)
    b = json.dumps(localize(split_sigma, split_probeset).to_json(), sort_keys=True)
    assert a == b


def test_certificate_replays(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset)
    ok, problems = replay_certificate(split_sigma, cert.to_json(), split_probeset)
    assert ok, problems


def test_replay_detects_tampering(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset).to_json()
    tampered = json.loads(json.dumps(cert))
    entry = tampered["equivalences"][0]
    side = entry["to_id_dst"]
    # claim the inverse is the cell itself: e => id_Y then e => id_Y again
    side["inverse"] = side["hocell"]
    ok, problems = replay_certificate(split_sigma, tampered, split_probeset)
    assert entry["arrow"] == "e"
    assert (ok, problems) == (False, ["e/to_id_dst: cells do not chain: 'id_Y' vs 'e'"])


def _forge(cert: dict) -> None:
    """Every side claims the identity class of id_X, which inverts itself; it
    is a true witness only where q * arrow or arrow * q is id_X."""
    for entry in cert["equivalences"]:
        for side in ("to_id_src", "to_id_dst"):
            entry[side]["hocell"] = entry[side]["inverse"] = {"f": "id_X", "g": "id_X", "terms": []}


def _forged_problems() -> list[str]:
    """Six forged sides do not run to an identity, and on every side the
    decider cancels the identity class syntactically, unlike the stored
    derivations."""
    boundaries = {
        "e/to_id_src": "e * e",
        "e/to_id_dst": "e * e",
        "id_Y/to_id_src": "id_Y * id_Y",
        "id_Y/to_id_dst": "id_Y * id_Y",
        "r/to_id_src": "s * r",
        "s/to_id_dst": "s * r",
    }
    problems = []
    for arrow in ("e", "id_X", "id_Y", "r", "s"):
        for side in (f"{arrow}/to_id_src", f"{arrow}/to_id_dst"):
            if side in boundaries:
                problems.append(f"{side}: hocell is not {boundaries[side]} => id")
            problems += [
                f"{side}: {key} is not the re-derived verdict"
                for key in ("cancel_left", "cancel_right")
            ]
    return problems


def _s(cert: dict) -> dict:
    return next(e for e in cert["equivalences"] if e["arrow"] == "s")


def _swap_inverse(cert: dict) -> None:
    side = _s(cert)["to_id_dst"]
    side["hocell"], side["inverse"] = side["inverse"], side["hocell"]


def _change_eta(cert: dict) -> None:
    terms = _s(cert)["to_id_dst"]["hocell"]["terms"]
    next(t for t in terms if "eta" in t)["eta"] = "a_e"


def _drop_term(cert: dict) -> None:
    _s(cert)["to_id_dst"]["inverse"]["terms"].pop()


def _change_quasiinverse(cert: dict) -> None:
    _s(cert)["quasiinverse"] = "e"


def _claim_unknown(cert: dict) -> None:
    _s(cert)["to_id_dst"]["cancel_left"] = {"verdict": "unknown"}


def _e_chain(cert: dict) -> dict:
    return next(d for d in cert["decompositions"] if d["arrow"] == "e")


def _chain_apart(cert: dict) -> None:
    _e_chain(cert)["chain"] = ["r", "r"]


def _cylinder_with_w(cert: dict) -> None:
    """Give s's cylinder class its true W, which ``make_cylinder`` derives
    from d0."""
    terms = _s(cert)["to_id_dst"]["hocell"]["terms"]
    next(t for t in terms if "cylinder" in t)["cylinder"]["W"] = "Y"


def _inverse_cylinder_with_w(cert: dict) -> None:
    terms = _s(cert)["to_id_dst"]["inverse"]["terms"]
    next(t for t in terms if "cylinder" in t)["cylinder"]["W"] = "Y"


def _inverse_unknown_cell(cert: dict) -> None:
    terms = _s(cert)["to_id_dst"]["inverse"]["terms"]
    next(t for t in terms if "cell" in t)["cell"] = "nope"


def _chain_through_e(cert: dict) -> None:
    """e is marked but not w-split; a_e is an invertible e => e, so only the
    chain arrow check can object."""
    _e_chain(cert)["chain"] = ["e"]


@pytest.fixture(scope="module")
def split_z2_cert():
    """The split idempotent with a Z/2 of cells on every arrow, so a
    homotopy's eta has a non-identity rival, and its certificate."""
    pres = load_presentation_with_sigma(split_z2_doc(), "split_z2")
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    probes = enumerate_probes(sigma, default_probe_targets(sigma))
    return sigma, probes, localize(sigma, probes).to_json()


@pytest.mark.parametrize(
    "tamper, problems",
    [
        # hocell and inverse trade places: still mutually inverse, but the
        # class now runs id_Y => e, away from the identity, and the decider
        # derives the cancellations with other traces
        (
            _swap_inverse,
            [
                "s/to_id_dst: hocell is not s * r => id",
                "s/to_id_dst: cancel_left is not the re-derived verdict",
                "s/to_id_dst: cancel_right is not the re-derived verdict",
            ],
        ),
        (
            _change_eta,
            [
                "s/to_id_dst: invertibility does not re-derive",
                "s/to_id_dst: probe split_z2->grpd#0 separates",
            ],
        ),
        # the inverse loses its last transport cell, a_e, so inverse o cell
        # leaves a_e over
        (
            _drop_term,
            [
                "s/to_id_dst: invertibility does not re-derive",
                "s/to_id_dst: probe split_z2->grpd#0 separates",
            ],
        ),
        (_forge, _forged_problems()),
        (
            _change_quasiinverse,
            ["s/to_id_src: hocell is not e * s => id", "s/to_id_dst: hocell is not s * e => id"],
        ),
        (_claim_unknown, ["s/to_id_dst: cancel_left is not the re-derived verdict"]),
        (lambda cert: cert.update(schema_version=0), ["schema_version mismatch"]),
        # 2 == 2.0, so only the type check catches the float
        (lambda cert: cert.update(schema_version=True), ["schema_version mismatch"]),
        (lambda cert: cert.update(schema_version=2.0), ["schema_version mismatch"]),
        (
            lambda cert: cert.update(status="derivation-failed"),
            ["certificate status is 'derivation-failed'"],
        ),
        (lambda cert: cert.update(budget=0), ["field 'budget' is below 1"]),
        (
            _chain_apart,
            ["decomposition chain for e: split_z2: composite r * r not in hcomp1 table"],
        ),
        (_chain_through_e, ["chain arrow e for e is not a w-split member"]),
        (lambda cert: cert.update(max_len=0), ["field 'max_len' is below 1"]),
        # e's chain is s, r
        (
            lambda cert: cert.update(max_len=1),
            ["decomposition chain for e is longer than max_len"],
        ),
        # fields that replay re-derives, which localize no longer writes
        (
            lambda cert: cert.update(three_for_two={"ok": True, "witness": None}),
            ["field 'three_for_two' is unknown"],
        ),
        (
            lambda cert: cert.update(i_functoriality={"ok": True, "checked": 50, "failures": []}),
            ["field 'i_functoriality' is unknown"],
        ),
        (_cylinder_with_w, ["s/to_id_dst: field 'hocell.terms[1].cylinder.W' is unknown"]),
        # a fault in a side's inverse is named under that field
        (
            _inverse_cylinder_with_w,
            ["s/to_id_dst: field 'inverse.terms[0].cylinder.W' is unknown"],
        ),
        (_inverse_unknown_cell, ["s/to_id_dst: inverse.terms[1]: unknown cell 'nope'"]),
        # the same marked set, listed as localize never writes it
        (
            lambda cert: cert["sigma"].insert(1, cert["sigma"][1]),
            ["marked class does not match the certificate"],
        ),
        (
            lambda cert: cert["sigma"].reverse(),
            ["marked class does not match the certificate"],
        ),
    ],
    ids=[
        "inverse-swapped",
        "eta-changed",
        "term-dropped",
        "forged-witness",
        "quasiinverse-changed",
        "verdict-unknown",
        "schema-version",
        "schema-version-bool",
        "schema-version-float",
        "status",
        "budget-zero",
        "chain-apart",
        "chain-not-w-split",
        "max-len-zero",
        "max-len-below-chain",
        "three-for-two-kept",
        "i-functoriality-kept",
        "cylinder-w-kept",
        "inverse-cylinder-w",
        "inverse-unknown-cell",
        "sigma-repeated",
        "sigma-unsorted",
    ],
)
def test_replay_names_each_tamper(split_z2_cert, tamper, problems):
    sigma, probes, cert = split_z2_cert
    assert replay_certificate(sigma, cert, probes) == (True, [])
    bad = json.loads(json.dumps(cert))
    tamper(bad)
    assert replay_certificate(sigma, bad, probes) == (False, problems)
    # the reference compares the version with ==, so there only the shape
    # check rejects 2.0
    version = bad["schema_version"]
    if type(version) is not int and version == ref.SCHEMA_VERSION:
        problems = ["field 'schema_version' has the wrong type"]
    assert reference_problems(problems) == ref.replay_certificate(sigma, bad, probes)[1]


def reference_problems(problems: list[str]) -> list[str]:
    """The problems the reference replay reports too: it predates the check
    that each side runs from ``q * arrow`` or ``arrow * q`` to an identity,
    the comparison of the stored cancellation sections, the read of
    ``max_len``, and the check that ``sigma`` lists the marked arrows sorted
    and each once (it compares sets, so where the sets differ both report the
    marked class, and a comparison that can see a changed set filters both
    sides).  It also predates naming a fault in a side's ``inverse`` under
    that field, and names it under ``hocell``."""
    newer = (
        ": hocell is not ",
        " re-derived verdict",
        "max_len",
        "marked class does not match the certificate",
    )
    return [
        p.replace("'inverse.", "'hocell.").replace(": inverse.", ": hocell.")
        for p in problems
        if not any(line in p for line in newer)
    ]


def _family_sigma(family: str, n: int, seed: int = 1):
    doc = families.generate(family, n, seed, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    return make_sigma(pres.bicategory, pres.sigma_names)


def _single_edits(cert: dict, names: list[str], rng, count: int | None = None):
    """Each single edit of cert with its mutant, or a seeded sample of count
    of them: a string leaf renamed to another name of the table, a bool
    flipped, an int moved by -1, +1 or +1000, or a list entry dropped or
    repeated."""
    edits = []

    def walk(node, path):
        if isinstance(node, list):
            edits.extend((kind, path, i) for i in range(len(node)) for kind in ("drop", "repeat"))
        if isinstance(node, (dict, list)):
            for key, sub in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(sub, path + (key,))
        elif isinstance(node, bool):
            edits.append(("flip", path, None))
        elif isinstance(node, int):
            edits.extend(("add", path, d) for d in (-1, 1, 1000))
        elif isinstance(node, str):
            edits.append(("rename", path, None))

    walk(cert, ())
    for kind, path, arg in edits if count is None else rng.sample(edits, count):
        bad = json.loads(json.dumps(cert))
        *outer, last = path
        parent = bad
        for key in outer:
            parent = parent[key]
        if kind == "drop":
            del parent[last][arg]
        elif kind == "repeat":
            parent[last].insert(arg, parent[last][arg])
        elif kind == "flip":
            parent[last] = not parent[last]
        elif kind == "add":
            parent[last] += arg
        else:
            parent[last] = rng.choice([n for n in names if n != parent[last]])
        yield (kind, path, arg), bad


@pytest.mark.parametrize("table", [("chaotic_z2", 2), ("chaotic", 3), "split_z2"], ids=str)
def test_single_edit_mutants_replay_as_the_reference(table, split_z2_cert):
    """On a seeded sample of single-edit mutants, replay lists the problems
    the reference replay, which evaluates every probe on every side, lists,
    beside the boundary checks the reference lacks.  In chaotic(n) and
    chaotic_z2(n) every marked arrow is a quasiequivalence, so sides whose
    source hat is the identity skip the probes; split_z2 has none."""
    if table == "split_z2":
        sigma, probes, cert = split_z2_cert
    else:
        sigma = _family_sigma(*table)
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
        cert = localize(sigma, probes).to_json()
    bic = sigma.bic
    names = sorted({*bic.objects, *bic.arrows, *bic.cells})
    outcomes = Counter()
    for _, bad in _single_edits(cert, names, random.Random(f"{table}:edits"), 250):
        ok, problems = replay_certificate(sigma, bad, probes)
        assert ok == (not problems)
        want = ref.replay_certificate(sigma, bad, probes)[1]
        assert reference_problems(problems) == reference_problems(want)
        marked = bad["sigma"] == list(sigma.sorted_members())
        assert ("marked class does not match the certificate" in problems) != marked
        outcomes[ok] += 1
        outcomes["sigma edits"] += not marked
        outcomes["separates"] += any("separates" in p for p in problems)
    assert outcomes[True] > 0 and outcomes[False] > 0 and outcomes["sigma edits"] > 0
    if table == ("chaotic_z2", 2):
        assert outcomes["separates"] > 0


@pytest.mark.parametrize(
    "table, identities",
    [("split_z2", ["id_X", "id_Y"]), (("chaotic", 3), ["id_o0", "id_o1", "id_o2"])],
    ids=str,
)
def test_every_single_edit_that_replays_ok_leaves_the_certificate_true(
    table, identities, split_z2_cert
):
    """Replay every single edit of the certificate.  Exactly these replay ok,
    each because the edited certificate is still true:
    - ``bicategory`` renamed: it is a label;
    - ``max_len`` moved to 3, 5 or 1004, which every chain still fits (the
      longest has 2 arrows), or ``budget`` to 7, 9 or 1008, which every
      derivation still fits;
    - an identity's chain ``[id_x]`` repeated: ``[id_x, id_x]`` composes to
      id_x again.
    Every other field is read, so no other edit goes unseen."""
    if table == "split_z2":
        sigma, probes, cert = split_z2_cert
    else:
        sigma = _family_sigma(*table)
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
        cert = localize(sigma, probes).to_json()
    bic = sigma.bic
    names = sorted({*bic.objects, *bic.arrows, *bic.cells})
    replayed_ok = []
    for edit, bad in _single_edits(cert, names, random.Random(f"{table}:sweep")):
        ok, problems = replay_certificate(sigma, bad, probes)
        assert ok == (not problems)
        if ok:
            replayed_ok.append(edit)
    repeats = [
        ("repeat", ("decompositions", i, "chain"), 0)
        for i, dec in enumerate(cert["decompositions"])
        if dec["chain"] == [dec["arrow"]] and dec["arrow"] in identities
    ]
    bounds = [("add", (field,), d) for field in ("max_len", "budget") for d in (-1, 1, 1000)]
    assert len(repeats) == len(identities)
    assert sorted(replayed_ok, key=repr) == sorted(
        [("rename", ("bicategory",), None), *bounds, *repeats], key=repr
    )


def _count_probe_values(monkeypatch) -> list:
    calls = []
    value = ho.probe_value

    def counted(fun, k, hat):
        calls.append(k)
        return value(fun, k, hat)

    monkeypatch.setattr(ho, "probe_value", counted)
    return calls


def test_honest_replay_reads_no_probe_value_where_every_hat_is_the_identity(
    monkeypatch, split_z2_cert
):
    """In chaotic(3) each side's ``inverse o class`` has the identity as its
    source hat, so replay evaluates no probe; in split_z2 the marked arrows
    are not quasiequivalences, so the sides with homotopies evaluate every
    probe, on ``inverse o class`` and on the identity class."""
    sigma = _family_sigma("chaotic", 3)
    probes = enumerate_probes(sigma, default_probe_targets(sigma))
    assert len(probes.probes) == families.chaotic_probe_count(3, False)
    cert = localize(sigma, probes).to_json()
    calls = _count_probe_values(monkeypatch)
    assert replay_certificate(sigma, cert, probes) == (True, [])
    assert calls == []
    sigma, probes, cert = split_z2_cert
    assert replay_certificate(sigma, cert, probes) == (True, [])
    # each probe evaluates inverse o class, then the identity class it must match
    assert calls and all(ho.source_hat(k) is None for k in calls[::2])
    assert all(not k.terms for k in calls[1::2])


def test_replay_hats_each_side_once(monkeypatch, split_z2_cert):
    """Replay builds each side's two composites once and hats ``inverse o
    hocell`` once, for the identity shortcut and, on the sides outside it,
    for the probe values too; split_z2 marks 5 arrows, so 10 sides."""
    sigma, probes, cert = split_z2_cert
    calls = []
    hat = ho.source_hat

    def counted(k):
        calls.append(k)
        return hat(k)

    for module in (ho, localize_module):
        monkeypatch.setattr(module, "source_hat", counted)
    built = []
    vcomp = localize_module.ho_vcomp
    monkeypatch.setattr(
        localize_module, "ho_vcomp", lambda k2, k1: built.append((k2, k1)) or vcomp(k2, k1)
    )
    assert replay_certificate(sigma, cert, probes) == (True, [])
    assert len(calls) == 2 * len(sigma.members) == 10
    assert any(hat(k) is None for k in calls)
    # inverse o hocell and hocell o inverse
    assert len(built) == 2 * len(calls)


def test_a_forged_side_whose_hat_is_not_the_identity_lists_every_separating_probe():
    """A z cell appended to one side's class of chaotic_z2(2) leaves
    ``inverse o class`` with the source hat z, so replay evaluates every
    probe and names each one that sends z to a non-identity cell."""
    sigma = _family_sigma("chaotic_z2", 2)
    bic = sigma.bic
    probes = enumerate_probes(sigma, default_probe_targets(sigma))
    cert = localize(sigma, probes).to_json()
    bad = json.loads(json.dumps(cert))
    entry = bad["equivalences"][0]
    hocell = entry["to_id_src"]["hocell"]
    z = f"z_{hocell['g']}"
    hocell["terms"].append({"kind": "icell", "cell": z})
    ok, problems = replay_certificate(sigma, bad, probes)
    where = f"{entry['arrow']}/to_id_src"
    separating = [
        f"{where}: probe {fun.name} separates"
        for fun in probes.probes
        if fun.cell_map[z] != fun.target.idc[fun.arr_map[hocell["g"]]]
    ]
    assert len(separating) > 1
    assert not ok
    assert problems == [f"{where}: invertibility does not re-derive"] + separating
    assert problems == ref.replay_certificate(sigma, bad, probes)[1]


def test_split_z2_witnesses_are_transported_along_their_isos(split_z2_cert, monkeypatch):
    """Each decomposition's iso is an a_ automorphism, not an identity, so
    ``localize`` transports every marked arrow's witness along it; the
    transported witnesses replay, and one without its transport cell fails."""
    sigma, probes, cert = split_z2_cert
    assert {d["arrow"]: (d["chain"], d["cell"]) for d in cert["decompositions"]} == {
        "e": (["s", "r"], "a_e"),
        "id_X": (["id_X"], "a_id_X"),
        "id_Y": (["id_Y"], "a_id_Y"),
        "r": (["r"], "a_r"),
        "s": (["s"], "a_s"),
    }
    adjusted = []
    adjust = localize_module._adjust_witness

    def counted(sigma, wit, arrow, iso):
        adjusted.append((arrow, iso))
        return adjust(sigma, wit, arrow, iso)

    monkeypatch.setattr(localize_module, "_adjust_witness", counted)
    assert localize(sigma, probes).to_json() == cert
    assert adjusted == [(d["arrow"], d["cell"]) for d in cert["decompositions"]]
    assert replay_certificate(sigma, cert, probes) == (True, [])
    bad = json.loads(json.dumps(cert))
    terms = _s(bad)["to_id_dst"]["hocell"]["terms"]
    assert terms[0] == {"kind": "icell", "cell": "a_e"}
    terms[0]["cell"] = "id_e"
    assert replay_certificate(sigma, bad, probes) == (
        False,
        [
            "s/to_id_dst: invertibility does not re-derive",
            "s/to_id_dst: probe split_z2->grpd#0 separates",
        ],
    )


def test_replay_rejects_wrong_sigma(split, split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset).to_json()
    smaller = make_sigma(split.bicategory, ("s", "r"))
    ok, problems = replay_certificate(smaller, cert, split_probeset)
    assert not ok


def test_witness_classes_evaluate_to_mutually_inverse_cells(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset)
    for eq in cert.equivalences:
        for side in (eq.to_id_src, eq.to_id_dst):
            for fun in split_probeset.probes:
                val = f_hat_chain(fun, side.cell)
                inv = f_hat_chain(fun, side.inverse)
                tgt = fun.target
                assert tgt.vertical(inv, val) == tgt.idc[fun.arr_map[side.cell.f]]
                assert tgt.vertical(val, inv) == tgt.idc[fun.arr_map[side.cell.g]]


def test_stored_hocells_deserialize(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset)
    blob = json.dumps(cert.to_json())
    for eq in json.loads(blob)["equivalences"]:
        stored = eq["to_id_src"]["hocell"]
        cell = hocell_from_json(split_sigma, stored)
        assert (cell.f, cell.g) == (stored["f"], stored["g"])


def _validated_pairs():
    """(name, sigma) for every validated table of the corpus, under its file's
    marked class and under all its arrows: the fixtures, the four generated
    families at n = 2, 3 and seeds 1, 2, and the tables the tests spell out."""
    tables = [(name, load_fixture(name)) for name in BICATEGORIES]
    for family in families.FAMILIES:
        for n in (2, 3):
            for seed in (1, 2):
                doc = families.generate(family, n, seed, marked=True)
                tables.append((doc.name, load_presentation_with_sigma(doc.text(), doc.name)))
    docs = {
        "twocell": TWOCELL_DOC,
        "unitor": UNITOR_DOC,
        "cocycle": COCYCLE_DOC,
        "unit": UNIT_DOC,
        "stray": STRAY_DOC,
        "collapse": COLLAPSE_DOC,
        "coherence": COHERENCE_DOC,
        "triv_doc": TRIV_DOC,
    }
    tables += [(name, load_presentation_with_sigma(text, name)) for name, text in docs.items()]
    for name, pres in tables:
        bic = pres.bicategory
        if validate_bicategory(bic).ok:
            for names in (pres.sigma_names, sorted(bic.arrows)):
                yield name, make_sigma(bic, names)


def test_i_functoriality_holds_on_every_validated_table():
    """The projection is functorial on every entry of a validated table, so
    certificates do not record it: the decider, run entry by entry, finds no
    failure, with or without probes."""
    seen = set()
    for name, sigma in _validated_pairs():
        seen.add(name)
        for probes in (None, enumerate_probes(sigma, default_probe_targets(sigma))):
            section = ref._i_functoriality(sigma, probes, 8)
            assert section["ok"] and section["failures"] == [], name
    assert {"split", "unit", "chaotic_z23"} <= seen and "coherence" not in seen


def test_localize_and_replay_decide_four_classes_per_marked_arrow(monkeypatch):
    """Each marked arrow's two sides each take two ho_eq calls in localize and
    two in replay, none of them with probes; chaotic(3) marks 9 arrows."""
    doc = families.generate("chaotic", 3, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    calls = []
    decide = localize_module.ho_eq

    def counted(k1, k2, probes=None, budget=8):
        calls.append(probes)
        return decide(k1, k2, probes, budget)

    monkeypatch.setattr(localize_module, "ho_eq", counted)
    cert = localize(sigma)
    assert cert.ok and len(sigma.members) == 9
    assert calls == [None] * 36
    calls.clear()
    assert replay_certificate(sigma, cert.to_json()) == (True, [])
    assert calls == [None] * 36


def test_localize_and_replay_search_each_member_once(monkeypatch):
    """The w-split search behind the decomposition pieces, the base witnesses
    and replay's chain check runs once per member of the marked class."""
    doc = families.generate("chaotic", 3, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    calls = Counter()
    search = sigma_module.find_w_split

    def counted(bic, f):
        calls[f] += 1
        return search(bic, f)

    monkeypatch.setattr(sigma_module, "find_w_split", counted)
    no_probes = ProbeSet(())
    cert = localize(sigma, no_probes)
    assert cert.ok and calls == Counter(sigma.members)
    assert replay_certificate(sigma, cert.to_json(), no_probes) == (True, [])
    assert calls == Counter(sigma.members)


ONE_SIDED_DOC = """
objects: X Y
arrows:
  f : X -> Y
  g : X -> Y
cells:
  a : f => g
  b : g => f
  p : g => g
vcomp:
  b . a = id_f
  a . b = p
  p . p = p
  p . a = a
  b . p = b
"""


def test_derive_side_decides_each_cancellation_on_its_own():
    """b . a = id_f but a . b = p, a split idempotent: [I(b)] cancels [I(a)]
    from one side only, so neither verdict can stand in for the other."""
    pres = load_presentation_with_sigma(ONE_SIDED_DOC, "one_sided")
    assert validate_bicategory(pres.bicategory).ok
    sigma = make_sigma(pres.bicategory, ())
    a, b = i_cell(sigma, "a"), i_cell(sigma, "b")

    def verdicts(cell, inv):
        return [v.verdict for v in localize_module._derive_side(cell, inv, 8)]

    assert verdicts(a, b) == ["equal", "unknown"]
    assert verdicts(b, a) == ["unknown", "equal"]


def test_default_probe_targets_are_parsed_once_and_change_no_byte():
    """Every call shares one parse of each bundled target; the probes into
    them, and the certificates naming those probes, are those into freshly
    parsed copies, as each call made before the parses were shared."""
    for name in BICATEGORIES:
        pres = load_fixture(name)
        sigma = make_sigma(pres.bicategory, pres.sigma_names)
        shared = default_probe_targets(sigma)
        again = default_probe_targets(sigma)
        assert len(shared) == len(again) > 0
        assert all(a is b for a, b in zip(shared, again))
        fresh = [load_fixture_bicategory(t.name) for t in shared]
        assert not any(a is b for a, b in zip(shared, fresh))
        probes, fresh_probes = (enumerate_probes(sigma, ts) for ts in (shared, fresh))
        assert probes.names() == fresh_probes.names()
        cert, fresh_cert = (
            json.dumps(localize(sigma, ps).to_json(), sort_keys=True)
            for ps in (probes, fresh_probes)
        )
        assert cert == fresh_cert


@pytest.mark.parametrize("family", ["chaotic", "chaotic_z2"])
def test_localize_and_replay_build_no_probe_structure_cells(monkeypatch, family):
    """Localize and replay read each default probe's name and maps alone: no
    probe computes its xi or phi, which are read off its cell map on first
    use, so neither appears among its attributes afterwards."""
    doc = families.generate(family, 3, 1, marked=True)
    pres = load_presentation_with_sigma(doc.text(), doc.name)
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    enumerated = []
    enumerate_into = localize_module.enumerate_probes

    def kept(*args):
        found = enumerate_into(*args)
        enumerated.extend(found.probes)
        return found

    monkeypatch.setattr(localize_module, "enumerate_probes", kept)
    cert = localize(sigma)
    assert cert.ok
    assert replay_certificate(sigma, cert.to_json()) == (True, [])
    assert len(enumerated) == 2 * len(cert.probes_used) > 0
    assert not [fun.name for fun in enumerated if {"xi", "phi"} & vars(fun).keys()]
