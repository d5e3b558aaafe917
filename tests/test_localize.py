import json

import pytest

from bicatkit.ho import enumerate_probes, f_hat_chain, hocell_from_json
from bicatkit.library import load_fixture_bicategory
from bicatkit.localize import localize, replay_certificate
from bicatkit.sigma import make_sigma


@pytest.fixture(scope="module")
def split_probeset(split_sigma):
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso", "grpd")]
    return enumerate_probes(split_sigma, targets)


def test_trivial_localization(triv):
    sigma = make_sigma(triv.bicategory, ())
    cert = localize(sigma)
    assert cert.ok
    assert [e.arrow for e in cert.equivalences] == ["id_pt"]
    assert cert.i_functoriality["ok"]


def test_split_full_sigma_certificate(split_sigma, split_probeset):
    cert = localize(split_sigma, split_probeset, max_len=2)
    assert cert.ok
    assert cert.three_for_two == {"ok": True, "witness": None}
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
    assert cert.i_functoriality["ok"]
    assert cert.probes_used


def test_split_underclosed_sigma_rejected(split):
    sigma = make_sigma(split.bicategory, ("s", "r"))
    cert = localize(sigma)
    assert cert.status == "three-for-two-failed"
    w = cert.three_for_two["witness"]
    assert (w["g"], w["f"], w["h"]) == ("s", "r", "e")
    assert not cert.equivalences


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
    # claim the inverse is the cell itself: cancellations stop deriving
    side["inverse"] = side["hocell"]
    ok, problems = replay_certificate(split_sigma, tampered, split_probeset)
    assert not ok
    assert problems


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
