"""Probe values read off each side's source hat against the per-probe hats
they replaced.

``ho.probe_value`` takes a side's ``ho.source_hat``, hatted once in the
source when every cylinder's marked arrow is a quasiequivalence there, and
reads the probe's value as the probe's image of that hat; otherwise the hat
is None and it falls back to ``ho.f_hat_chain``.  ``ho.separations`` walks
the probes with it for both the decider and replay.  The
reference is the verbatim copy, in ``tests/reference_scans.py``, of the two
probe loops that called ``f_hat_chain`` for every probe: the one in
``ho_eq`` and the one in ``replay_certificate``; replay's problems are
compared without the lines of the checks the reference predates.

The corpus is chaotic(3), chaotic(3)xZ/2, chain(4), chain(4)xZ/2 and
chaotic(2)xZ/2 at seeds 1 and 2 with every arrow marked, plus the six
fixtures.  In ``split`` (and the Z/2 split idempotent of the decider test)
the marked arrows are not quasiequivalences, so there every side with a
homotopy takes the fallback.

``ho_eq`` skips rewriting when every marked arrow is a quasiequivalence and
the two source hats differ; counting tests pin when it rewrites and how often
it hats each side, and the reference decider, which always rewrites, pins its
verdicts, on a table with only some arrows marked and under a probe set with
no separating probe too.
"""
import json
import random
from collections import Counter

import pytest

from bench import families
from bicatkit import ho
from bicatkit.core import StructureError
from bicatkit.homotopy import Homotopy, ICell, transform_homotopy
from bicatkit.library import BICATEGORIES, load_fixture, load_fixture_bicategory
from bicatkit.localize import default_probe_targets, localize, replay_certificate
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import is_quasiequivalence, make_sigma

from tests import reference_scans as ref
from tests.tables import split_z2_doc
from tests.test_decider_differential import _terms
from tests.test_hat_differential import count_solver
from tests.test_localize import reference_problems

FAMILY_TABLES = [
    (family, n, seed)
    for family, n in (
        ("chaotic", 3),
        ("chaotic_z2", 3),
        ("chain", 4),
        ("chain_z2", 4),
        ("chaotic_z2", 2),
    )
    for seed in (1, 2)
]
CORPUS = FAMILY_TABLES + list(BICATEGORIES)
SEQUENCES_PER_TABLE = 60


def _sigma(table):
    if isinstance(table, tuple):
        doc = families.generate(*table, marked=True)
        pres = load_presentation_with_sigma(doc.text(), doc.name)
    elif table == "split_z2":
        pres = load_presentation_with_sigma(split_z2_doc(), table)
    else:
        pres = load_fixture(table)
    return make_sigma(pres.bicategory, pres.sigma_names)


def _name(table) -> str:
    return table[0] if isinstance(table, tuple) else table


def _probes(sigma):
    return ho.enumerate_probes(sigma, default_probe_targets(sigma))


def _fast(k) -> bool:
    return all(
        isinstance(t, ICell) or is_quasiequivalence(k.bic, t.cyl.s) for t in k.terms
    )


def _cells(sigma, rng: random.Random) -> list:
    """Every lone term (each cell, each sampled homotopy and its inverse) and
    random chains of 1-8 of them, with the formal inverse of each chain that
    has one."""
    bic = sigma.bic
    terms: list = [ICell(bic, c) for c in sorted(bic.cells)]
    for h in ho.sample_homotopies(sigma, cap=200):
        terms.append(h)
        if h.invertible_cells:
            terms.append(transform_homotopy("invert", "", h))
    lone = []
    for t in terms:
        try:
            lone.append(ho.ho_cell(sigma, (t,)))
        except StructureError:  # a cylinder on an unmarked arrow
            pass
    by_src: dict[str, list] = {}
    for k in lone:
        by_src.setdefault(k.f, []).append(k.terms[0])
    out = list(lone)
    for _ in range(SEQUENCES_PER_TABLE):
        picks = [rng.choice(lone).terms[0]]
        for _ in range(rng.randint(0, 7)):
            nxt = by_src.get(picks[-1].g)
            if not nxt:
                break
            picks.append(rng.choice(nxt))
        k = ho.ho_cell(sigma, picks)
        out.append(k)
        try:
            out.append(ho.ho_inverse(k))
        except StructureError:
            pass
    return out


def test_probe_values_match_per_probe_hats():
    paths: Counter = Counter()
    for table in CORPUS:
        sigma = _sigma(table)
        probes = _probes(sigma)
        assert probes.probes
        rng = random.Random(f"{table}:probe-values")
        for k in _cells(sigma, rng):
            want = [(fun, ho.f_hat_chain(fun, k)) for fun in probes.probes]
            hat = ho.source_hat(k)
            got = [(fun, ho.probe_value(fun, k, hat)) for fun in probes.probes]
            assert got == want, (table, str(k))
            assert (ho.source_hat(k) is None) == (not _fast(k)), (table, str(k))
            paths[_fast(k), table == "split"] += len(want)
    # the fallback runs on split and only there; the fast path everywhere else
    assert paths[False, True] > 0 and paths[True, False] > 0
    assert paths[False, False] == 0


def test_probe_values_hat_each_side_once_when_asked(monkeypatch):
    sigma = _sigma(("chaotic_z2", 3, 1))
    probes = _probes(sigma)
    f, hs = next((f, ts) for f, ts in _terms(sigma, cap=200).items() if len(ts) > 3)
    k = ho.ho_cell(sigma, [t for t in hs if isinstance(t, Homotopy)][:3], f, f)
    calls: Counter = Counter()
    hat = ho.hat
    monkeypatch.setattr(ho, "hat", lambda *a: calls.update(["hat"]) or hat(*a))
    source = ho.source_hat(k)
    assert calls == {"hat": 3}
    values = [ho.probe_value(fun, k, source) for fun in probes.probes]
    assert len(values) == len(probes.probes) > 1
    assert calls == {"hat": 3}


def _decider_probes(sigma):
    """The probe set ``bicatkit ho-eq`` and ho-decide build."""
    found = ho.enumerate_probes(sigma, default_probe_targets(sigma), include_self=True)
    return ho.make_probe_set(sigma, list(found.probes))


def _count_decider(monkeypatch) -> list:
    """Record each ``_normalize_side``, ``source_hat`` and ``hat`` call of the
    decider, in call order."""
    calls: list = []
    for name in ("_normalize_side", "source_hat", "hat"):
        real = getattr(ho, name)
        monkeypatch.setattr(
            ho, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
        )
    return calls


def _homotopies(k) -> int:
    return sum(isinstance(t, Homotopy) for t in k.terms)


def _rewritten(sigma, seed: str) -> list:
    """``_queries`` less the syntactically equal pairs, which the decider
    answers before rewriting."""
    rng = random.Random(seed)
    return [
        (k1, k2)
        for k1, k2 in _queries(sigma, _terms(sigma, cap=2000), rng)
        if k1.terms != k2.terms
    ]


def test_in_the_regime_each_side_is_hatted_once_and_distinct_skips_rewriting(monkeypatch):
    """On chaotic(3)xZ/2 the decider hats each side once, before rewriting,
    calling ``hat`` once per homotopy term; a Distinct answer rewrites
    nothing, Equal and Unknown answers normalize both sides, and the probe
    walk reads the hats already computed.  ``hat`` keeps what it solves, so
    over the whole stream the hat solver runs at most once per distinct
    homotopy."""
    sigma = _sigma(("chaotic_z2", 3, 1))
    probes = _decider_probes(sigma)
    calls = _count_decider(monkeypatch)
    solver = count_solver(monkeypatch)
    verdicts: Counter = Counter()
    distinct: set = set()
    hatted = 0
    for k1, k2 in _rewritten(sigma, "hat-once"):
        calls.clear()
        verdict = ho.ho_eq(k1, k2, probes, 8).verdict
        verdicts[verdict] += 1
        rewrites = [] if verdict == "distinct" else ["_normalize_side"] * 2
        assert [c for c in calls if c != "hat"] == ["source_hat"] * 2 + rewrites
        assert calls.count("hat") == _homotopies(k1) + _homotopies(k2)
        distinct.update(t for t in k1.terms + k2.terms if isinstance(t, Homotopy))
        hatted += calls.count("hat")
    assert set(verdicts) == {"equal", "distinct", "unknown"}
    # the stream asks for each homotopy's hat about twice on average
    assert set(solver) == {sigma.bic} and len(solver) <= len(distinct)
    assert hatted > 2 * len(distinct)


def test_outside_the_regime_every_query_normalizes_both_sides(monkeypatch):
    """On split_z2 the marked e, r and s are not quasiequivalences, so sides
    with different source hats may still be equal: the decider rewrites
    first, then hats each side for the probe walk.  The cell pairs have
    different hats that both exist, so a gate that read only the query's
    cylinders would skip their rewriting."""
    sigma = _sigma("split_z2")
    bic = sigma.bic
    assert not ho.identity_is_admissible(sigma)
    probes = _decider_probes(sigma)
    queries = _rewritten(sigma, "split_z2:gate") + [
        (ho.i_cell(sigma, c), ho.ho_identity(sigma, f))
        for f in sorted(bic.arrows)
        for c in bic.cells_between(f, f)
        if not bic.is_identity_cell(c)
    ]
    calls = _count_decider(monkeypatch)
    hats: Counter = Counter()
    for k1, k2 in queries:
        calls.clear()
        verdict = ho.ho_eq(k1, k2, probes, 8)
        walk = [] if verdict.is_equal else ["source_hat"] * 2
        assert [c for c in calls if c != "hat"] == ["_normalize_side"] * 2 + walk
        h1, h2 = ho.source_hat(k1), ho.source_hat(k2)
        hats[h1 is None or h2 is None, h1 != h2, verdict.verdict] += 1
    # different hats, one of them missing, and yet equal by rewriting
    assert hats[True, True, "equal"] > 0
    assert hats[False, True, "distinct"] + hats[False, True, "unknown"] > 0


def test_an_unknown_with_one_source_hat_walks_no_probe(monkeypatch):
    """Sides that the rewrites do not join and whose source hats exist and
    are equal get one value, F of that hat, from every probe F, so the
    decider answers Unknown without evaluating a probe; sides with different
    hats, or without one, still walk the probes.  chaotic(3)xZ/2 lies in the
    regime, split_z2 outside it."""
    walked = []
    real = ho.probe_value
    monkeypatch.setattr(
        ho, "probe_value", lambda fun, k, hat: walked.append(k) or real(fun, k, hat)
    )
    seen: Counter = Counter()
    for table in (("chaotic_z2", 3, 1), "split_z2"):
        sigma = _sigma(table)
        probes = _decider_probes(sigma)
        for k1, k2 in _rewritten(sigma, f"{table}:one-hat"):
            walked.clear()
            verdict = ho.ho_eq(k1, k2, probes, 8).verdict
            h1, h2 = ho.source_hat(k1), ho.source_hat(k2)
            one_hat = h1 is not None and h1 == h2
            if verdict != "equal":
                assert (walked == []) == one_hat, (table, verdict)
            seen[table == "split_z2", one_hat, h1 is None or h2 is None, verdict] += 1
    # in the regime unknowns with one hat; outside it unknowns without one
    assert seen[False, True, False, "unknown"] > 0
    assert seen[True, False, True, "unknown"] > 0
    assert not any(n for (_, one_hat, _, verdict), n in seen.items() if one_hat and verdict == "distinct")


def test_without_probes_no_side_is_hatted(monkeypatch):
    calls = _count_decider(monkeypatch)
    for table in (("chaotic_z2", 3, 1), "split_z2"):
        sigma = _sigma(table)
        for k1, k2 in _rewritten(sigma, f"{table}:no-probes"):
            calls.clear()
            ho.ho_eq(k1, k2, None, 8)
            ho.ho_eq(k1, k2, ho.ProbeSet(()), 8)
            assert calls == ["_normalize_side"] * 4


def _queries(sigma, terms: dict, rng: random.Random):
    """ho-decide's three kinds: k^-1 k against the identity, z k against k
    for the last cell z on the arrow, and free pairs."""
    bic = sigma.bic
    arrows = sorted(f for f in bic.arrows if len(terms[f]) > 1)

    def seq(f: str, lo: int, hi: int):
        return ho.ho_cell(sigma, [rng.choice(terms[f]) for _ in range(rng.randint(lo, hi))])

    for _ in range(15):
        f = rng.choice(arrows)
        k = seq(f, 4, 12)
        yield ho.ho_vcomp(ho.ho_inverse(k), k), ho.ho_identity(sigma, f)
        z = bic.cells_between(f, f)[-1]
        k = seq(f, 8, 24)
        yield ho.ho_vcomp(ho.i_cell(sigma, z), k), k
        yield seq(f, 8, 24), seq(f, 8, 24)


def _verdict_cases():
    """(name, marked class, probe set, rng seed) for the decider comparison:
    the default probes on regime tables and on split and split_z2; chaotic(3)
    xZ/2 with every other non-identity arrow marked, still in the regime; and
    chaotic(3)xZ/2 with only the triv and iso probes, none of which separates
    anything there."""
    tables = (("chaotic_z2", 3, 1), ("chaotic_z2", 3, 2), ("chaotic", 3, 1))
    for table in tables + ("split", "split_z2"):
        sigma = _sigma(table)
        yield _name(table), sigma, _decider_probes(sigma), f"{table}:probe-verdicts"
    bic = _sigma(("chaotic_z2", 3, 1)).bic
    some = make_sigma(bic, sorted(set(bic.arrows) - set(bic.id1.values()))[::2])
    assert ho.identity_is_admissible(some) and some.members < set(bic.arrows)
    yield "some-marked", some, _decider_probes(some), "some-marked:probe-verdicts"
    sigma = _sigma(("chaotic_z2", 3, 1))
    targets = [load_fixture_bicategory(n) for n in ("triv", "iso")]
    found = ho.enumerate_probes(sigma, targets, include_self=False)
    yield "triv-iso", sigma, ho.make_probe_set(sigma, list(found.probes)), "triv-iso:probe-verdicts"


def test_ho_eq_verdicts_with_probes_match_reference():
    verdicts: Counter = Counter()
    for name, sigma, probes, seed in _verdict_cases():
        rng = random.Random(seed)
        for k1, k2 in _queries(sigma, _terms(sigma, cap=2000), rng):
            apart = ho.source_hat(k1) != ho.source_hat(k2)
            for budget in (8, 1):
                got = ho.ho_eq(k1, k2, probes, budget)
                want = ref.ho_eq(k1, k2, probes, budget)
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())
                assert [s.law for s in got.trace] == [s.law for s in want.trace]
                assert (got.probe, got.left_value, got.right_value) == (
                    want.probe,
                    want.left_value,
                    want.right_value,
                )
                verdicts[name, got.verdict] += 1
                verdicts[name, got.verdict, apart] += 1
    for verdict in ("equal", "distinct", "unknown"):
        assert verdicts["chaotic_z2", verdict] > 0
    assert verdicts["some-marked", "distinct", True] > 0
    # different hats and no separating probe in the set: Unknown
    assert verdicts["triv-iso", "unknown", True] > 0
    assert verdicts["triv-iso", "distinct"] == 0
    # a separation found through the per-probe fallback
    assert verdicts["split_z2", "distinct"] > 0


def _hocells(cert: dict):
    for entry in cert["equivalences"]:
        for side in ("to_id_src", "to_id_dst"):
            for which in ("hocell", "inverse"):
                yield entry[side][which]


def _tampered(sigma, cert: dict, rng: random.Random):
    """Certificates with one side's inverse swapped for the next side's, and
    with one homotopy term's eta replaced by another cell, of the same
    boundary where there is one."""
    bic = sigma.bic
    sides = [
        (i, side)
        for i, entry in enumerate(cert["equivalences"])
        for side in ("to_id_src", "to_id_dst")
    ]
    for (i, side), (j, other) in zip(sides, sides[1:] + sides[:1]):
        bad = json.loads(json.dumps(cert))
        bad["equivalences"][i][side]["inverse"] = cert["equivalences"][j][other]["inverse"]
        yield bad
    spots = [
        (n, t)
        for n, hc in enumerate(_hocells(cert))
        for t, term in enumerate(hc["terms"])
        if "eta" in term
    ]
    for n, t in rng.sample(spots, min(len(spots), 12)):
        bad = json.loads(json.dumps(cert))
        term = list(_hocells(bad))[n]["terms"][t]
        others = [c for c in bic.cells_between(*bic.cells[term["eta"]]) if c != term["eta"]]
        term["eta"] = rng.choice(others or sorted(bic.cells))
        yield bad


def test_replay_matches_reference():
    outcomes: Counter = Counter()
    tables = (("chaotic", 3, 1), ("chaotic_z2", 3, 1), ("chaotic_z2", 2, 2))
    for table in tables + ("split", "split_z2", "iso", "triv"):
        sigma = _sigma(table)
        probes = _probes(sigma)
        cert = localize(sigma, probes).to_json()
        assert cert["status"] == "ok"
        assert replay_certificate(sigma, cert, probes) == (True, [])
        assert ref.replay_certificate(sigma, cert, probes) == (True, [])
        rng = random.Random(f"{table}:replay")
        for bad in _tampered(sigma, cert, rng):
            got = replay_certificate(sigma, bad, probes)
            assert got[0] == (not got[1])
            assert reference_problems(got[1]) == ref.replay_certificate(sigma, bad, probes)[1]
            outcomes[_name(table), got[0]] += 1
            outcomes[_name(table), "separates"] += any("separates" in p for p in got[1])
    for table in ("chaotic", "chaotic_z2", "split"):
        assert outcomes[table, False] > 0
    # separations found through the source hats and through the fallback
    assert outcomes["chaotic_z2", "separates"] > 0
    assert outcomes["split_z2", "separates"] > 0


def _counting(monkeypatch) -> Counter:
    calls: Counter = Counter()
    f_hat = ho.f_hat

    def counted(fun, term):
        calls["f_hat"] += 1
        return f_hat(fun, term)

    monkeypatch.setattr(ho, "f_hat", counted)
    return calls


def _unknown_free_pair(sigma):
    terms = _terms(sigma, cap=2000)
    rng = random.Random("free-pair")
    arrows = sorted(f for f in sigma.bic.arrows if len(terms[f]) > 1)
    for _ in range(200):
        f = rng.choice(arrows)
        k1, k2 = (
            ho.ho_cell(sigma, [rng.choice(terms[f]) for _ in range(rng.randint(8, 24))])
            for _ in range(2)
        )
        if ho.ho_eq(k1, k2, None, 8).verdict == "unknown":
            return k1, k2
    raise AssertionError("no free pair that the rewrites leave open")


@pytest.mark.parametrize("table, fast", [(("chaotic_z2", 3, 1), True), ("split", False)], ids=str)
def test_functor_hat_calls(monkeypatch, table, fast):
    """A quasiequivalence in the source lets every probe read its value off
    the source hat, so no functor hat is solved; in split they are."""
    sigma = _sigma(table)
    probes = _decider_probes(sigma)
    k1, k2 = _unknown_free_pair(sigma)
    cert = localize(sigma, probes).to_json()
    calls = _counting(monkeypatch)
    verdict = ho.ho_eq(k1, k2, probes, 8)
    assert replay_certificate(sigma, cert, probes) == (True, [])
    assert (calls["f_hat"] == 0) == fast
    if fast:
        assert set(sigma.members) == set(sigma.bic.arrows)
        assert verdict.verdict == "unknown"
