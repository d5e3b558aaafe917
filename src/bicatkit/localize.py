"""End-to-end localization pipeline and replayable certificates.

A certificate records what replay re-checks to see that the projection into
the homotopy bicategory turns the marked arrows into equivalences: a w-split
decomposition chain per marked arrow, an equivalence witness in the homotopy
bicategory per marked arrow (quasiinverse plus two invertible classes with
their equality derivations), and the probe family used.  Replay re-runs the
3-for-2 sweep, so only a failed certificate carries its witness, and the
projection's functoriality, which a validated table settles, is not written.
Sections are deterministic, so equal inputs give byte-identical JSON.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .core import SCHEMA_VERSION, StructureError
from .homotopy import cylinder_homotopy, retraction_cylinder
from .ho import (
    EqVerdict,
    HOCELL_JSON,
    HoCell,
    ProbeSet,
    enumerate_probes,
    f_hat_chain,  # noqa: F401 -- bench/tracing.py rebinds it
    ho_cell,
    ho_eq,
    ho_identity,
    ho_inverse,
    ho_vcomp,
    ho_whisk,
    hocell_from_json,
    i_cell,
    require_json,
    separations,
    source_hat,
)
from .library import default_probe_targets
from .sigma import SigmaClass, check_three_for_two, w_split_decompose


class HoEquivalenceSide(NamedTuple):
    """One of the two invertible classes of an equivalence witness, with the
    derivations that re-check its invertibility."""

    cell: HoCell
    inverse: HoCell
    cancel_left: EqVerdict  # inverse o cell vs identity
    cancel_right: EqVerdict  # cell o inverse vs identity

    @property
    def ok(self) -> bool:
        return self.cancel_left.is_equal and self.cancel_right.is_equal

    def to_json(self) -> dict:
        return {
            "hocell": self.cell.to_json(),
            "inverse": self.inverse.to_json(),
            "cancel_left": self.cancel_left.to_json(),
            "cancel_right": self.cancel_right.to_json(),
        }


class HoEquivalence(NamedTuple):
    arrow: str
    quasiinverse: str
    to_id_src: HoEquivalenceSide  # quasiinverse * arrow => id
    to_id_dst: HoEquivalenceSide  # arrow * quasiinverse => id

    def to_json(self) -> dict:
        return {
            "arrow": self.arrow,
            "quasiinverse": self.quasiinverse,
            "to_id_src": self.to_id_src.to_json(),
            "to_id_dst": self.to_id_dst.to_json(),
        }


class LocalizationCertificate:
    """What ``localize`` found: it fills in the sections in order, and on a
    failure sets ``status`` and stops."""

    def __init__(self, bicategory: str, sigma: tuple[str, ...], max_len: int, budget: int) -> None:
        self.bicategory = bicategory
        self.sigma = sigma
        # ok | three-for-two-failed | decomposition-failed | derivation-failed,
        # where the decider does not cancel some witness side
        self.status = "ok"
        # replay re-runs the sweep, so only a failed one is written
        self.three_for_two: dict | None = None
        self.decompositions: list[dict] = []
        self.equivalences: list[HoEquivalence] = []
        self.probes_used: list[str] = []
        self.max_len = max_len
        self.budget = budget

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "bicategory": self.bicategory,
            "sigma": sorted(self.sigma),
            "status": self.status,
            "decompositions": self.decompositions,
            "equivalences": [e.to_json() for e in self.equivalences],
            "probes_used": sorted(self.probes_used),
            "max_len": self.max_len,
            "budget": self.budget,
        }
        if self.three_for_two is not None:
            out["three_for_two"] = self.three_for_two
        return out


class _Witness(NamedTuple):
    """Working form of an equivalence witness before derivations are attached."""

    arrow: str
    quasiinverse: str
    u: HoCell  # quasiinverse * arrow => id_src
    v: HoCell  # arrow * quasiinverse => id_dst


def _base_witness(sigma: SigmaClass, arrow: str) -> _Witness:
    """Witness for a w-split marked arrow from its splitting pair: one side is
    the projected splitting cell, the other the tautological cylinder class."""
    ws = sigma.w_splits[arrow]
    pair = ws.as_section or ws.as_retraction
    s, r, alpha = pair.section, pair.retraction, pair.cell
    cyl = retraction_cylinder(sigma, s, r, alpha)
    hc = ho_cell(sigma, (cylinder_homotopy(cyl),))  # s*r => id_dst(s)
    ia = i_cell(sigma, alpha)  # r*s => id_src(s)
    if arrow == s:
        return _Witness(arrow, r, ia, hc)
    return _Witness(arrow, s, hc, ia)


def _compose_witness(sigma: SigmaClass, outer: _Witness, inner: _Witness) -> _Witness:
    """Witness for outer.arrow * inner.arrow from witnesses of the factors."""
    bic = sigma.bic
    g1, g2 = outer.arrow, inner.arrow
    q1, q2 = outer.quasiinverse, inner.quasiinverse
    comp = bic.compose1(g1, g2)
    q = bic.compose1(q2, q1)
    u = ho_vcomp(inner.u, ho_whisk("right", g2, ho_whisk("left", q2, outer.u)))
    v = ho_vcomp(outer.v, ho_whisk("right", q1, ho_whisk("left", g1, inner.v)))
    return _Witness(comp, q, u, v)


def _adjust_witness(sigma: SigmaClass, wit: _Witness, arrow: str, iso: str) -> _Witness:
    """Transport a witness along an invertible cell composite => arrow."""
    inv = sigma.bic.inverse(iso)
    u = ho_vcomp(wit.u, ho_whisk("left", wit.quasiinverse, i_cell(sigma, inv)))
    v = ho_vcomp(wit.v, ho_whisk("right", wit.quasiinverse, i_cell(sigma, inv)))
    return _Witness(arrow, wit.quasiinverse, u, v)


def _derive_side(
    cell: HoCell, inv: HoCell, budget: int, back: HoCell | None = None
) -> tuple[EqVerdict, EqVerdict]:
    """Both cancellations of a witness side, inv o cell and cell o inv against
    the identities, decided without probes: only ``is_equal`` is read, and a
    probe can only turn ``Unknown`` into ``Distinct``.  ``back`` is inv o
    cell when the caller has built it."""
    back = back or ho_vcomp(inv, cell)
    left = ho_eq(back, ho_identity(cell.sigma, cell.f), None, budget)
    right = ho_eq(ho_vcomp(cell, inv), ho_identity(cell.sigma, cell.g), None, budget)
    return left, right


def _attach_derivations(wit: _Witness, budget: int) -> HoEquivalence | None:
    sides = []
    for cell in (wit.u, wit.v):
        inv = ho_inverse(cell)
        side = HoEquivalenceSide(cell, inv, *_derive_side(cell, inv, budget))
        if not side.ok:
            return None
        sides.append(side)
    return HoEquivalence(wit.arrow, wit.quasiinverse, sides[0], sides[1])


def localize(
    sigma: SigmaClass,
    probes: ProbeSet | None = None,
    max_len: int = 4,
    budget: int = 8,
) -> LocalizationCertificate:
    """Run the whole pipeline and assemble a certificate.  The table must
    pass ``validate_bicategory``; probes only name ``probes_used``.

    Fails fast with a witness when 3-for-2 does not hold, and with the arrow
    name when some marked arrow has no w-split decomposition within max_len.
    """
    bic = sigma.bic
    if max_len < 1 or budget < 1:
        raise StructureError("bounds must be >= 1")
    cert = LocalizationCertificate(bic.name, sigma.sorted_members(), max_len, budget)
    violation = check_three_for_two(sigma)
    if violation is not None:
        cert.status = "three-for-two-failed"
        cert.three_for_two = {"ok": False, "witness": violation.to_json()}
        return cert

    if probes is None:
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
    cert.probes_used = list(probes.names())

    decs = []
    for arrow in sigma.sorted_members():
        dec = w_split_decompose(sigma, arrow, max_len)
        if dec is None:
            cert.status = "decomposition-failed"
            cert.decompositions.append({"arrow": arrow, "chain": None, "cell": None})
            return cert
        decs.append(dec)
        cert.decompositions.append(dec.to_json())

    for dec in decs:
        wit = _base_witness(sigma, dec.chain[-1])
        for g in reversed(dec.chain[:-1]):
            wit = _compose_witness(sigma, _base_witness(sigma, g), wit)
        if wit.arrow != dec.arrow or not bic.is_identity_cell(dec.cell):
            wit = _adjust_witness(sigma, wit, dec.arrow, dec.cell)
        eq = _attach_derivations(wit, budget)
        if eq is None:
            cert.status = "derivation-failed"
            return cert
        cert.equivalences.append(eq)
    return cert


# every field of an ok certificate: replay reads each but the label
# "bicategory", and compares the cancellation sections whole
_SIDE_JSON = {
    "hocell": HOCELL_JSON, "inverse": HOCELL_JSON, "cancel_left": dict, "cancel_right": dict
}
_CERT_JSON = {
    "schema_version": int,
    "bicategory": str,
    "sigma": [str],
    "status": str,
    "max_len": int,
    "budget": int,
    "decompositions": [{"arrow": str, "chain": [str], "cell": str}],
    "equivalences": [
        {"arrow": str, "quasiinverse": str, "to_id_src": _SIDE_JSON, "to_id_dst": _SIDE_JSON}
    ],
    "probes_used": [str],
}


def _coverage_problems(sigma: SigmaClass, section: str, entries: list[dict]) -> list[str]:
    """localize writes one entry per marked arrow in each section; name every
    marked arrow that has none and every arrow with an extra or repeated one."""
    seen = Counter(entry["arrow"] for entry in entries)
    problems = [
        f"{section}: no entry for marked arrow {arrow}"
        for arrow in sigma.sorted_members()
        if arrow not in seen
    ]
    for arrow, n in sorted(seen.items()):
        if arrow not in sigma:
            problems.append(f"{section}: entry for unmarked arrow {arrow}")
        elif n > 1:
            problems.append(f"{section}: {n} entries for {arrow}")
    return problems


def replay_certificate(
    sigma: SigmaClass, cert_json: dict, probes: ProbeSet | None = None
) -> tuple[bool, list[str]]:
    """Re-check every recorded derivation of a certificate against the loaded
    bicategory, which must pass ``validate_bicategory``, and a probe set,
    freshly enumerated unless supplied.  The certificate must list the
    marked arrows sorted and each once, as ``localize`` writes them, and
    exactly that probe set, carry no field that ``localize`` does not write
    on an ok certificate, and hold one decomposition, no longer than
    ``max_len``, and one equivalence for each marked arrow, each side running
    from ``q * arrow`` or ``arrow * q`` to an identity, inverted by its
    stored inverse, with the stored cancellation sections those of the
    verdicts replay re-derives, and not separated by a probe from the
    identity class: ``separations`` with the source hat of ``inverse o
    hocell`` and the identity cell as the two hats, so no probe is evaluated
    when that source hat is the identity cell."""
    bic = sigma.bic
    if not isinstance(cert_json, dict):
        return False, ["certificate is not a JSON object"]
    # 1 == 1.0 == True, so only the type check rejects a float or bool version
    version = cert_json.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        return False, ["schema_version mismatch"]
    if cert_json.get("status") != "ok":
        return False, [f"certificate status is {cert_json.get('status')!r}"]
    try:
        require_json(cert_json, _CERT_JSON)
    except StructureError as exc:
        return False, [str(exc)]
    for field in ("budget", "max_len"):
        if cert_json[field] < 1:
            return False, [f"field {field!r} is below 1"]
    budget, max_len = cert_json["budget"], cert_json["max_len"]
    problems: list[str] = []
    if cert_json["sigma"] != list(sigma.sorted_members()):
        problems.append("marked class does not match the certificate")
    if check_three_for_two(sigma) is not None:
        problems.append("3-for-2 no longer holds")
    if probes is None:
        probes = enumerate_probes(sigma, default_probe_targets(sigma))
    if cert_json["probes_used"] != sorted(probes.names()):
        problems.append("field 'probes_used' does not match the probes replay uses")
    for section in ("decompositions", "equivalences"):
        problems += _coverage_problems(sigma, section, cert_json[section])

    for dec in cert_json["decompositions"]:
        arrow, chain, cell = dec["arrow"], dec["chain"], dec["cell"]
        if len(chain) > max_len:
            problems.append(f"decomposition chain for {arrow} is longer than max_len")
        try:
            composite = bic.compose_path(chain)
        except StructureError as exc:
            problems.append(f"decomposition chain for {arrow}: {exc}")
            continue
        if bic.cells.get(cell) != (composite, arrow) or not bic.is_invertible(cell):
            problems.append(f"decomposition iso for {arrow} does not re-check")
        for g in chain:
            if g not in sigma or not sigma.w_splits[g].is_w_split:
                problems.append(f"chain arrow {g} for {arrow} is not a w-split member")

    for entry in cert_json["equivalences"]:
        arrow, q = entry["arrow"], entry["quasiinverse"]
        src, dst = bic.arrows.get(arrow, (None, None))
        sides = (("to_id_src", (q, arrow), src), ("to_id_dst", (arrow, q), dst))
        for side_name, pair, end in sides:
            side = entry[side_name]
            try:
                cell = hocell_from_json(sigma, side["hocell"])
                if (cell.f, cell.g) != (bic.hcomp1.get(pair), bic.id1.get(end)):
                    problems.append(f"{arrow}/{side_name}: hocell is not {pair[0]} * {pair[1]} => id")
                inv = hocell_from_json(sigma, side["inverse"], "inverse")
                back = ho_vcomp(inv, cell)
                left, right = _derive_side(cell, inv, budget, back)
                if not (left.is_equal and right.is_equal):
                    problems.append(f"{arrow}/{side_name}: invertibility does not re-derive")
                else:  # a failed derivation is named once, above
                    problems += [
                        f"{arrow}/{side_name}: {key} is not the re-derived verdict"
                        for key, verdict in (("cancel_left", left), ("cancel_right", right))
                        if side[key] != verdict.to_json()
                    ]
                hats = source_hat(back), bic.idc[cell.f]
                problems += [
                    f"{arrow}/{side_name}: probe {fun.name} separates"
                    for fun, _, _ in separations(probes, back, ho_identity(sigma, cell.f), hats)
                ]
            except StructureError as exc:
                problems.append(f"{arrow}/{side_name}: {exc}")
    return not problems, problems
