"""Property checkers for a marked arrow class: 3-for-2, w-splitness and its
decompositions, quasiequivalences and equivalences.

Every search walks the bicategory's incidence index, so it visits only the
arrows and cells that compose, and is deterministic (sorted id order), so
witnesses are reproducible.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .core import Bicategory, StructureError, _SetOnFirstRead, _group


class SigmaClass:
    """A class of marked arrows; always contains every identity arrow.  Two
    classes are equal, and hash alike, exactly when they have the same
    bicategory and the same members; the cached searches do not count."""

    def __init__(self, bic: Bicategory, members: frozenset[str]) -> None:
        self.bic = bic
        self.members = members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SigmaClass) and (self.bic, self.members) == (other.bic, other.members)

    def __hash__(self) -> int:
        return hash((self.bic, self.members))

    def __contains__(self, arrow: str) -> bool:
        return arrow in self.members

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    @_SetOnFirstRead
    def w_splits(self) -> dict[str, WSplitResult]:
        """``find_w_split`` of every member, in sorted order, searched once
        per class."""
        return {g: find_w_split(self.bic, g) for g in self.sorted_members()}

    @_SetOnFirstRead
    def w_split_pieces(self) -> dict[str, tuple[str, ...]]:
        """The w-split members grouped by source object; the pieces of every
        decomposition chain."""
        return _group(
            [g for g, ws in self.w_splits.items() if ws.is_w_split], self.bic.arrow_src
        )


def make_sigma(bic: Bicategory, arrows: tuple[str, ...] | list[str]) -> SigmaClass:
    for f in arrows:
        if f not in bic.arrows:
            raise StructureError(f"sigma lists unknown arrow {f!r}")
    members = set(arrows) | set(bic.id1.values())
    return SigmaClass(bic, frozenset(members))


def _first_iso(bic: Bicategory, f: str, g: str) -> str | None:
    """The first invertible cell f => g in id order, or None."""
    return next((c for c in bic.cells_between(f, g) if bic.is_invertible(c)), None)


class ThreeForTwoViolation(NamedTuple):
    f: str  # inner arrow (applied first)
    g: str  # outer arrow
    h: str  # arrow isomorphic to g * f
    cell: str  # invertible cell g * f => h
    missing: str  # the one of f, g, h outside the class

    def to_json(self) -> dict:
        return {
            "f": self.f,
            "g": self.g,
            "h": self.h,
            "cell": self.cell,
            "missing": self.missing,
        }


def check_three_for_two(sigma: SigmaClass) -> ThreeForTwoViolation | None:
    """None when the class is 3-for-2 closed, else the first violating triple.

    A triple counts when some invertible 2-cell g*f => h exists and exactly two
    of f, g, h are members.  Membership is literal by arrow id.
    """
    bic = sigma.bic
    fallback: ThreeForTwoViolation | None = None
    for g, f in bic.composable_arrow_pairs():
        gf = bic.hcomp1[(g, f)]
        for h in bic.arrows_between(bic.arrow_src(f), bic.arrow_dst(g)):
            cell = _first_iso(bic, gf, h)
            if cell is None:
                continue
            flags = {"f": f in sigma, "g": g in sigma, "h": h in sigma}
            if sum(flags.values()) == 2:
                missing = next(k for k, v in flags.items() if not v)
                hit = ThreeForTwoViolation(f, g, h, cell, {"f": f, "g": g, "h": h}[missing])
                # a missing composite is the sharpest witness; report it first
                if missing == "h":
                    return hit
                if fallback is None:
                    fallback = hit
    return fallback


class WSplitWitness(NamedTuple):
    section: str  # s : X -> Y
    retraction: str  # r : Y -> X
    cell: str  # invertible r * s => id_X

    def to_json(self) -> dict:
        return {"section": self.section, "retraction": self.retraction, "cell": self.cell}


class WSplitResult(NamedTuple):
    arrow: str
    as_section: WSplitWitness | None
    as_retraction: WSplitWitness | None

    @property
    def role(self) -> str:
        if self.as_section and self.as_retraction:
            return "both"
        if self.as_section:
            return "section"
        if self.as_retraction:
            return "retraction"
        return "none"

    @property
    def is_w_split(self) -> bool:
        return self.role != "none"

    def to_json(self) -> dict:
        return {
            "arrow": self.arrow,
            "role": self.role,
            "as_section": self.as_section.to_json() if self.as_section else None,
            "as_retraction": self.as_retraction.to_json() if self.as_retraction else None,
        }


def _splitting_cell(bic: Bicategory, r: str, s: str) -> str | None:
    """First invertible cell r*s => id_X, for s : X -> Y and r : Y -> X."""
    return _first_iso(bic, bic.hcomp1[(r, s)], bic.id1[bic.arrow_src(s)])


def find_w_split(bic: Bicategory, f: str) -> WSplitResult:
    """Search every candidate partner for f in both roles."""
    x, y = bic.arrows[f]
    as_section = None
    for r in bic.arrows_between(y, x):
        cell = _splitting_cell(bic, r, f)
        if cell is not None:
            as_section = WSplitWitness(section=f, retraction=r, cell=cell)
            break
    as_retraction = None
    for s in bic.arrows_between(y, x):
        cell = _splitting_cell(bic, f, s)
        if cell is not None:
            as_retraction = WSplitWitness(section=s, retraction=f, cell=cell)
            break
    return WSplitResult(f, as_section, as_retraction)


class Decomposition(NamedTuple):
    arrow: str
    chain: tuple[str, ...]  # outermost-first; chain[-1] is applied first
    cell: str  # invertible (chain composite) => arrow

    def to_json(self) -> dict:
        return {"arrow": self.arrow, "chain": list(self.chain), "cell": self.cell}


def w_split_decompose(sigma: SigmaClass, f: str, max_len: int) -> Decomposition | None:
    """Breadth-first search for a chain of w-split class members whose
    composite is isomorphic to f; None when no chain of length <= max_len works.

    Each composite is queued once, with the first chain that reaches it.  That
    chain is a shortest one, and whether a composite succeeds, and what it
    leads to, depends on the composite alone, so later chains add nothing."""
    if max_len < 1:
        raise StructureError("max_len must be >= 1")
    bic = sigma.bic
    x, y = bic.arrows[f]
    pieces_from = sigma.w_split_pieces
    # frontier entries: (composite arrow, chain outermost-first)
    queue = deque((g, (g,)) for g in pieces_from.get(x, ()))
    seen = {g for g, _ in queue}
    while queue:
        composite, chain = queue.popleft()
        if bic.arrow_dst(composite) == y and (cell := _first_iso(bic, composite, f)):
            return Decomposition(f, chain, cell)
        if len(chain) >= max_len:
            continue
        for g in pieces_from.get(bic.arrow_dst(composite), ()):
            nxt = bic.hcomp1[(g, composite)]
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, (g,) + chain))
    return None


def is_quasiequivalence(bic: Bicategory, f: str) -> bool:
    """Both composition functors with f are full and faithful on every hom.

    Checked as a bijection between cell sets for every arrow pair; the check
    keeps the inverse of post-composition (see ``whisker_preimages``).
    """
    return whisker_preimages(bic, f) is not None


def whisker_preimages(bic: Bicategory, f: str) -> dict[tuple[str, str, str], str] | None:
    """The inverse of whiskering by f, ``(a, b, f * c) -> c`` for every cell
    c: a => b into src(f), when f is a quasiequivalence; else None.  Memoized
    on the bicategory."""
    if f not in bic._qe_cache:
        bic._qe_cache[f] = _is_quasiequivalence(bic, f)
    return bic._qe_cache[f]


def _is_quasiequivalence(bic: Bicategory, f: str) -> dict[tuple[str, str, str], str] | None:
    x, y = bic.arrows[f]
    preimages: dict[tuple[str, str, str], str] = {}
    # post-composition f * (-): hom(z, x) -> hom(z, y)
    for a in bic.in_arrows(x):
        for b in bic.arrows_between(bic.arrow_src(a), x):
            fa, fb = bic.hcomp1[(f, a)], bic.hcomp1[(f, b)]
            cells = bic.cells_between(a, b)
            images = [bic.whisker_l(f, c) for c in cells]
            if sorted(images) != list(bic.cells_between(fa, fb)):
                return None
            preimages.update(((a, b, fc), c) for fc, c in zip(images, cells))
    # pre-composition (-) * f: hom(y, z) -> hom(x, z)
    for u in bic.out_arrows(y):
        for v in bic.arrows_between(y, bic.arrow_dst(u)):
            uf, vf = bic.hcomp1[(u, f)], bic.hcomp1[(v, f)]
            images = [bic.whisker_r(c, f) for c in bic.cells_between(u, v)]
            if sorted(images) != list(bic.cells_between(uf, vf)):
                return None
    return preimages


class EquivalenceWitness(NamedTuple):
    arrow: str
    quasiinverse: str
    cell_to_id_src: str  # invertible quasiinverse * arrow => id_src
    cell_to_id_dst: str  # invertible arrow * quasiinverse => id_dst

    def to_json(self) -> dict:
        return {
            "arrow": self.arrow,
            "quasiinverse": self.quasiinverse,
            "cell_to_id_src": self.cell_to_id_src,
            "cell_to_id_dst": self.cell_to_id_dst,
        }


def find_equivalence(bic: Bicategory, f: str) -> EquivalenceWitness | None:
    """Exhaustive search over partner arrows and invertible cell pairs."""
    x, y = bic.arrows[f]
    for g in bic.arrows_between(y, x):
        c1 = _splitting_cell(bic, g, f)
        if c1 is None:
            continue
        c2 = _splitting_cell(bic, f, g)
        if c2 is None:
            continue
        return EquivalenceWitness(f, g, c1, c2)
    return None


def sigma_report(sigma: SigmaClass, max_len: int = 4) -> dict:
    """JSON-shaped summary used by the CLI sigma-check command."""
    bic = sigma.bic
    v = check_three_for_two(sigma)
    rows = []
    for f, ws in sigma.w_splits.items():
        dec = w_split_decompose(sigma, f, max_len)
        eq = find_equivalence(bic, f)
        rows.append(
            {
                "arrow": f,
                "w_split": ws.to_json(),
                "decomposition": dec.to_json() if dec else None,
                "quasiequivalence": is_quasiequivalence(bic, f),
                "equivalence": eq.to_json() if eq else None,
            }
        )
    return {
        "three_for_two": {"ok": v is None, "witness": v.to_json() if v else None},
        "arrows": rows,
    }
