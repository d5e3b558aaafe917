"""Query documents: homotopy/cylinder literals and class-sequence selections.

Lines (comments with #, blank lines ignored):

    cylinder C = (W, Z, d0, d1, x, s, alpha0, alpha1)
    homotopy H = (C, h, eta, eps)
    homotopy K = cyl(C) | invert(H) | lwhisk(r, H) | rwhisk(H, l)
                 | post(mu, H) | pre(H, nu) | h0(mu) | h1(mu)
    lhs = [H2, H1]          # rightmost entry applied first; or: lhs = id f
    rhs = [K]               # any name works on the left of '='
    hat = H                 # target for the hat command; cylinder or homotopy

Sequence entries may be homotopy names or i(cell) for projected cells.  Each
name is bound once: a second cylinder, homotopy or sequence line for a name,
or a second hat line, is an error at its line.
"""
from __future__ import annotations

import re

from .core import StructureError
from .homotopy import (
    Cylinder,
    Homotopy,
    HomotopyTerm,
    ICell,
    cylinder_homotopy,
    make_cylinder,
    make_homotopy,
    mu_homotopies,
    transform_homotopy,
)
from .ho import HoCell, ho_cell, ho_identity
from .sigma import SigmaClass

_NAME = r"[A-Za-z0-9_.'-]+"


class QueryError(StructureError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class QueryDoc:
    def __init__(self) -> None:
        self.cylinders: dict[str, Cylinder] = {}
        self.homotopies: dict[str, Homotopy] = {}
        self.sequences: dict[str, HoCell] = {}
        self.hat_target: str | None = None  # name in cylinders or homotopies


def parse_query(sigma: SigmaClass, text: str) -> QueryDoc:
    bic = sigma.bic
    doc = QueryDoc()

    def cyl_of(name: str, lineno: int) -> Cylinder:
        if name not in doc.cylinders:
            raise QueryError(f"unknown cylinder {name!r}", lineno)
        return doc.cylinders[name]

    def hom_of(name: str, lineno: int) -> Homotopy:
        if name not in doc.homotopies:
            raise QueryError(f"unknown homotopy {name!r}", lineno)
        return doc.homotopies[name]

    def require_unbound(name: str, bound: dict, what: str, lineno: int) -> None:
        if name in bound:
            raise QueryError(f"{what} {name!r} is already bound", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(rf"cylinder\s+({_NAME})\s*=\s*\(([^)]*)\)", line)
        if m:
            name, inner = m.groups()
            require_unbound(name, doc.cylinders, "cylinder", lineno)
            require_unbound(name, doc.homotopies, "homotopy", lineno)
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 8:
                raise QueryError("cylinder literal needs 8 components", lineno)
            w, z, d0, d1, x, s, a0, a1 = parts
            try:
                cyl = make_cylinder(bic, d0, d1, x, s, a0, a1, sigma=sigma)
            except StructureError as exc:
                raise QueryError(str(exc), lineno) from exc
            if (cyl.w, cyl.z) != (w, z):
                raise QueryError(
                    f"cylinder {name!r} declares ({w}, {z}) but the tables give "
                    f"({cyl.w}, {cyl.z})",
                    lineno,
                )
            doc.cylinders[name] = cyl
            continue
        m = re.fullmatch(rf"homotopy\s+({_NAME})\s*=\s*(.+)", line)
        if m:
            name, rhs = m.groups()
            require_unbound(name, doc.homotopies, "homotopy", lineno)
            require_unbound(name, doc.cylinders, "cylinder", lineno)
            try:
                doc.homotopies[name] = _parse_homotopy(sigma, rhs, lineno, cyl_of, hom_of)
            except StructureError as exc:
                raise QueryError(str(exc), lineno) from exc
            continue
        m = re.fullmatch(rf"hat\s*=\s*({_NAME})", line)
        if m:
            if doc.hat_target is not None:
                raise QueryError("hat target is already bound", lineno)
            doc.hat_target = m.group(1)
            if doc.hat_target not in doc.cylinders and doc.hat_target not in doc.homotopies:
                raise QueryError(f"unknown hat target {doc.hat_target!r}", lineno)
            continue
        m = re.fullmatch(rf"({_NAME})\s*=\s*id\s+({_NAME})", line)
        if m:
            name, arrow = m.groups()
            require_unbound(name, doc.sequences, "sequence", lineno)
            if arrow not in bic.arrows:
                raise QueryError(f"unknown arrow {arrow!r}", lineno)
            doc.sequences[name] = ho_identity(sigma, arrow)
            continue
        m = re.fullmatch(rf"({_NAME})\s*=\s*\[([^\]]*)\]", line)
        if m:
            name, inner = m.groups()
            require_unbound(name, doc.sequences, "sequence", lineno)
            entries = [p.strip() for p in inner.split(",") if p.strip()]
            terms: list[HomotopyTerm] = []
            # paper order: rightmost is applied first
            for entry in reversed(entries):
                im = re.fullmatch(rf"i\(({_NAME})\)", entry)
                if im:
                    cell = im.group(1)
                    if cell not in bic.cells:
                        raise QueryError(f"unknown cell {cell!r}", lineno)
                    terms.append(ICell(bic, cell))
                    continue
                terms.append(hom_of(entry, lineno))
            if not terms:
                raise QueryError("empty sequence needs 'id f' form", lineno)
            try:
                doc.sequences[name] = ho_cell(sigma, terms)
            except StructureError as exc:
                raise QueryError(str(exc), lineno) from exc
            continue
        raise QueryError(f"cannot parse {line!r}", lineno)
    return doc


def _parse_homotopy(sigma, rhs, lineno, cyl_of, hom_of) -> Homotopy:
    bic = sigma.bic
    m = re.fullmatch(rf"\(\s*({_NAME})\s*,\s*({_NAME})\s*,\s*({_NAME})\s*,\s*({_NAME})\s*\)", rhs)
    if m:
        cname, h, eta, eps = m.groups()
        return make_homotopy(cyl_of(cname, lineno), h, eta, eps)
    m = re.fullmatch(rf"cyl\(\s*({_NAME})\s*\)", rhs)
    if m:
        return cylinder_homotopy(cyl_of(m.group(1), lineno))
    m = re.fullmatch(rf"invert\(\s*({_NAME})\s*\)", rhs)
    if m:
        return transform_homotopy("invert", "", hom_of(m.group(1), lineno))
    # lwhisk(r, H) and post(mu, H) take the homotopy last, rwhisk(H, l) and
    # pre(H, nu) first
    m = re.fullmatch(rf"(lwhisk|rwhisk|post|pre)\(\s*({_NAME})\s*,\s*({_NAME})\s*\)", rhs)
    if m:
        kind, first, second = m.groups()
        arg, name = (first, second) if kind in ("lwhisk", "post") else (second, first)
        return transform_homotopy(kind, arg, hom_of(name, lineno))
    m = re.fullmatch(rf"h([01])\(\s*({_NAME})\s*\)", rhs)
    if m:
        which, mu = m.groups()
        if mu not in bic.cells:
            raise QueryError(f"unknown cell {mu!r}", lineno)
        return mu_homotopies(bic, mu)[int(which)]
    raise QueryError(f"cannot parse homotopy expression {rhs!r}", lineno)
