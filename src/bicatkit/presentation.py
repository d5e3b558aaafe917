"""Line-oriented presentation files for bicategories and pseudofunctors.

Bicategory documents use sections ``objects:``, ``arrows:`` (``name : src ->
dst``), ``compose:`` (``g . f = h``), ``cells:`` (``name : f => g``),
``vcomp:`` (``b . a = c``), ``lwhisk:`` (``g * a = c``), ``rwhisk:``
(``a * f = c``), ``unitors:`` (``lambda f = c`` / ``rho f = c``), ``assoc:``
(``theta h g f = c``), a bare ``strict true|false`` directive and ``sigma:``
(arrow names).  ``#`` starts a comment.  Section content may sit inline after
the header or on following lines.

The identity arrow of object X is the arrow named ``id_X`` and the identity
2-cell of arrow f is the cell named ``id_f``; missing ones are synthesized.
Table entries forced by the axioms are filled in automatically and never
override explicit lines: vertical composites with identity cells, whiskers of
identity cells, and (in strict documents) composites and whiskers along
identity arrows plus all unitor/associator entries.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Bicategory, PseudofunctorData, StructureError, _group

_SECTIONS = (
    "objects",
    "arrows",
    "compose",
    "cells",
    "vcomp",
    "lwhisk",
    "rwhisk",
    "unitors",
    "assoc",
    "sigma",
    "map_obj",
    "map_arr",
    "map_cell",
    "xi",
    "phi",
)

_NAME = r"[A-Za-z0-9_.'-]+"


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Presentation:
    bicategory: Bicategory
    sigma_names: tuple[str, ...]


def _split_sections(text: str) -> tuple[dict[str, list[tuple[int, str]]], bool]:
    sections: dict[str, list[tuple[int, str]]] = {k: [] for k in _SECTIONS}
    strict = False
    strict_seen = False
    current: str | None = None
    header = re.compile(rf"^({'|'.join(_SECTIONS)}):(.*)$")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^strict\s+(true|false)$", line)
        if m:
            strict = m.group(1) == "true"
            strict_seen = True
            current = None
            continue
        m = header.match(line)
        if m:
            current = m.group(1)
            rest = m.group(2).strip()
            if rest:
                sections[current].append((lineno, rest))
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}", lineno)
        sections[current].append((lineno, line))
    if not strict_seen:
        strict = True
    return sections, strict


def _names(line: str, lineno: int) -> list[str]:
    toks = line.split()
    for t in toks:
        if not re.fullmatch(_NAME, t):
            raise ParseError(f"bad name {t!r}", lineno, line.find(t) + 1)
    return toks


def _match(line: str, lineno: int, pattern: str, shape: str) -> tuple[str, ...]:
    m = re.fullmatch(pattern, line)
    if not m:
        raise ParseError(f"expected {shape!r}", lineno)
    return m.groups()


class _DocBuilder:
    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.sections, self.strict = _split_sections(text)

    def build(self) -> Presentation:
        sec = self.sections
        objects: list[str] = []
        for lineno, line in sec["objects"]:
            for n in _names(line, lineno):
                if n in objects:
                    raise ParseError(f"duplicate object {n!r}", lineno)
                objects.append(n)
        if not objects:
            raise ParseError("no objects declared", 1)

        arrows: dict[str, tuple[str, str]] = {}
        arrow_line: dict[str, int] = {}
        for lineno, line in sec["arrows"]:
            nm, src, dst = _match(
                line, lineno, rf"({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})", "name : src -> dst"
            )
            if nm in arrows:
                raise ParseError(f"duplicate arrow {nm!r}", lineno)
            arrows[nm] = (src, dst)
            arrow_line[nm] = lineno
        for nm, (src, dst) in arrows.items():
            for obj in (src, dst):
                if obj not in objects:
                    raise ParseError(
                        f"arrow {nm!r} references undeclared object {obj!r}",
                        arrow_line[nm],
                    )
        id1: dict[str, str] = {}
        for x in objects:
            nm = f"id_{x}"
            if nm in arrows:
                if arrows[nm] != (x, x):
                    raise ParseError(
                        f"arrow {nm!r} must be {x} -> {x}", arrow_line[nm]
                    )
            else:
                arrows[nm] = (x, x)
            id1[x] = nm

        def need_arrow(nm: str, lineno: int) -> None:
            if nm not in arrows:
                raise ParseError(f"dangling reference to arrow {nm!r}", lineno)

        hcomp1: dict[tuple[str, str], str] = {}
        for lineno, line in sec["compose"]:
            g, f, h = _match(
                line, lineno, rf"({_NAME})\s*\.\s*({_NAME})\s*=\s*({_NAME})", "g . f = h"
            )
            for nm in (g, f, h):
                need_arrow(nm, lineno)
            if (g, f) in hcomp1:
                raise ParseError(f"duplicate compose entry {g} . {f}", lineno)
            hcomp1[(g, f)] = h
        if self.strict:
            for f, (x, y) in arrows.items():
                hcomp1.setdefault((id1[y], f), f)
                hcomp1.setdefault((f, id1[x]), f)

        cells: dict[str, tuple[str, str]] = {}
        cell_line: dict[str, int] = {}
        for lineno, line in sec["cells"]:
            nm, f, g = _match(
                line, lineno, rf"({_NAME})\s*:\s*({_NAME})\s*=>\s*({_NAME})", "name : f => g"
            )
            if nm in cells:
                raise ParseError(f"duplicate cell {nm!r}", lineno)
            need_arrow(f, lineno)
            need_arrow(g, lineno)
            cells[nm] = (f, g)
            cell_line[nm] = lineno
        idc: dict[str, str] = {}
        for f in arrows:
            nm = f"id_{f}"
            if nm in cells:
                if cells[nm] != (f, f):
                    raise ParseError(f"cell {nm!r} must be {f} => {f}", cell_line[nm])
            else:
                cells[nm] = (f, f)
            idc[f] = nm

        def need_cell(nm: str, lineno: int) -> None:
            if nm not in cells:
                raise ParseError(f"dangling reference to cell {nm!r}", lineno)

        vcomp: dict[tuple[str, str], str] = {}
        for lineno, line in sec["vcomp"]:
            b, a, c = _match(
                line, lineno, rf"({_NAME})\s*\.\s*({_NAME})\s*=\s*({_NAME})", "b . a = c"
            )
            for nm in (b, a, c):
                need_cell(nm, lineno)
            if (b, a) in vcomp:
                raise ParseError(f"duplicate vcomp entry {b} . {a}", lineno)
            vcomp[(b, a)] = c
        for a, (f, g) in cells.items():
            vcomp.setdefault((a, idc[f]), a)
            vcomp.setdefault((idc[g], a), a)

        lwhisk: dict[tuple[str, str], str] = {}
        for lineno, line in sec["lwhisk"]:
            g, a, c = _match(
                line, lineno, rf"({_NAME})\s*\*\s*({_NAME})\s*=\s*({_NAME})", "g * a = c"
            )
            need_arrow(g, lineno)
            need_cell(a, lineno)
            need_cell(c, lineno)
            if (g, a) in lwhisk:
                raise ParseError(f"duplicate lwhisk entry {g} * {a}", lineno)
            lwhisk[(g, a)] = c
        rwhisk: dict[tuple[str, str], str] = {}
        for lineno, line in sec["rwhisk"]:
            a, f, c = _match(
                line, lineno, rf"({_NAME})\s*\*\s*({_NAME})\s*=\s*({_NAME})", "a * f = c"
            )
            need_cell(a, lineno)
            need_arrow(f, lineno)
            need_cell(c, lineno)
            if (a, f) in rwhisk:
                raise ParseError(f"duplicate rwhisk entry {a} * {f}", lineno)
            rwhisk[(a, f)] = c
        # forced whisker entries: identity cells (W2) first, so they win over
        # the identity-arrow entries of the strict case
        for (g, f), h in hcomp1.items():
            if arrows[f][1] == arrows[g][0]:
                lwhisk.setdefault((g, idc[f]), idc[h])
                rwhisk.setdefault((idc[g], f), idc[h])
        if self.strict:
            for a, (f, _) in cells.items():
                x, y = arrows[f]
                lwhisk.setdefault((id1[y], a), a)
                rwhisk.setdefault((a, id1[x]), a)

        lunitor: dict[str, str] = {}
        runitor: dict[str, str] = {}
        for lineno, line in sec["unitors"]:
            kind, f, c = _match(
                line,
                lineno,
                rf"(lambda|rho)\s+({_NAME})\s*=\s*({_NAME})",
                "lambda f = c | rho f = c",
            )
            need_arrow(f, lineno)
            need_cell(c, lineno)
            table = lunitor if kind == "lambda" else runitor
            if f in table:
                raise ParseError(f"duplicate {kind} entry for {f!r}", lineno)
            table[f] = c
        assoc: dict[tuple[str, str, str], str] = {}
        for lineno, line in sec["assoc"]:
            h, g, f, c = _match(
                line,
                lineno,
                rf"theta\s+({_NAME})\s+({_NAME})\s+({_NAME})\s*=\s*({_NAME})",
                "theta h g f = c",
            )
            for nm in (h, g, f):
                need_arrow(nm, lineno)
            need_cell(c, lineno)
            assoc[(h, g, f)] = c
        if self.strict:
            for f in arrows:
                lunitor.setdefault(f, idc[f])
                runitor.setdefault(f, idc[f])
            out_arrows = _group(arrows, lambda f: arrows[f][0])
            for (g, f), inner in hcomp1.items():
                if arrows[f][1] != arrows[g][0]:
                    continue
                for h in out_arrows.get(arrows[g][1], ()):
                    whole = hcomp1.get((h, inner))
                    if whole is not None:
                        assoc.setdefault((h, g, f), idc[whole])

        sigma: list[str] = []
        for lineno, line in sec["sigma"]:
            for nm in _names(line, lineno):
                need_arrow(nm, lineno)
                if nm not in sigma:
                    sigma.append(nm)

        bic = Bicategory(
            name=self.name,
            objects=objects,
            arrows=arrows,
            id1=id1,
            hcomp1=hcomp1,
            cells=cells,
            idc=idc,
            vcomp=vcomp,
            lwhisk=lwhisk,
            rwhisk=rwhisk,
            lunitor=lunitor,
            runitor=runitor,
            assoc=assoc,
            strict=self.strict,
        )
        return Presentation(bic, tuple(sigma))


def load_presentation_with_sigma(text: str, name: str = "bicategory") -> Presentation:
    return _DocBuilder(name, text).build()


def load_presentation(text: str, name: str = "bicategory") -> Bicategory:
    """Parse a bicategory document; returns an unvalidated Bicategory."""
    return load_presentation_with_sigma(text, name).bicategory


def load_pseudofunctor(
    text: str,
    source: Bicategory,
    target: Bicategory,
    name: str = "functor",
) -> PseudofunctorData:
    """Parse a pseudofunctor document against loaded source and target.

    Identity cells map automatically; xi/phi entries omitted from the document
    default to identity cells (an error if that is ill-typed).
    """
    sections, _ = _split_sections(text)
    for key in ("objects", "arrows", "compose", "cells", "vcomp"):
        if sections[key]:
            lineno = sections[key][0][0]
            raise ParseError(f"section {key!r} not allowed in a pseudofunctor file", lineno)

    obj_map: dict[str, str] = {}
    for lineno, line in sections["map_obj"]:
        x, fx = _match(line, lineno, rf"({_NAME})\s*->\s*({_NAME})", "X -> FX")
        if x not in source.objects:
            raise ParseError(f"dangling reference to source object {x!r}", lineno)
        if fx not in target.objects:
            raise ParseError(f"dangling reference to target object {fx!r}", lineno)
        if x in obj_map:
            raise ParseError(f"duplicate map_obj entry for {x!r}", lineno)
        obj_map[x] = fx
    arr_map: dict[str, str] = {}
    for lineno, line in sections["map_arr"]:
        f, ff = _match(line, lineno, rf"({_NAME})\s*->\s*({_NAME})", "f -> Ff")
        if f not in source.arrows:
            raise ParseError(f"dangling reference to source arrow {f!r}", lineno)
        if ff not in target.arrows:
            raise ParseError(f"dangling reference to target arrow {ff!r}", lineno)
        if f in arr_map:
            raise ParseError(f"duplicate map_arr entry for {f!r}", lineno)
        arr_map[f] = ff
    cell_map: dict[str, str] = {}
    for lineno, line in sections["map_cell"]:
        a, fa = _match(line, lineno, rf"({_NAME})\s*->\s*({_NAME})", "a -> Fa")
        if a not in source.cells:
            raise ParseError(f"dangling reference to source cell {a!r}", lineno)
        if fa not in target.cells:
            raise ParseError(f"dangling reference to target cell {fa!r}", lineno)
        if a in cell_map:
            raise ParseError(f"duplicate map_cell entry for {a!r}", lineno)
        cell_map[a] = fa

    missing = [x for x in source.objects if x not in obj_map]
    if missing:
        raise ParseError(f"map_obj misses objects {missing}", 1)
    for x in source.objects:
        arr_map.setdefault(source.id1[x], target.id1[obj_map[x]])
    missing = [f for f in source.arrows if f not in arr_map]
    if missing:
        raise ParseError(f"map_arr misses arrows {missing}", 1)
    for f in source.arrows:
        cell_map.setdefault(source.idc[f], target.idc[arr_map[f]])
    missing = [a for a in source.cells if a not in cell_map]
    if missing:
        raise ParseError(f"map_cell misses cells {missing}", 1)

    xi: dict[str, str] = {}
    for lineno, line in sections["xi"]:
        x, c = _match(line, lineno, rf"({_NAME})\s*=\s*({_NAME})", "X = cell")
        if x not in source.objects:
            raise ParseError(f"dangling reference to source object {x!r}", lineno)
        if c not in target.cells:
            raise ParseError(f"dangling reference to target cell {c!r}", lineno)
        xi[x] = c
    phi: dict[tuple[str, str], str] = {}
    for lineno, line in sections["phi"]:
        g, f, c = _match(line, lineno, rf"({_NAME})\s*\.\s*({_NAME})\s*=\s*({_NAME})", "g . f = cell")
        if g not in source.arrows or f not in source.arrows:
            raise ParseError(f"dangling reference in phi entry {g} . {f}", lineno)
        if c not in target.cells:
            raise ParseError(f"dangling reference to target cell {c!r}", lineno)
        phi[(g, f)] = c

    try:
        return PseudofunctorData(
            name=name,
            source=source,
            target=target,
            obj_map=obj_map,
            arr_map=arr_map,
            cell_map=cell_map,
            xi=xi,
            phi=phi,
        )
    except StructureError as exc:
        raise ParseError(str(exc), 1) from exc
