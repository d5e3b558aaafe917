"""Line-oriented documents: bicategories (``.bic``), pseudofunctors (``.pf``)
and computads (``.cmp``).

A document is a list of sections.  A header ``name:`` opens a section, whose
entries sit inline after the header or on the following lines, one per line;
``#`` starts a comment.  Each document kind declares the sections it accepts
(``BICATEGORY``, ``PSEUDOFUNCTOR`` and ``COMPUTAD`` below), and only
bicategory documents accept the ``strict true|false`` directive; a header of
any other section, or a directive elsewhere, is an error at its line.

The table below gives each section one ``_Grammar`` row: the entry pattern,
the shape shown when a line does not match it, the kind of each captured name,
the number of leading names that form the key, and the message a repeated key
gets.  A name is ``_NEW`` (declared by the entry; the key), a ``_Ref`` (it
must already be declared in the named space: objects, arrows, cells, or the
source or target ones of a pseudofunctor; a path ``_Ref`` is a computad arrow
path whose every arrow must be declared) or ``None`` (free text); an optional
name left out is not checked.  ``Document.read`` is the one reader every
section goes through: it matches each line, checks its names in order (a
repeated ``_NEW`` name first, any other repeated key after the references)
and stores key -> value, so every keyed section rejects duplicates the same
way.

Bicategory sections: ``objects:`` (names), ``arrows:`` (``name : src ->
dst``), ``compose:`` (``g . f = h``), ``cells:`` (``name : f => g``),
``vcomp:`` (``b . a = c``), ``lwhisk:`` (``g * a = c``), ``rwhisk:`` (``a * f
= c``), ``unitors:`` (``lambda f = c`` / ``rho f = c``), ``assoc:`` (``theta h
g f = c``) and ``sigma:`` (arrow names; repeats merge).  Pseudofunctor
sections: ``map_obj:`` (``X -> FX``), ``map_arr:`` (``f -> Ff``),
``map_cell:`` (``a -> Fa``), ``xi:`` (``X = cell``) and ``phi:`` (``g . f =
cell``).  Computad sections: ``objects:``, ``arrows:`` and ``cells:`` (``name :
path => path``, with ``@ X`` for a cell between empty paths).

The identity arrow of object X is the arrow named ``id_X`` and the identity
2-cell of arrow f is the cell named ``id_f``; missing ones are synthesized.
Table entries forced by the axioms are filled in automatically and never
override explicit lines: vertical composites with identity cells, whiskers of
identity cells, and (in strict documents) composites and whiskers along
identity arrows plus all unitor/associator entries.
"""
from __future__ import annotations

import re
from collections.abc import Container
from typing import NamedTuple

from .core import Bicategory, PseudofunctorData, StructureError, _group

_NAME = r"[A-Za-z0-9_.'-]+"
_N = f"({_NAME})"


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Presentation(NamedTuple):
    bicategory: Bicategory
    sigma_names: tuple[str, ...]


def parse_path(text: str) -> tuple[str, ...]:
    """A computad arrow path, outermost first; ``1`` is the empty path."""
    text = text.strip()
    if text == "1":
        return ()
    parts = [p.strip() for p in text.split(".")]
    if not all(parts):
        raise StructureError(f"bad path {text!r}")
    return tuple(parts)


_NEW = "new"


class _Ref(NamedTuple):
    """A captured name that must be declared in ``space``."""

    space: str
    # {ref} is the name, {0}, {1}, ... the entry's captured names
    dangling: str = "dangling reference to {space} {ref!r}"
    path: bool = False  # a computad arrow path, each of its arrows a reference


class _Grammar(NamedTuple):
    """The line grammar of one section's entries."""

    pattern: re.Pattern[str]
    shape: str
    kinds: tuple[str | _Ref | None, ...]  # one per captured name
    key: int  # leading names that form the key; the rest is the value
    duplicate: str | None  # message for a repeated key; None: repeats merge
    many: bool = False  # whitespace-separated names, each one entry

    def entries(self, line: str, lineno: int) -> list[tuple[str, ...]]:
        if not self.many:
            m = self.pattern.fullmatch(line)
            if m is None:
                raise ParseError(f"expected {self.shape!r}", lineno)
            return [m.groups()]
        toks = line.split()
        for t in toks:
            if not self.pattern.fullmatch(t):
                raise ParseError(f"bad name {t!r}", lineno, line.find(t) + 1)
        return [(t,) for t in toks]


class DocumentKind(NamedTuple):
    """The sections one kind of document accepts, and its noun in errors."""

    noun: str
    sections: dict[str, _Grammar]
    strict: bool = False  # accepts the strict directive


def _name_list(kind: str | _Ref, duplicate: str | None) -> _Grammar:
    return _Grammar(re.compile(_N), "name", (kind,), 1, duplicate, many=True)


def _entry(pattern: str, shape: str, kinds: tuple, key: int, duplicate: str) -> _Grammar:
    return _Grammar(re.compile(pattern), shape, kinds, key, duplicate)


_OBJECTS = _name_list(_NEW, "duplicate object {0!r}")
_END = _Ref("object", "arrow {0!r} references undeclared object {ref!r}")
_ARROWS = _entry(
    rf"{_N}\s*:\s*{_N}\s*->\s*{_N}", "name : src -> dst", (_NEW, _END, _END), 1,
    "duplicate arrow {0!r}",
)
_ARROW, _CELL = _Ref("arrow"), _Ref("cell")
_COMPOSE = rf"{_N}\s*\.\s*{_N}\s*=\s*{_N}"
_WHISKER = rf"{_N}\s*\*\s*{_N}\s*=\s*{_N}"
_MAP = rf"{_N}\s*->\s*{_N}"
_SRC_OBJ, _SRC_ARROW, _SRC_CELL = (_Ref(f"source {s}") for s in ("object", "arrow", "cell"))
_TGT_OBJ, _TGT_ARROW, _TGT_CELL = (_Ref(f"target {s}") for s in ("object", "arrow", "cell"))
_PHI_ARROW = _Ref("source arrow", "dangling reference in phi entry {0} . {1}")

BICATEGORY = DocumentKind("bicategory", strict=True, sections={
    "objects": _OBJECTS,
    "arrows": _ARROWS,
    "compose": _entry(
        _COMPOSE, "g . f = h", (_ARROW, _ARROW, _ARROW), 2, "duplicate compose entry {0} . {1}"
    ),
    "cells": _entry(
        rf"{_N}\s*:\s*{_N}\s*=>\s*{_N}", "name : f => g", (_NEW, _ARROW, _ARROW), 1,
        "duplicate cell {0!r}",
    ),
    "vcomp": _entry(
        _COMPOSE, "b . a = c", (_CELL, _CELL, _CELL), 2, "duplicate vcomp entry {0} . {1}"
    ),
    "lwhisk": _entry(
        _WHISKER, "g * a = c", (_ARROW, _CELL, _CELL), 2, "duplicate lwhisk entry {0} * {1}"
    ),
    "rwhisk": _entry(
        _WHISKER, "a * f = c", (_CELL, _ARROW, _CELL), 2, "duplicate rwhisk entry {0} * {1}"
    ),
    "unitors": _entry(
        rf"(lambda|rho)\s+{_N}\s*=\s*{_N}", "lambda f = c | rho f = c", (None, _ARROW, _CELL),
        2, "duplicate {0} entry for {1!r}",
    ),
    "assoc": _entry(
        rf"theta\s+{_N}\s+{_N}\s+{_N}\s*=\s*{_N}", "theta h g f = c",
        (_ARROW, _ARROW, _ARROW, _CELL), 3, "duplicate assoc entry theta {0} {1} {2}",
    ),
    "sigma": _name_list(_ARROW, None),
})

PSEUDOFUNCTOR = DocumentKind("pseudofunctor", sections={
    "map_obj": _entry(
        _MAP, "X -> FX", (_SRC_OBJ, _TGT_OBJ), 1, "duplicate map_obj entry for {0!r}"
    ),
    "map_arr": _entry(
        _MAP, "f -> Ff", (_SRC_ARROW, _TGT_ARROW), 1, "duplicate map_arr entry for {0!r}"
    ),
    "map_cell": _entry(
        _MAP, "a -> Fa", (_SRC_CELL, _TGT_CELL), 1, "duplicate map_cell entry for {0!r}"
    ),
    "xi": _entry(
        rf"{_N}\s*=\s*{_N}", "X = cell", (_SRC_OBJ, _TGT_CELL), 1, "duplicate xi entry for {0!r}"
    ),
    "phi": _entry(
        _COMPOSE, "g . f = cell", (_PHI_ARROW, _PHI_ARROW, _TGT_CELL), 2,
        "duplicate phi entry {0} . {1}",
    ),
})

_PATH = _Ref("arrow", "unknown arrow {ref!r} in path", path=True)
_ANCHOR = _Ref("object", "cell {0!r} anchored at unknown object")
COMPUTAD = DocumentKind("computad", sections={
    "objects": _OBJECTS,
    "arrows": _ARROWS,
    "cells": _entry(
        rf"{_N}\s*:\s*([^=@]+?)\s*=>\s*([^=@]+?)(?:\s*@\s*{_N})?",
        "name : path => path [@ obj]", (_NEW, _PATH, _PATH, _ANCHOR), 1, "duplicate cell {0!r}",
    ),
})

_HEADER = re.compile(
    rf"^({'|'.join(dict.fromkeys([*BICATEGORY.sections, *PSEUDOFUNCTOR.sections]))}):(.*)$"
)
_STRICT = re.compile(r"^strict\s+(true|false)$")


class Document:
    """One document split into the sections its kind accepts."""

    def __init__(self, kind: DocumentKind, text: str) -> None:
        self.kind = kind
        self.sections: dict[str, list[tuple[int, str]]] = {k: [] for k in kind.sections}
        self.strict = True
        self.where: dict[str, dict] = {}  # section -> key -> line number
        current: str | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _STRICT.match(line)
            if m:
                if not kind.strict:
                    raise ParseError(
                        f"directive 'strict' not allowed in a {kind.noun} file", lineno
                    )
                self.strict = m.group(1) == "true"
                current = None
                continue
            m = _HEADER.match(line)
            if m:
                current = m.group(1)
                if current not in self.sections:
                    raise ParseError(
                        f"section {current!r} not allowed in a {kind.noun} file", lineno
                    )
                rest = m.group(2).strip()
                if rest:
                    self.sections[current].append((lineno, rest))
                continue
            if current is None:
                raise ParseError(f"content outside any section: {line!r}", lineno)
            self.sections[current].append((lineno, line))

    def read(self, section: str, spaces: dict[str, Container[str]] | None = None) -> dict:
        """The section's entries as key -> value, in document order; the line
        of each key is kept in ``where[section]``."""
        grammar = self.kind.sections[section]
        width, duplicate = grammar.key, grammar.duplicate
        checks = [(i, kind) for i, kind in enumerate(grammar.kinds) if kind is not None]
        # a key that is no _NEW name is checked for repeats after the references
        repeat_last = duplicate is not None and all(kind is not _NEW for kind in grammar.kinds)
        table: dict = {}
        where = self.where[section] = {}
        for lineno, line in self.sections[section]:
            for groups in grammar.entries(line, lineno):
                key = groups[0] if width == 1 else groups[:width]
                values = list(groups)
                for i, kind in checks:
                    if kind is _NEW:
                        if key in table:
                            raise ParseError(duplicate.format(*groups), lineno)
                        continue
                    refs = () if groups[i] is None else (groups[i],)
                    if kind.path:
                        try:
                            values[i] = refs = parse_path(groups[i])
                        except StructureError as exc:
                            raise ParseError(str(exc), lineno) from exc
                    for ref in refs:
                        if ref not in spaces[kind.space]:
                            msg = kind.dangling.format(*groups, space=kind.space, ref=ref)
                            raise ParseError(msg, lineno)
                if repeat_last and key in table:
                    raise ParseError(duplicate.format(*groups), lineno)
                rest = values[width:]
                table[key] = rest[0] if len(rest) == 1 else tuple(rest)
                where[key] = lineno
        return table


def load_presentation_with_sigma(text: str, name: str = "bicategory") -> Presentation:
    doc = Document(BICATEGORY, text)
    objects = doc.read("objects")
    if not objects:
        raise ParseError("no objects declared", 1)
    spaces: dict[str, Container[str]] = {"object": objects}
    arrows = spaces["arrow"] = doc.read("arrows", spaces)
    id1: dict[str, str] = {}
    for x in objects:
        nm = f"id_{x}"
        if nm in arrows:
            if arrows[nm] != (x, x):
                raise ParseError(f"arrow {nm!r} must be {x} -> {x}", doc.where["arrows"][nm])
        else:
            arrows[nm] = (x, x)
        id1[x] = nm

    hcomp1 = doc.read("compose", spaces)
    if doc.strict:
        for f, (x, y) in arrows.items():
            hcomp1.setdefault((id1[y], f), f)
            hcomp1.setdefault((f, id1[x]), f)

    cells = spaces["cell"] = doc.read("cells", spaces)
    idc: dict[str, str] = {}
    for f in arrows:
        nm = f"id_{f}"
        if nm in cells:
            if cells[nm] != (f, f):
                raise ParseError(f"cell {nm!r} must be {f} => {f}", doc.where["cells"][nm])
        else:
            cells[nm] = (f, f)
        idc[f] = nm

    vcomp = doc.read("vcomp", spaces)
    for a, (f, g) in cells.items():
        vcomp.setdefault((a, idc[f]), a)
        vcomp.setdefault((idc[g], a), a)

    lwhisk = doc.read("lwhisk", spaces)
    rwhisk = doc.read("rwhisk", spaces)
    # forced whisker entries: identity cells (W2) first, so they win over
    # the identity-arrow entries of the strict case
    for (g, f), h in hcomp1.items():
        if arrows[f][1] == arrows[g][0]:
            lwhisk.setdefault((g, idc[f]), idc[h])
            rwhisk.setdefault((idc[g], f), idc[h])
    if doc.strict:
        for a, (f, _) in cells.items():
            x, y = arrows[f]
            lwhisk.setdefault((id1[y], a), a)
            rwhisk.setdefault((a, id1[x]), a)

    unitors = doc.read("unitors", spaces)
    lunitor = {f: c for (kind, f), c in unitors.items() if kind == "lambda"}
    runitor = {f: c for (kind, f), c in unitors.items() if kind == "rho"}
    assoc = doc.read("assoc", spaces)
    if doc.strict:
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

    sigma = tuple(doc.read("sigma", spaces))
    bic = Bicategory(
        name=name,
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
        strict=doc.strict,
    )
    return Presentation(bic, sigma)


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
    doc = Document(PSEUDOFUNCTOR, text)
    spaces: dict[str, Container[str]] = {}
    for side, bic in (("source", source), ("target", target)):
        spaces.update(
            {f"{side} object": bic.objects, f"{side} arrow": bic.arrows, f"{side} cell": bic.cells}
        )
    obj_map = doc.read("map_obj", spaces)
    arr_map = doc.read("map_arr", spaces)
    cell_map = doc.read("map_cell", spaces)

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

    xi = doc.read("xi", spaces)
    phi = doc.read("phi", spaces)
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
        # the latest explicit map_arr line among the arrows at fault
        lines = doc.where["map_arr"]
        line = max((lines[f] for f in exc.arrows if f in lines), default=1)
        raise ParseError(str(exc), line) from exc
