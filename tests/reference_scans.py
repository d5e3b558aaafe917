"""The scan-and-filter code that the incidence-index walks replaced, the
hand-written section loops that the table-driven document reader replaced,
the head/tail extension route that ``f_hat_chain`` on every pseudofunctor
replaced, the hat scans that the whiskering bijection replaced, the
enumerator that checked tables only on complete maps, which forward checking
replaced, and the equality decider that paired each rule with its law at
every step and wrote each adjacent-pair scan out in full, which ``ho.LAWS``
and ``ho._pairwise`` replaced, and the two probe loops that hatted each
term in each probe's target, which ``ho.probe_values`` replaced, kept as the
reference for ``tests/test_index_differential.py``,
``tests/test_extension_differential.py``, ``tests/test_hat_differential.py``,
``tests/test_enumerate_differential.py``,
``tests/test_decider_differential.py`` and
``tests/test_probe_values_differential.py``.

The probe loops are the one at the end of ``ho_eq`` and the one in
``replay_certificate``; both call ``ho.f_hat_chain`` for every probe.
``replay_certificate`` calls this module's ``ho_eq`` and takes its other
helpers (``_coverage_problems``, ``_i_functoriality`` and the JSON shape)
from ``bicatkit.localize``, where they are unchanged.

The decider is ``TraceStep`` (the old record, whose ``law`` is a field), the
ten ``_LAW_*`` strings, ``_flatten``, ``_w1_sort``, ``_decompose``,
``_simplify``, ``_normalize_side`` and ``ho_eq``; it builds the
``EqVerdict`` of the code under test, which it did not change.

The extension route is ``ExtensionG`` with its ``head`` and ``tail`` fields
(the record every function here builds), ``extend_pseudofunctor``,
``extend_2cell_data`` and the two reports' ``to_json`` bodies;
``perturbation_breaks`` is the scan version, which the index walk and the
route change both left equal in result.  ``ExtensionReport`` is the old
seven-field report, with the restriction and vertical checks and the
``checked_cells`` and ``checked_pairs`` counts that the extension has since
dropped; the functions here build it, and the differential tests compare the
fields that remain.  The hat scans are ``hat``,
``functor_cylinder_hat`` and ``f_hat``, over the last scan's
``_is_quasiequivalence``.

Each function is the old one copied verbatim, with four departures:
``ReferenceDocBuilder`` is the old ``_DocBuilder`` (``__init__`` included, its
``build`` with the old scan fill); ``load_computad`` uses this module's copy
of the old ``_split_sections`` instead of importing it; ``is_quasiequivalence``
and the hat scans do not read or write the bicategory's memo, which the code
under test shares, so the hat scans call ``_is_quasiequivalence`` directly;
and the old functions call each other here rather than their replacements.
"""
from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import asdict, dataclass, field

from bicatkit.core import (
    Bicategory,
    PseudofunctorData,
    StructureError,
    comp_sub_f,
    validate_pseudofunctor,
)
from bicatkit.elevator import Computad, Path, make_computad, parse_path
from bicatkit.ho import (
    EqVerdict,
    HoCell,
    ProbeSet,
    TwoCellExtensionReport,
    _require_admissible,
    f_hat_chain,
    ho_cell,
    ho_identity,
    ho_vcomp,
    ho_whisk,
    i_cell,
)
from bicatkit.homotopy import (
    Cylinder,
    HatError,
    Homotopy,
    HomotopyTerm,
    ICell,
    LemmaOrigin,
    TransformOrigin,
    compose_lemma,
    cylinder_homotopy,
    inverse_cylinder,
    make_cylinder,
    make_homotopy,
    transform_homotopy,
)
from bicatkit.localize import (
    SCHEMA_VERSION,
    _CERT_JSON,
    _coverage_problems,
    _i_functoriality,
    default_probe_targets,
    enumerate_probes,
    hocell_from_json,
    require_json,
)
from bicatkit.presentation import ParseError, Presentation
from bicatkit.sigma import (
    Decomposition,
    SigmaClass,
    check_three_for_two,
    find_w_split,
)

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


class ReferenceDocBuilder:
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
        # forced whisker entries: identity cells (W2), and identity arrows
        # in the strict case
        for g in arrows:
            for a, (f1, f2) in cells.items():
                if arrows[f1][1] != arrows[g][0]:
                    continue
                if (g, a) not in lwhisk:
                    if a == idc[f1] and f1 == f2 and (g, f1) in hcomp1:
                        lwhisk[(g, a)] = idc[hcomp1[(g, f1)]]
                    elif self.strict and g == id1[arrows[f1][1]]:
                        lwhisk[(g, a)] = a
        for a, (g1, g2) in cells.items():
            for f in arrows:
                if arrows[f][1] != arrows[g1][0]:
                    continue
                if (a, f) not in rwhisk:
                    if a == idc[g1] and g1 == g2 and (g1, f) in hcomp1:
                        rwhisk[(a, f)] = idc[hcomp1[(g1, f)]]
                    elif self.strict and f == id1[arrows[g1][0]]:
                        rwhisk[(a, f)] = a

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
            for h in arrows:
                for g in arrows:
                    if arrows[g][1] != arrows[h][0]:
                        continue
                    for f in arrows:
                        if arrows[f][1] != arrows[g][0]:
                            continue
                        key = (h, g, f)
                        if key in assoc:
                            continue
                        inner = hcomp1.get((g, f))
                        if inner is None:
                            continue
                        whole = hcomp1.get((h, inner))
                        if whole is not None:
                            assoc[key] = idc[whole]

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


def load_computad(text: str, name: str = "computad") -> Computad:
    """Computad documents: objects:, arrows: (name : X -> Y) and cells:
    (name : path => path, optionally '@ obj' for scalar cells)."""
    sections, _ = _split_sections(text)
    objects: list[str] = []
    for lineno, line in sections["objects"]:
        for tok in line.split():
            if tok in objects:
                raise ParseError(f"duplicate object {tok!r}", lineno)
            objects.append(tok)
    arrows: dict[str, tuple[str, str]] = {}
    for lineno, line in sections["arrows"]:
        m = re.fullmatch(rf"({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})", line)
        if not m:
            raise ParseError("expected 'name : src -> dst'", lineno)
        nm, src, dst = m.groups()
        if nm in arrows:
            raise ParseError(f"duplicate arrow {nm!r}", lineno)
        arrows[nm] = (src, dst)
    cells: dict[str, tuple[Path, Path, str] | tuple[Path, Path]] = {}
    for lineno, line in sections["cells"]:
        m = re.fullmatch(
            rf"({_NAME})\s*:\s*([^=@]+?)\s*=>\s*([^=@]+?)(?:\s*@\s*({_NAME}))?", line
        )
        if not m:
            raise ParseError("expected 'name : path => path [@ obj]'", lineno)
        nm, pin, pout, anchor = m.groups()
        if nm in cells:
            raise ParseError(f"duplicate cell {nm!r}", lineno)
        try:
            entry: tuple
            if anchor:
                entry = (parse_path(pin), parse_path(pout), anchor)
            else:
                entry = (parse_path(pin), parse_path(pout))
        except StructureError as exc:
            raise ParseError(str(exc), lineno) from exc
        cells[nm] = entry
    try:
        return make_computad(name, objects, arrows, cells)  # type: ignore[arg-type]
    except StructureError as exc:
        raise ParseError(str(exc), 1) from exc


def w_split_decompose(sigma: SigmaClass, f: str, max_len: int) -> Decomposition | None:
    """Breadth-first search for a chain of w-split class members whose
    composite is isomorphic to f; None when no chain of length <= max_len works."""
    if max_len < 1:
        raise StructureError("max_len must be >= 1")
    bic = sigma.bic
    x, y = bic.arrows[f]
    pieces = [
        g
        for g in sigma.sorted_members()
        if find_w_split(bic, g).is_w_split
    ]
    # frontier entries: (composite arrow, chain outermost-first)
    queue: deque[tuple[str, tuple[str, ...]]] = deque()
    seen: set[tuple[str, int]] = set()
    for g in pieces:
        if bic.arrow_src(g) == x:
            queue.append((g, (g,)))
    while queue:
        composite, chain = queue.popleft()
        if bic.arrow_dst(composite) == y:
            for c in bic.cells_between(composite, f):
                if bic.is_invertible(c):
                    return Decomposition(f, chain, c)
        if len(chain) >= max_len:
            continue
        for g in pieces:
            if bic.arrow_src(g) != bic.arrow_dst(composite):
                continue
            nxt = bic.hcomp1[(g, composite)]
            key = (nxt, len(chain) + 1)
            new_chain = (g,) + chain
            if (nxt, len(chain) + 1) in seen:
                continue
            seen.add(key)
            queue.append((nxt, new_chain))
    return None


def is_quasiequivalence(bic: Bicategory, f: str) -> bool:
    """Both composition functors with f are full and faithful on every hom.

    Checked as a bijection between cell sets for every arrow pair, with the
    result memoized on the bicategory.
    """
    x, y = bic.arrows[f]

    def bijective(pairs: list[tuple[str, str]], image: dict[str, str]) -> bool:
        seen: dict[str, str] = {}
        for a, fa in pairs:
            if fa in seen:
                return False
            seen[fa] = a
        # fullness: every cell between the two image arrows is hit
        return set(seen) == set(image)

    ok = True
    for z in bic.objects:
        # post-composition f * (-): hom(z, x) -> hom(z, y)
        for a in bic.arrows_between(z, x):
            for b in bic.arrows_between(z, x):
                fa, fb = bic.hcomp1[(f, a)], bic.hcomp1[(f, b)]
                pairs = [(c, bic.whisker_l(f, c)) for c in bic.cells_between(a, b)]
                targets = {c: c for c in bic.cells_between(fa, fb)}
                if not bijective(pairs, targets):
                    ok = False
        # pre-composition (-) * f: hom(y, z) -> hom(x, z)
        for u in bic.arrows_between(y, z):
            for v in bic.arrows_between(y, z):
                uf, vf = bic.hcomp1[(u, f)], bic.hcomp1[(v, f)]
                pairs = [(c, bic.whisker_r(c, f)) for c in bic.cells_between(u, v)]
                targets = {c: c for c in bic.cells_between(uf, vf)}
                if not bijective(pairs, targets):
                    ok = False
        if not ok:
            break
    return ok


def _is_quasiequivalence(bic: Bicategory, f: str) -> bool:
    x, y = bic.arrows[f]
    # post-composition f * (-): hom(z, x) -> hom(z, y)
    for a in bic.in_arrows(x):
        for b in bic.arrows_between(bic.arrow_src(a), x):
            fa, fb = bic.hcomp1[(f, a)], bic.hcomp1[(f, b)]
            images = [bic.whisker_l(f, c) for c in bic.cells_between(a, b)]
            if sorted(images) != list(bic.cells_between(fa, fb)):
                return False
    # pre-composition (-) * f: hom(y, z) -> hom(x, z)
    for u in bic.out_arrows(y):
        for v in bic.arrows_between(y, bic.arrow_dst(u)):
            uf, vf = bic.hcomp1[(u, f)], bic.hcomp1[(v, f)]
            images = [bic.whisker_r(c, f) for c in bic.cells_between(u, v)]
            if sorted(images) != list(bic.cells_between(uf, vf)):
                return False
    return True


def hat(bic: Bicategory, obj: Cylinder | Homotopy) -> str:
    """For a cylinder: the unique cell c with s*c = alpha_tilde (s must be a
    quasiequivalence).  For a homotopy: eps o (h * hat(C)) o eta."""
    if isinstance(obj, Homotopy):
        c_hat = hat(bic, obj.cyl)
        return bic.vertical_chain(
            [obj.eta, bic.whisker_l(obj.h, c_hat), obj.eps]
        )
    cyl = obj
    if cyl.bic is not bic:
        raise StructureError("cylinder does not live in the given bicategory")
    if not _is_quasiequivalence(bic, cyl.s):
        raise HatError(f"arrow {cyl.s!r} is not a quasiequivalence in {bic.name}")
    target = cyl.alpha_tilde()
    solutions = [
        c
        for c in bic.cells_between(cyl.d0, cyl.d1)
        if bic.whisker_l(cyl.s, c) == target
    ]
    if len(solutions) != 1:
        raise HatError(
            f"hat of cylinder on {cyl.s!r} has {len(solutions)} solutions; "
            "tables are corrupted (uniqueness is guaranteed)"
        )
    if not bic.is_invertible(solutions[0]):
        raise HatError(f"hat solution {solutions[0]!r} is not invertible")
    return solutions[0]


def functor_cylinder_hat(fun: PseudofunctorData, cyl: Cylinder) -> str:
    """Unique target cell c with Fs *_F c = F(alpha_tilde)."""
    if cyl.bic is not fun.source:
        raise StructureError("cylinder does not live in the functor's source")
    d = fun.target
    fs = fun.arr_map[cyl.s]
    if not _is_quasiequivalence(d, fs):
        raise HatError(
            f"image {fs!r} of {cyl.s!r} is not a quasiequivalence in {d.name}"
        )
    want = fun.cell_map[cyl.alpha_tilde()]
    sols = [
        c
        for c in d.cells_between(fun.arr_map[cyl.d0], fun.arr_map[cyl.d1])
        if comp_sub_f(fun, d.idc[fs], c, cyl.s, cyl.d0, cyl.s, cyl.d1) == want
    ]
    if len(sols) != 1:
        raise HatError(
            f"functor hat of cylinder on {cyl.s!r} has {len(sols)} solutions"
        )
    return sols[0]


def f_hat(fun: PseudofunctorData, term: HomotopyTerm) -> str:
    """The target 2-cell a homotopy term induces through a pseudofunctor."""
    if isinstance(term, ICell):
        return fun.cell_map[term.cell]
    c_hat = functor_cylinder_hat(fun, term.cyl)
    d = fun.target
    mid = comp_sub_f(
        fun,
        d.idc[fun.arr_map[term.h]],
        c_hat,
        term.h,
        term.cyl.d0,
        term.h,
        term.cyl.d1,
    )
    return d.vertical_chain(
        [fun.cell_map[term.eta], mid, fun.cell_map[term.eps]]
    )


def sample_homotopies(sigma: SigmaClass, cap: int = 200) -> list[Homotopy]:
    """Deterministic enumeration of homotopies at desk scale: every cylinder
    (all parallel pairs, diagonals, marked arrows and comparison cells), its
    tautological homotopy, and every homotopy over it, capped."""
    bic = sigma.bic
    out: list[Homotopy] = []
    for d0 in sorted(bic.arrows):
        x, w = bic.arrows[d0]
        for d1 in bic.arrows_between(x, w):
            for s in sorted(sigma.members):
                if bic.arrow_src(s) != w:
                    continue
                z = bic.arrow_dst(s)
                for diag in bic.arrows_between(x, z):
                    sd0, sd1 = bic.hcomp1[(s, d0)], bic.hcomp1[(s, d1)]
                    for a0 in bic.cells_between(sd0, diag):
                        if not bic.is_invertible(a0):
                            continue
                        for a1 in bic.cells_between(sd1, diag):
                            if not bic.is_invertible(a1):
                                continue
                            cyl = make_cylinder(bic, d0, d1, diag, s, a0, a1, sigma)
                            out.append(cylinder_homotopy(cyl))
                            for h in sorted(bic.arrows):
                                if bic.arrow_src(h) != w:
                                    continue
                                hd0 = bic.hcomp1[(h, d0)]
                                hd1 = bic.hcomp1[(h, d1)]
                                for ffrom in bic.arrows_between(
                                    x, bic.arrow_dst(h)
                                ):
                                    for eta in bic.cells_between(ffrom, hd0):
                                        for gto in bic.arrows_between(
                                            x, bic.arrow_dst(h)
                                        ):
                                            for eps in bic.cells_between(hd1, gto):
                                                out.append(
                                                    make_homotopy(cyl, h, eta, eps)
                                                )
                                                if len(out) >= cap:
                                                    return out
                            if len(out) >= cap:
                                return out
    return out


@dataclass
class ExtensionReport:
    agrees_on_cells: bool
    functorial_vertical: bool
    functorial_whisker: bool
    preserves_units: bool
    checked_cells: int
    checked_pairs: int
    checked_whiskers: int

    @property
    def ok(self) -> bool:
        return (
            self.agrees_on_cells
            and self.functorial_vertical
            and self.functorial_whisker
            and self.preserves_units
        )

    def to_json(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


@dataclass
class ExtensionG:
    """A functor out of the homotopy bicategory, determined by its restriction
    along the projection: objects and arrows as the base functor, 2-cell
    values forced to the composite of term hats.

    On the pseudofunctor route the values are computed through the
    factorization: head is the 2-functor leg, tail carries them back down."""

    fun: PseudofunctorData
    sigma: SigmaClass
    head: PseudofunctorData | None = None
    tail: PseudofunctorData | None = None
    report: ExtensionReport | None = None
    materialized: list[HoCell] = field(default_factory=list)

    def value(self, k: HoCell) -> str:
        if self.head is not None and self.tail is not None:
            return self.tail.cell_map[f_hat_chain(self.head, k)]
        return f_hat_chain(self.fun, k)


def extension_report_json(report: ExtensionReport) -> dict:
    """The old ``ExtensionReport.to_json``."""
    self = report
    return {
        "ok": self.ok,
        "agrees_on_cells": self.agrees_on_cells,
        "functorial_vertical": self.functorial_vertical,
        "functorial_whisker": self.functorial_whisker,
        "preserves_units": self.preserves_units,
        "checked_cells": self.checked_cells,
        "checked_pairs": self.checked_pairs,
        "checked_whiskers": self.checked_whiskers,
    }


def two_cell_report_json(report: TwoCellExtensionReport) -> dict:
    """The old ``TwoCellExtensionReport.to_json``."""
    self = report
    return {"kind": self.kind, "ok": self.ok, "failures": self.failures}


def extend_2functor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extend a 2-functor along the projection and verify, on a materialized
    family of cells, that the forced values are functorial."""
    if not fun.is_2functor:
        raise StructureError(f"{fun.name!r} is not a 2-functor")
    for s in sigma.sorted_members():
        if not is_quasiequivalence(fun.target, fun.arr_map[s]):
            raise StructureError(
                f"{fun.name!r} sends {s!r} outside the quasiequivalences"
            )
    ext = ExtensionG(fun, sigma)
    bic = sigma.bic
    d = fun.target

    family: list[HoCell] = []
    for mu in sorted(bic.cells):
        family.append(i_cell(sigma, mu))
    for hom in sample_homotopies(sigma, cap=cap):
        family.append(ho_cell(sigma, (hom,)))
    ext.materialized = family

    agrees = all(
        ext.value(i_cell(sigma, mu)) == fun.cell_map[mu] for mu in sorted(bic.cells)
    )
    pairs = 0
    vert_ok = True
    for k1 in family:
        for k2 in family:
            if k1.g != k2.f:
                continue
            pairs += 1
            comp = ho_vcomp(k2, k1)
            if ext.value(comp) != d.vertical(ext.value(k2), ext.value(k1)):
                vert_ok = False
    whisk = 0
    whisk_ok = True
    for k in family:
        y = bic.arrow_dst(k.f)
        x = bic.arrow_src(k.f)
        for r in sorted(bic.arrows):
            if bic.arrow_src(r) == y:
                whisk += 1
                lhs = ext.value(ho_whisk("left", r, k))
                if lhs != d.whisker_l(fun.arr_map[r], ext.value(k)):
                    whisk_ok = False
            if bic.arrow_dst(r) == x:
                whisk += 1
                lhs = ext.value(ho_whisk("right", r, k))
                if lhs != d.whisker_r(ext.value(k), fun.arr_map[r]):
                    whisk_ok = False
    units_ok = all(
        ext.value(ho_identity(sigma, f)) == d.idc[fun.arr_map[f]]
        for f in sorted(bic.arrows)
    )
    ext.report = ExtensionReport(
        agrees, vert_ok, whisk_ok, units_ok, len(bic.cells), pairs, whisk
    )
    return ext


def perturbation_breaks(ext: ExtensionG, k: HoCell, other_value: str) -> bool:
    """True when overriding the extension's value on k with other_value breaks
    a verified equation (restriction along the projection, the forced value of
    marked cylinder classes, or vertical/whisker functoriality).  Defined for
    2-functor extensions, where whiskering needs no conjugation."""
    if ext.head is not None:
        raise StructureError("perturbation check runs on the 2-functor leg")
    fun = ext.fun
    d = fun.target
    if other_value == ext.value(k):
        return False

    def val(cell: HoCell) -> str:
        return other_value if cell.terms == k.terms else ext.value(cell)

    # restriction along the projection
    for mu in sorted(ext.sigma.bic.cells):
        ic = i_cell(ext.sigma, mu)
        if ic.terms == k.terms and val(ic) != fun.cell_map[mu]:
            return True
    # identity classes have forced values
    if not k.terms:
        return val(k) != d.idc[fun.arr_map[k.f]]
    # decomposition pins singleton homotopy classes to their hat composites
    if len(k.terms) == 1 and isinstance(k.terms[0], Homotopy):
        if val(k) != f_hat(fun, k.terms[0]):
            return True
    # vertical functoriality against the identity-free split of the sequence
    if len(k.terms) >= 2:
        left = ho_cell(ext.sigma, k.terms[:1])
        right = ho_cell(ext.sigma, k.terms[1:])
        if val(k) != d.vertical(val(right), val(left)):
            return True
    # whisker functoriality detects the rest
    bic = ext.sigma.bic
    for r in sorted(bic.arrows):
        if bic.arrow_src(r) == bic.arrow_dst(k.f):
            moved = ho_whisk("left", r, k)
            if val(moved) != d.whisker_l(fun.arr_map[r], val(k)):
                return True
    return False


def extend_pseudofunctor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extension for arbitrary pseudofunctors via the head/tail factorization:
    extend the 2-functor head, then push values through the tail."""
    from bicatkit.core import factorize

    if not validate_pseudofunctor(fun).ok:
        raise StructureError(f"{fun.name!r} fails validation")
    if fun.is_2functor:
        return extend_2functor(fun, sigma, cap=cap)
    _require_admissible(fun, sigma)
    _, f1, f2 = factorize(fun)
    head_ext = extend_2functor(f2, sigma, cap=cap)
    return ExtensionG(
        fun,
        sigma,
        head=f2,
        tail=f1,
        report=head_ext.report,
        materialized=head_ext.materialized,
    )


def extend_2cell_data(kind: str, data, sigma: SigmaClass, cap: int = 40):
    """Extensions of transformations (checked against materialized classes via
    the naturality square) and modifications (rechecked on arrows).  Values are
    unchanged; what is verified is that they stay lawful over the homotopy
    bicategory."""
    from bicatkit.core import ModificationData, TransformationData

    failures: list[str] = []
    if kind == "transformation":
        assert isinstance(data, TransformationData)
        f_, g_ = data.fun_from, data.fun_to
        d = f_.target
        ext_f = extend_2functor(f_, sigma, cap=cap)
        ext_g = extend_2functor(g_, sigma, cap=cap)
        for k in ext_f.materialized:
            x = sigma.bic.arrow_src(k.f)
            y = sigma.bic.arrow_dst(k.f)
            lhs = d.vertical(
                data.comp_arr[k.g],
                d.whisker_r(ext_g.value(k), data.comp_obj[x]),
            )
            rhs = d.vertical(
                d.whisker_l(data.comp_obj[y], ext_f.value(k)),
                data.comp_arr[k.f],
            )
            if lhs != rhs:
                failures.append(f"PN2 fails on {k}: {lhs} != {rhs}")
        return data, TwoCellExtensionReport(kind, not failures, failures)
    if kind == "modification":
        assert isinstance(data, ModificationData)
        theta, eta = data.theta, data.eta
        f_ = theta.fun_from
        g_ = theta.fun_to
        d = f_.target
        c = f_.source
        for f in sorted(c.arrows):
            x, y = c.arrows[f]
            lhs = d.vertical(
                d.whisker_r(data.comp[y], f_.arr_map[f]), theta.comp_arr[f]
            )
            rhs = d.vertical(
                eta.comp_arr[f], d.whisker_l(g_.arr_map[f], data.comp[x])
            )
            if lhs != rhs:
                failures.append(f"PM fails on {f}: {lhs} != {rhs}")
        return data, TwoCellExtensionReport(kind, not failures, failures)
    raise StructureError(f"unknown extension kind {kind!r}")


def enumerate_2functors(
    src: Bicategory, dst: Bicategory, name_prefix: str = ""
) -> list[PseudofunctorData]:
    """All 2-functors between two finite tabulated bicategories, by exhaustive
    backtracking over object, arrow and cell assignments."""
    objs = list(src.objects)
    ids = set(src.id1.values())
    idcs = set(src.idc.values())
    gen_arrows = [f for f in sorted(src.arrows) if f not in ids]
    gen_cells = [a for a in sorted(src.cells) if a not in idcs]
    found: list[PseudofunctorData] = []

    def arrows_ok(amap: dict[str, str]) -> bool:
        for (g, f), c in src.hcomp1.items():
            if dst.hcomp1.get((amap[g], amap[f])) != amap[c]:
                return False
        return True

    def cells_ok(amap: dict[str, str], cmap: dict[str, str]) -> bool:
        for (b, a), c in src.vcomp.items():
            if dst.vcomp.get((cmap[b], cmap[a])) != cmap[c]:
                return False
        for (g, a), c in src.lwhisk.items():
            if dst.lwhisk.get((amap[g], cmap[a])) != cmap[c]:
                return False
        for (a, f), c in src.rwhisk.items():
            if dst.rwhisk.get((cmap[a], amap[f])) != cmap[c]:
                return False
        if not src.strict or not dst.strict:
            for f in src.arrows:
                if cmap[src.lunitor[f]] != dst.lunitor[amap[f]]:
                    return False
                if cmap[src.runitor[f]] != dst.runitor[amap[f]]:
                    return False
            for key, c in src.assoc.items():
                if cmap[c] != dst.assoc[(amap[key[0]], amap[key[1]], amap[key[2]])]:
                    return False
        return True

    for combo in itertools.product(dst.objects, repeat=len(objs)):
        omap = dict(zip(objs, combo))
        amap_base = {src.id1[x]: dst.id1[omap[x]] for x in objs}

        def extend_arrows(i: int, amap: dict[str, str]) -> None:
            if i == len(gen_arrows):
                if not arrows_ok(amap):
                    return
                cmap_base = {src.idc[f]: dst.idc[amap[f]] for f in src.arrows}
                extend_cells(0, dict(cmap_base), amap)
                return
            f = gen_arrows[i]
            x, y = src.arrows[f]
            for cand in dst.arrows_between(omap[x], omap[y]):
                amap[f] = cand
                extend_arrows(i + 1, amap)
            amap.pop(f, None)

        def extend_cells(j: int, cmap: dict[str, str], amap: dict[str, str]) -> None:
            if j == len(gen_cells):
                if cells_ok(amap, cmap):
                    fun = PseudofunctorData(
                        name=f"{name_prefix}{src.name}->{dst.name}#{len(found)}",
                        source=src,
                        target=dst,
                        obj_map=dict(omap),
                        arr_map=dict(amap),
                        cell_map=dict(cmap),
                    )
                    found.append(fun)
                return
            a = gen_cells[j]
            f, g = src.cells[a]
            for cand in dst.cells_between(amap[f], amap[g]):
                cmap[a] = cand
                extend_cells(j + 1, cmap, amap)
            cmap.pop(a, None)

        extend_arrows(0, dict(amap_base))
    return found


# -- the equality decider with hand-paired laws -------------------------------


@dataclass(frozen=True)
class TraceStep:
    side: str
    rule: str
    law: str
    detail: str

    def to_json(self) -> dict:
        return {"side": self.side, "rule": self.rule, "law": self.law, "detail": self.detail}


_LAW_ICELL_ID = "[I(id_f)] = id_f"
_LAW_CYL_ID = "[h*H^C] = id when d0 = d1 and alpha0 = alpha1 (hat is unique)"
_LAW_ICELL_MERGE = "[I(mu'), I(mu)] = [I(mu' o mu)]"
_LAW_DECOMPOSE = "[H] = [I(eps)] o (h * [H^C]) o [I(eta)]"
_LAW_CYL_CANCEL = "(h * [H^C]) o (h * [H^C^-1]) = id"
_LAW_POST = "[mu o H] = [I(mu)] o [H]"
_LAW_PRE = "[H o nu] = [H] o [I(nu)]"
_LAW_LEMMA = "[H] = [H2, H1] under the gluing hypotheses"
_LAW_W1 = "[K*f1, g2*H] = [g1*H, K*f2]"
_LAW_SYNTACTIC = "identical sequences denote the same class"


def _flatten(
    sigma: SigmaClass,
    terms: tuple[HomotopyTerm, ...],
    side: str,
    trace: list[TraceStep],
    budget: int,
) -> list[HomotopyTerm]:
    out: list[HomotopyTerm] = []

    def go(t: HomotopyTerm) -> None:
        if isinstance(t, ICell):
            out.append(t)
            return
        origin = t.origin
        if isinstance(origin, LemmaOrigin) and len(out) + 2 <= budget:
            replay = compose_lemma(sigma, origin.h1, origin.h2, origin.glue)
            if replay == t:
                trace.append(
                    TraceStep(side, "lemma-expand", _LAW_LEMMA, f"{t.f}=>{t.g}")
                )
                go(origin.h1)
                go(origin.h2)
                return
        if isinstance(origin, TransformOrigin) and origin.kind == "post":
            trace.append(TraceStep(side, "post-split", _LAW_POST, origin.arg))
            go(origin.base)
            go(ICell(t.bic, origin.arg))
            return
        if isinstance(origin, TransformOrigin) and origin.kind == "pre":
            trace.append(TraceStep(side, "pre-split", _LAW_PRE, origin.arg))
            go(ICell(t.bic, origin.arg))
            go(origin.base)
            return
        out.append(t)

    for t in terms:
        go(t)
    return out


def _w1_sort(
    terms: list[HomotopyTerm], side: str, trace: list[TraceStep]
) -> list[HomotopyTerm]:
    """Directed exchange: a right-whiskered term followed by a left-whiskered
    term in the W1 square pattern is rewritten to the other bracketing."""
    work = list(terms)
    changed = True
    rounds = 0
    while changed and rounds < len(work) * len(work) + 1:
        changed = False
        rounds += 1
        for i in range(len(work) - 1):
            t1, t2 = work[i], work[i + 1]
            if not (isinstance(t1, Homotopy) and isinstance(t2, Homotopy)):
                continue
            o1, o2 = t1.origin, t2.origin
            if not (
                isinstance(o1, TransformOrigin)
                and o1.kind == "rwhisk"
                and isinstance(o2, TransformOrigin)
                and o2.kind == "lwhisk"
            ):
                continue
            k_hom, f1 = o1.base, o1.arg
            h_hom, g2 = o2.base, o2.arg
            if g2 != k_hom.g or f1 != h_hom.f:
                continue
            work[i] = transform_homotopy("lwhisk", k_hom.f, h_hom)
            work[i + 1] = transform_homotopy("rwhisk", h_hom.g, k_hom)
            trace.append(
                TraceStep(side, "w1-exchange", _LAW_W1, f"{k_hom.f}|{h_hom.g}")
            )
            changed = True
    return work


def _decompose(
    terms: list[HomotopyTerm], side: str, trace: list[TraceStep]
) -> list[tuple]:
    """Each homotopy becomes I(eta); h*H^C; I(eps).  Canonical items are
    ('ci', cell) and ('cyl', h, cylinder)."""
    out: list[tuple] = []
    for t in terms:
        if isinstance(t, ICell):
            out.append(("ci", t.cell))
            continue
        bic = t.bic
        plain = (
            t.h == bic.id1[t.cyl.w]
            and t.eta == bic.idc[t.cyl.d0]
            and t.eps == bic.idc[t.cyl.d1]
        )
        whiskered = t.eta == bic.idc.get(bic.hcomp1.get((t.h, t.cyl.d0))) and (
            t.eps == bic.idc.get(bic.hcomp1.get((t.h, t.cyl.d1)))
        )
        if plain or whiskered:
            out.append(("cyl", t.h, t.cyl))
            continue
        trace.append(TraceStep(side, "decompose", _LAW_DECOMPOSE, f"{t.f}=>{t.g}"))
        out.append(("ci", t.eta))
        out.append(("cyl", t.h, t.cyl))
        out.append(("ci", t.eps))
    return out


def _simplify(
    bic: Bicategory, items: list[tuple], side: str, trace: list[TraceStep]
) -> list[tuple]:
    work = list(items)
    changed = True
    while changed:
        changed = False
        # drop identity projections and identity-hat cylinder classes
        kept: list[tuple] = []
        for it in work:
            if it[0] == "ci" and bic.is_identity_cell(it[1]):
                trace.append(TraceStep(side, "icell-identity", _LAW_ICELL_ID, it[1]))
                changed = True
            elif (
                it[0] == "cyl"
                and it[2].d0 == it[2].d1
                and it[2].alpha0 == it[2].alpha1
            ):
                trace.append(TraceStep(side, "cylinder-identity", _LAW_CYL_ID, it[2].s))
                changed = True
            else:
                kept.append(it)
        work = kept
        # merge adjacent projections
        i = 0
        merged: list[tuple] = []
        while i < len(work):
            if (
                i + 1 < len(work)
                and work[i][0] == "ci"
                and work[i + 1][0] == "ci"
            ):
                first, second = work[i][1], work[i + 1][1]
                val = bic.vertical(second, first)
                trace.append(
                    TraceStep(side, "icell-merge", _LAW_ICELL_MERGE, f"{second} o {first}")
                )
                merged.append(("ci", val))
                i += 2
                changed = True
                continue
            merged.append(work[i])
            i += 1
        work = merged
        # cancel inverse cylinder pairs with the same mediating arrow
        i = 0
        cancelled: list[tuple] = []
        while i < len(work):
            if (
                i + 1 < len(work)
                and work[i][0] == "cyl"
                and work[i + 1][0] == "cyl"
                and work[i][1] == work[i + 1][1]
                and inverse_cylinder(work[i][2]) == work[i + 1][2]
            ):
                trace.append(
                    TraceStep(
                        side,
                        "cylinder-cancel",
                        _LAW_CYL_CANCEL,
                        f"{work[i][2].s} via {work[i][1]}",
                    )
                )
                i += 2
                changed = True
                continue
            cancelled.append(work[i])
            i += 1
        work = cancelled
    return work


def _normalize_side(
    k: HoCell, side: str, trace: list[TraceStep], budget: int
) -> list[tuple]:
    flat = _flatten(k.sigma, k.terms, side, trace, budget)
    flat = _w1_sort(flat, side, trace)
    items = _decompose(flat, side, trace)
    return _simplify(k.bic, items, side, trace)


def ho_eq(
    k1: HoCell, k2: HoCell, probes: ProbeSet | None = None, budget: int = 8
) -> EqVerdict:
    """Three-valued equality on homotopy-bicategory 2-cells."""
    if k1.sigma != k2.sigma:
        raise StructureError("cells live over different marked classes")
    if (k1.f, k1.g) != (k2.f, k2.g):
        raise StructureError(
            f"boundary mismatch: {k1.f}=>{k1.g} vs {k2.f}=>{k2.g}"
        )
    if budget < 1:
        raise StructureError("budget must be >= 1")
    if k1.terms == k2.terms:
        return EqVerdict(
            "equal", (TraceStep("both", "syntactic", _LAW_SYNTACTIC, ""),)
        )
    trace: list[TraceStep] = []
    left = _normalize_side(k1, "left", trace, budget)
    right = _normalize_side(k2, "right", trace, budget)
    if left == right:
        return EqVerdict("equal", tuple(trace))
    if probes is not None:
        for fun in probes.probes:
            v1 = f_hat_chain(fun, k1)
            v2 = f_hat_chain(fun, k2)
            if v1 != v2:
                return EqVerdict("distinct", (), fun.name, v1, v2)
    return EqVerdict("unknown")


def replay_certificate(
    sigma: SigmaClass, cert_json: dict, probes: ProbeSet | None = None
) -> tuple[bool, list[str]]:
    """Re-check every recorded derivation of a certificate against the loaded
    bicategory (and a probe set, freshly enumerated unless supplied).  The
    certificate must list exactly that probe set and hold one decomposition
    and one equivalence for each marked arrow."""
    bic = sigma.bic
    if not isinstance(cert_json, dict):
        return False, ["certificate is not a JSON object"]
    if cert_json.get("schema_version") != SCHEMA_VERSION:
        return False, ["schema_version mismatch"]
    if cert_json.get("status") != "ok":
        return False, [f"certificate status is {cert_json.get('status')!r}"]
    try:
        require_json(cert_json, _CERT_JSON)
    except StructureError as exc:
        return False, [str(exc)]
    budget = cert_json["budget"]
    if budget < 1:
        return False, ["field 'budget' is below 1"]
    problems: list[str] = []
    if set(cert_json["sigma"]) != set(sigma.members):
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
        try:
            composite = bic.compose_path(chain)
        except StructureError as exc:
            problems.append(f"decomposition chain for {arrow}: {exc}")
            continue
        if bic.cells.get(cell) != (composite, arrow) or not bic.is_invertible(cell):
            problems.append(f"decomposition iso for {arrow} does not re-check")
        for g in chain:
            if g not in sigma or not find_w_split(bic, g).is_w_split:
                problems.append(f"chain arrow {g} for {arrow} is not a w-split member")

    for entry in cert_json["equivalences"]:
        arrow = entry["arrow"]
        for side_name in ("to_id_src", "to_id_dst"):
            side = entry[side_name]
            try:
                cell = hocell_from_json(sigma, side["hocell"])
                inv = hocell_from_json(sigma, side["inverse"])
                inv_cell = ho_vcomp(inv, cell)
                left = ho_eq(inv_cell, ho_identity(sigma, cell.f), probes, budget)
                right = ho_eq(ho_vcomp(cell, inv), ho_identity(sigma, cell.g), probes, budget)
                if not (left.is_equal and right.is_equal):
                    problems.append(f"{arrow}/{side_name}: invertibility does not re-derive")
                for fun in probes.probes:
                    if f_hat_chain(fun, inv_cell) != fun.target.idc[fun.arr_map[cell.f]]:
                        problems.append(f"{arrow}/{side_name}: probe {fun.name} separates")
            except StructureError as exc:
                problems.append(f"{arrow}/{side_name}: {exc}")

    if not _i_functoriality(sigma, probes, budget)["ok"]:
        problems.append("projection functoriality does not re-check")
    return not problems, problems
