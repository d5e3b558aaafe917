"""Finite tabulated bicategories and pseudofunctors.

Everything is a lookup table over string ids: objects, arrows (with a source
and a target object), 2-cells (between parallel arrows), vertical composition,
whiskering by arrows, unitors and associators.  Construction builds an
incidence index (arrows and cells in id order, arrows by endpoint, cells by
1-cell and by the endpoints of their 1-cells, composable pairs), and every
axiom check loops over the index, so each axiom visits exactly its
witnesses; composable triples are walked from the pairs, not stored.

Conventions.  Composition is written right-to-left: ``hcomp1[(g, f)]`` is the
composite "g after f" and needs dst(f) == src(g); ``vcomp[(b, a)]`` is "b after
a" and needs dst(a) == src(b).  The left unitor lam_f goes f*id_X => f, the
right unitor rho_f goes id_Y*f => f, and the associator theta_{h,g,f} goes
h*(g*f) => (h*g)*f.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, NamedTuple, TypeVar

_T = TypeVar("_T")

# the version every JSON report and certificate carries as "schema_version"
SCHEMA_VERSION = 2


class StructureError(Exception):
    """Raised for malformed references or ill-typed constructions.  `arrows`
    names the document keys at fault, when there are such."""

    def __init__(self, message: str, arrows: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.arrows = arrows


class Violation(NamedTuple):
    axiom: str
    witness: tuple[str, ...]
    left: str = ""
    right: str = ""

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "witness": list(self.witness),
            "left": self.left,
            "right": self.right,
        }


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}


class Bicategory:
    """A finite bicategory given by tables.  Immutable after construction.

    Instances compare by identity; cell/arrow equality inside one instance is
    plain id equality after table lookup.
    """

    def __init__(
        self,
        name: str,
        objects: Iterable[str],
        arrows: dict[str, tuple[str, str]],
        id1: dict[str, str],
        hcomp1: dict[tuple[str, str], str],
        cells: dict[str, tuple[str, str]],
        idc: dict[str, str],
        vcomp: dict[tuple[str, str], str],
        lwhisk: dict[tuple[str, str], str],
        rwhisk: dict[tuple[str, str], str],
        lunitor: dict[str, str],
        runitor: dict[str, str],
        assoc: dict[tuple[str, str, str], str],
        strict: bool,
    ) -> None:
        self.name = name
        self.objects = tuple(objects)
        self.arrows = dict(arrows)
        self.id1 = dict(id1)
        self.hcomp1 = dict(hcomp1)
        self.cells = dict(cells)
        self.idc = dict(idc)
        self.vcomp = dict(vcomp)
        self.lwhisk = dict(lwhisk)
        self.rwhisk = dict(rwhisk)
        self.lunitor = dict(lunitor)
        self.runitor = dict(runitor)
        self.assoc = dict(assoc)
        self.strict = bool(strict)
        self._identity_cells = frozenset(self.idc.values())
        # The incidence index: one pass over the sorted arrows and one over the
        # sorted cells, so every list is sorted by id.  Arrows are filed under
        # their endpoint ids as given and cells under their 1-cell ids; a cell
        # whose 1-cell is unknown stays out of the by-object lists, and
        # validation reports it.
        self._sorted_arrows = sorted_arrows = tuple(sorted(self.arrows))
        self._sorted_cells = sorted_cells = tuple(sorted(self.cells))
        arrow_index = arrows_between, out_arrows, in_arrows = {}, {}, {}
        cell_index = cells_between, cells_from, cells_to, out_cells, in_cells = {}, {}, {}, {}, {}
        for f in sorted_arrows:
            ends = self.arrows[f]
            arrows_between.setdefault(ends, []).append(f)
            out_arrows.setdefault(ends[0], []).append(f)
            in_arrows.setdefault(ends[1], []).append(f)
        for a in sorted_cells:
            ends = self.cells[a]
            cells_between.setdefault(ends, []).append(a)
            cells_from.setdefault(ends[0], []).append(a)
            cells_to.setdefault(ends[1], []).append(a)
            if ends[0] in self.arrows:
                f_ends = self.arrows[ends[0]]
                out_cells.setdefault(f_ends[0], []).append(a)
                in_cells.setdefault(f_ends[1], []).append(a)
        (
            self._arrows_between, self._out_arrows, self._in_arrows, self._cells_between,
            self._cells_from, self._cells_to, self._out_cells, self._in_cells,
        ) = ({k: tuple(v) for k, v in groups.items()} for groups in (*arrow_index, *cell_index))
        self._pairs = tuple(
            (g, f) for g in sorted_arrows for f in self.in_arrows(self.arrows[g][0])
        )
        self._inv_cache: dict[str, str | None] = {}
        self._qe_cache: dict[str, dict[tuple[str, str, str], str] | None] = {}
        # homotopy.hat's memo: each solved homotopy of this table to its hat
        self._hat_cache: dict[tuple, str] = {}

    def __repr__(self) -> str:
        return (
            f"Bicategory({self.name!r}, {len(self.objects)} objects, "
            f"{len(self.arrows)} arrows, {len(self.cells)} cells)"
        )

    # -- arrows ----------------------------------------------------------

    def arrow_src(self, f: str) -> str:
        return self.arrows[f][0]

    def arrow_dst(self, f: str) -> str:
        return self.arrows[f][1]

    def arrows_between(self, x: str, y: str) -> tuple[str, ...]:
        return self._arrows_between.get((x, y), ())

    def out_arrows(self, x: str) -> tuple[str, ...]:
        """Arrows with source x."""
        return self._out_arrows.get(x, ())

    def in_arrows(self, y: str) -> tuple[str, ...]:
        """Arrows with target y."""
        return self._in_arrows.get(y, ())

    def composable1(self, g: str, f: str) -> bool:
        return self.arrow_dst(f) == self.arrow_src(g)

    def compose1(self, g: str, f: str) -> str:
        try:
            return self.hcomp1[(g, f)]
        except KeyError:
            raise StructureError(
                f"{self.name}: composite {g} * {f} not in hcomp1 table"
            ) from None

    def compose_path(self, path: Iterable[str]) -> str:
        """Composite of arrows listed outermost-first (path[-1] applied first)."""
        names = list(path)
        if not names:
            raise StructureError("empty arrow path has no composite without an object")
        acc = names[-1]
        for g in reversed(names[:-1]):
            acc = self.compose1(g, acc)
        return acc

    # -- cells -----------------------------------------------------------

    def cell_src(self, a: str) -> str:
        return self.cells[a][0]

    def cell_dst(self, a: str) -> str:
        return self.cells[a][1]

    def cells_between(self, f: str, g: str) -> tuple[str, ...]:
        return self._cells_between.get((f, g), ())

    def cells_from(self, f: str) -> tuple[str, ...]:
        """Cells f => _."""
        return self._cells_from.get(f, ())

    def cells_to(self, g: str) -> tuple[str, ...]:
        """Cells _ => g."""
        return self._cells_to.get(g, ())

    def out_cells(self, x: str) -> tuple[str, ...]:
        """Cells whose 1-cells start at x."""
        return self._out_cells.get(x, ())

    def in_cells(self, y: str) -> tuple[str, ...]:
        """Cells whose 1-cells end at y."""
        return self._in_cells.get(y, ())

    def is_identity_cell(self, a: str) -> bool:
        return a in self._identity_cells

    def vertical(self, b: str, a: str) -> str:
        try:
            return self.vcomp[(b, a)]
        except KeyError:
            raise StructureError(
                f"{self.name}: vertical composite {b} . {a} not in vcomp table"
            ) from None

    def vertical_chain(self, cells: Iterable[str], on_arrow: str | None = None) -> str:
        """Fold vcomp over cells listed first-applied-first; empty chain is idc."""
        acc: str | None = None
        for c in cells:
            acc = c if acc is None else self.vertical(c, acc)
        if acc is None:
            if on_arrow is None:
                raise StructureError("empty cell chain needs an arrow for its identity")
            return self.idc[on_arrow]
        return acc

    def whisker_l(self, g: str, a: str) -> str:
        try:
            return self.lwhisk[(g, a)]
        except KeyError:
            raise StructureError(
                f"{self.name}: whisker {g} * {a} not in lwhisk table"
            ) from None

    def whisker_r(self, a: str, f: str) -> str:
        try:
            return self.rwhisk[(a, f)]
        except KeyError:
            raise StructureError(
                f"{self.name}: whisker {a} * {f} not in rwhisk table"
            ) from None

    def hcomp2(self, beta: str, alpha: str) -> str:
        """Horizontal composite beta * alpha, derived from whiskers (axiom W1)."""
        f2 = self.cell_dst(alpha)
        g1 = self.cell_src(beta)
        return self.vertical(self.whisker_r(beta, f2), self.whisker_l(g1, alpha))

    def inverse(self, a: str) -> str | None:
        """The vcomp inverse of cell a, or None; memoized exhaustive search."""
        if a in self._inv_cache:
            return self._inv_cache[a]
        f, g = self.cells[a]
        found: str | None = None
        for b in self.cells_between(g, f):
            if (
                self.vcomp.get((b, a)) == self.idc[f]
                and self.vcomp.get((a, b)) == self.idc[g]
            ):
                found = b
                break
        self._inv_cache[a] = found
        return found

    def is_invertible(self, a: str) -> bool:
        return self.inverse(a) is not None

    def require_strict(self, context: str) -> None:
        if not self.strict:
            raise StructureError(f"{context} requires a strict bicategory ({self.name})")

    # -- enumeration helpers ----------------------------------------------

    def composable_arrow_pairs(self) -> tuple[tuple[str, str], ...]:
        """Every (g, f) with dst(f) == src(g), in id order."""
        return self._pairs

    def composable_arrow_triples(self) -> tuple[tuple[str, str, str], ...]:
        """Every (h, g, f) with h after g after f, in id order."""
        return tuple(
            (h, g, f) for h, g in self._pairs for f in self.in_arrows(self.arrows[g][0])
        )


def _group(ids: Iterable[_T], key: Callable[[_T], Hashable]) -> dict[Hashable, tuple[_T, ...]]:
    """ids filed under key(id), each group keeping the order of ids."""
    groups: dict[Hashable, list[_T]] = {}
    for i in ids:
        groups.setdefault(key(i), []).append(i)
    return {k: tuple(v) for k, v in groups.items()}


def _in_key_order(found: dict) -> list[Violation]:
    """The violations filed under their table keys, in key order."""
    return [found[key] for key in sorted(found)]


def validate_bicategory(bic: Bicategory) -> ValidationReport:
    """Check every structural axiom of the tables, walking each axiom's
    witnesses through the incidence index.

    Sweeps run only where they can fire, so the report is the same as if
    they always ran.  H2 runs only beside a ``vcomp-assoc`` violation: W1,
    W3 and vertical associativity imply it.  On a ``strict`` table,
    pentagon and triangle run only beside a ``vcomp-unit`` or strictness
    violation: without one, every associator and unitor is an identity
    cell, and W2 makes both sides of each instance that identity.

    ``vcomp-assoc``, W1, W3, Nlambda/Nrho and Ntheta1-3 check only the
    instances with no identity cell among their cell inputs while no
    ``vcomp-unit`` violation exists and, past vertical associativity, no W2
    one; otherwise they check every instance.  Typing and totality have
    passed by then, and in an instance with an identity input both sides
    reduce by ``vcomp-unit`` and W2 to one cell:
      vcomp-assoc (c, b, a)  with the identity dropped, both are c.b, c.a or b.a
      W1 (b, id_f)           (g2 id_f).(b f) = b f = (b f).(g1 id_f); (id_g, a) alike
      W3 (g, b, id_f)        (g b).(g id_f) = g b = g (b.id_f); an identity b,
                             or whiskering on the right, alike
      Nlambda (id_f)         lam_f.(id_f id_x) = lam_f = id_f.lam_f; Nrho alike
      Ntheta1 (h, g, id_f)   theta.(h (g id_f)) = theta = ((hg) id_f).theta;
                             Ntheta2 and Ntheta3 alike

    One walk of the composable triples checks the associators and, on a
    ``strict`` table, ``strict-assoc`` and ``strict-assoc-cell``.  A triple
    with h(gf) = (hg)f = s and theta = id_s passes all five while no
    ``vcomp-unit`` violation exists, and the walk skips it: idc typing makes
    id_s a cell s => s, and ``vcomp-unit`` makes id_s . id_s = id_s, so id_s
    is its own inverse.  The test is theta == id_s, not "theta is an
    identity cell": the identity of another arrow is mistyped.

    When the structure cells are identities, the naturality squares are
    checked as whiskering laws.  If ``vcomp-unit`` holds and lam_f = rho_f
    = id_f for every arrow f, Nlambda and Nrho compare a*id_x with a and
    id_y*a with a.  If every triple passed the walk at once, Ntheta1-3
    compare h*(g*a) with (hg)*a, h*(b*f) with (h*b)*f and c*(gf) with
    (c*g)*f.  Unitor and whisker typing have passed, so each identity in a
    square sits on an end of the whiskered cell beside it, and ``vcomp-unit``
    drops it: the two sides are the ones the full square computes, and so
    are the witnesses and their order.  Otherwise the full squares run.

    The typing checks of hcomp1, vcomp, lwhisk and rwhisk walk each table in
    storage order and file at most one violation per key; the violations are
    reported in key order, so only they are sorted.
    """
    out: list[Violation] = []
    add = out.append
    arrows = bic.arrows
    cells = bic.cells
    hcomp1, vcomp, lwhisk, rwhisk = bic.hcomp1, bic.vcomp, bic.lwhisk, bic.rwhisk
    assoc, idc, id1 = bic.assoc, bic.idc, bic.id1
    out_arrows, in_arrows = bic.out_arrows, bic.in_arrows
    cells_from, out_cells = bic.cells_from, bic.out_cells
    sorted_arrows, sorted_cells = bic._sorted_arrows, bic._sorted_cells

    # reference integrity and identity pointers
    for f in sorted_arrows:
        x, y = arrows[f]
        if x not in bic.objects or y not in bic.objects:
            add(Violation("arrow-typing", (f, x, y)))
    for x in bic.objects:
        i = id1.get(x)
        if i is None or i not in arrows:
            add(Violation("id1-missing", (x,)))
        elif arrows[i] != (x, x):
            add(Violation("id1-typing", (x, i)))
    for a in sorted_cells:
        f, g = cells[a]
        if f not in arrows or g not in arrows:
            add(Violation("cell-typing", (a, f, g)))
        elif arrows[f] != arrows[g]:
            add(Violation("cell-parallel", (a, f, g)))
    for f in sorted_arrows:
        i = idc.get(f)
        if i is None or i not in cells:
            add(Violation("idc-missing", (f,)))
        elif cells[i] != (f, f):
            add(Violation("idc-typing", (f, i)))
    if out:
        # tables below would only cascade noise on broken references
        return ValidationReport(tuple(out))

    # hcomp1: defined iff composable, total, boundary-correct; each typing
    # loop files at most one violation per key and reports them in key order
    bad: dict = {}
    for (g, f), h in hcomp1.items():
        if g not in arrows or f not in arrows or h not in arrows:
            bad[g, f] = Violation("hcomp1-ref", (g, f, str(h)))
        elif not bic.composable1(g, f):
            bad[g, f] = Violation("hcomp1-typing", (g, f), left="not composable")
        elif arrows[h] != (arrows[f][0], arrows[g][1]):
            bad[g, f] = Violation("hcomp1-typing", (g, f), left=h)
    out += _in_key_order(bad)
    for g, f in bic.composable_arrow_pairs():
        if (g, f) not in hcomp1:
            add(Violation("hcomp1-totality", (g, f)))
    if any(v.axiom.startswith("hcomp1") for v in out):
        return ValidationReport(tuple(out))

    # vcomp: category structure on every hom
    bad = {}
    for (b, a), c in vcomp.items():
        if b not in cells or a not in cells or c not in cells:
            bad[b, a] = Violation("vcomp-ref", (b, a, str(c)))
        elif cells[a][1] != cells[b][0]:
            bad[b, a] = Violation("vcomp-typing", (b, a), left="not composable")
        elif cells[c] != (cells[a][0], cells[b][1]):
            bad[b, a] = Violation("vcomp-typing", (b, a), left=c)
    out += _in_key_order(bad)
    for b in sorted_cells:
        for a in bic.cells_to(cells[b][0]):
            if (b, a) not in vcomp:
                add(Violation("vcomp-totality", (b, a)))
    if any(v.axiom.startswith("vcomp-") for v in out):
        return ValidationReport(tuple(out))
    for a in sorted_cells:
        f, g = cells[a]
        if vcomp[(a, idc[f])] != a:
            add(Violation("vcomp-unit", (a,), left=vcomp[(a, idc[f])], right=a))
        if vcomp[(idc[g], a)] != a:
            add(Violation("vcomp-unit", (a,), left=vcomp[(idc[g], a)], right=a))
    # nothing but vcomp-unit can have fired here; while identities are units,
    # an instance with an identity input holds (see the docstring)
    units_hold = not out
    skip = bic._identity_cells if units_hold else frozenset()
    sweep = [a for a in sorted_cells if a not in skip]
    for a in sweep:
        for b in cells_from(cells[a][1]):
            if b in skip:
                continue
            for c in cells_from(cells[b][1]):
                if c in skip:
                    continue
                lhs = vcomp[(c, vcomp[(b, a)])]
                rhs = vcomp[(vcomp[(c, b)], a)]
                if lhs != rhs:
                    add(Violation("vcomp-assoc", (c, b, a), left=lhs, right=rhs))

    # whisker tables: typing and totality
    bad = {}
    for (g, a), c in lwhisk.items():
        if g not in arrows or a not in cells or c not in cells:
            bad[g, a] = Violation("lwhisk-ref", (g, a, str(c)))
            continue
        f1, f2 = cells[a]
        if arrows[f1][1] != arrows[g][0]:
            bad[g, a] = Violation("lwhisk-typing", (g, a), left="not composable")
            continue
        want = (hcomp1.get((g, f1)), hcomp1.get((g, f2)))
        if None in want or cells[c] != want:
            bad[g, a] = Violation("lwhisk-typing", (g, a), left=c)
    out += _in_key_order(bad)
    for g in sorted_arrows:
        for a in bic.in_cells(arrows[g][0]):
            if (g, a) not in lwhisk:
                add(Violation("lwhisk-totality", (g, a)))
    bad = {}
    for (a, f), c in rwhisk.items():
        if f not in arrows or a not in cells or c not in cells:
            bad[a, f] = Violation("rwhisk-ref", (a, f, str(c)))
            continue
        g1, g2 = cells[a]
        if arrows[f][1] != arrows[g1][0]:
            bad[a, f] = Violation("rwhisk-typing", (a, f), left="not composable")
            continue
        want = (hcomp1.get((g1, f)), hcomp1.get((g2, f)))
        if None in want or cells[c] != want:
            bad[a, f] = Violation("rwhisk-typing", (a, f), left=c)
    out += _in_key_order(bad)
    for a in sorted_cells:
        for f in in_arrows(arrows[cells[a][0]][0]):
            if (a, f) not in rwhisk:
                add(Violation("rwhisk-totality", (a, f)))
    if any("whisk" in v.axiom for v in out):
        return ValidationReport(tuple(out))

    # W2 / H1: whiskered identities are identities; computed first, since
    # the identity-input skip below needs it, and reported after W1
    w2_out: list[Violation] = []
    for g, f in bic.composable_arrow_pairs():
        gf = hcomp1[(g, f)]
        if lwhisk[(g, idc[f])] != idc[gf]:
            w2_out.append(Violation("W2", (g, f), left=lwhisk[(g, idc[f])], right=idc[gf]))
        if rwhisk[(idc[g], f)] != idc[gf]:
            w2_out.append(Violation("W2", (g, f), left=rwhisk[(idc[g], f)], right=idc[gf]))
    if w2_out:
        skip, sweep = frozenset(), sorted_cells

    # W1: both whisker orders of a horizontal composite agree
    for a in sweep:
        f1, f2 = cells[a]
        for b in out_cells(arrows[f1][1]):
            if b in skip:
                continue
            g1, g2 = cells[b]
            lhs = vcomp[(lwhisk[(g2, a)], rwhisk[(b, f1)])]
            rhs = vcomp[(rwhisk[(b, f2)], lwhisk[(g1, a)])]
            if lhs != rhs:
                add(Violation("W1", (b, a), left=lhs, right=rhs))
    out += w2_out

    # W3: whiskering is functorial in the cell
    for a in sweep:
        x, y = arrows[cells[a][0]]
        for b in cells_from(cells[a][1]):
            if b in skip:
                continue
            ba = vcomp[(b, a)]
            for g in out_arrows(y):
                lhs = vcomp[(lwhisk[(g, b)], lwhisk[(g, a)])]
                if lhs != lwhisk[(g, ba)]:
                    add(Violation("W3", (g, b, a), left=lhs, right=lwhisk[(g, ba)]))
            for f in in_arrows(x):
                lhs = vcomp[(rwhisk[(b, f)], rwhisk[(a, f)])]
                if lhs != rwhisk[(ba, f)]:
                    add(Violation("W3", (b, a, f), left=lhs, right=rwhisk[(ba, f)]))

    if any(v.axiom in ("W1", "W2", "W3") for v in out):
        return ValidationReport(tuple(out))

    # H2: interchange for the derived horizontal composition.  W1 and W3
    # hold here, so H2 holds wherever vcomp is associative:
    #   (d*c).(b*a) = (d f3).(g2 c).(b f2).(g1 a)    b*a = (b f2).(g1 a)
    #               = (d f3).(b f3).(g1 c).(g1 a)    W1 on (b, c)
    #               = ((d.b) f3).(g1 (c.a))          W3: (d.b)*(c.a)
    if any(v.axiom == "vcomp-assoc" for v in out):
        hcomp2 = bic.hcomp2
        for a in sorted_cells:  # a: f1 => f2
            f1, f2 = cells[a]
            for c in cells_from(f2):  # c: f2 => f3
                ca = vcomp[(c, a)]
                for b in out_cells(arrows[f1][1]):  # b: g1 => g2
                    ba = hcomp2(b, a)
                    for d in cells_from(cells[b][1]):  # d: g2 => g3
                        lhs = vcomp[(hcomp2(d, c), ba)]
                        rhs = hcomp2(vcomp[(d, b)], ca)
                        if lhs != rhs:
                            add(Violation("H2", (d, c, b, a), left=lhs, right=rhs))

    # unitors: typing, invertibility, naturality
    unitors_identity = units_hold
    for f in sorted_arrows:
        x, y = arrows[f]
        lam = bic.lunitor.get(f)
        rho = bic.runitor.get(f)
        if lam != idc[f] or rho != idc[f]:
            unitors_identity = False
        fid = hcomp1[(f, id1[x])]
        idf = hcomp1[(id1[y], f)]
        if lam is None or lam not in cells:
            add(Violation("unitor-missing", (f, "lambda")))
        elif cells[lam] != (fid, f):
            add(Violation("unitor-typing", (f, "lambda"), left=lam))
        elif not bic.is_invertible(lam):
            add(Violation("unitor-invertible", (f, "lambda"), left=lam))
        if rho is None or rho not in cells:
            add(Violation("unitor-missing", (f, "rho")))
        elif cells[rho] != (idf, f):
            add(Violation("unitor-typing", (f, "rho"), left=rho))
        elif not bic.is_invertible(rho):
            add(Violation("unitor-invertible", (f, "rho"), left=rho))
    if any(v.axiom.startswith("unitor") for v in out):
        return ValidationReport(tuple(out))
    lunitor, runitor = bic.lunitor, bic.runitor
    if unitors_identity:
        # lam_f = rho_f = id_f: the squares are a*id_x = a and id_y*a = a
        for a in sweep:
            x, y = arrows[cells[a][0]]
            lhs = rwhisk[(a, id1[x])]
            if lhs != a:
                add(Violation("Nlambda", (a,), left=lhs, right=a))
            lhs = lwhisk[(id1[y], a)]
            if lhs != a:
                add(Violation("Nrho", (a,), left=lhs, right=a))
    else:
        for a in sweep:
            f, g = cells[a]
            x, y = arrows[f]
            lhs = vcomp[(lunitor[g], rwhisk[(a, id1[x])])]
            rhs = vcomp[(a, lunitor[f])]
            if lhs != rhs:
                add(Violation("Nlambda", (a,), left=lhs, right=rhs))
            lhs = vcomp[(runitor[g], lwhisk[(id1[y], a)])]
            rhs = vcomp[(a, runitor[f])]
            if lhs != rhs:
                add(Violation("Nrho", (a,), left=lhs, right=rhs))

    # associator: typing, invertibility, naturality, pentagon, triangle; one
    # walk of the triples also files strict-assoc and strict-assoc-cell
    strict, identity_cells = bic.strict, bic._identity_cells
    strict_assoc_out: list[Violation] = []
    assoc_identity = True  # until a triple does not pass at once, which needs vcomp-unit
    for h, g in bic.composable_arrow_pairs():
        hg = hcomp1[(h, g)]
        for f in in_arrows(arrows[g][0]):
            th = assoc.get((h, g, f))
            src = hcomp1[(h, hcomp1[(g, f)])]
            dst = hcomp1[(hg, f)]
            if units_hold and src == dst and th == idc[src]:
                continue
            assoc_identity = False
            if th is None or th not in cells:
                add(Violation("assoc-missing", (h, g, f)))
            elif cells[th] != (src, dst):
                add(Violation("assoc-typing", (h, g, f), left=th))
            elif not bic.is_invertible(th):
                add(Violation("assoc-invertible", (h, g, f), left=th))
            if not strict:
                continue
            if src != dst:
                strict_assoc_out.append(Violation("strict-assoc", (h, g, f)))
            elif th not in identity_cells:
                strict_assoc_out.append(Violation("strict-assoc-cell", (h, g, f)))
    if any(v.axiom.startswith("assoc") for v in out):
        return ValidationReport(tuple(out))

    if assoc_identity:
        # every theta is id_s: the squares are whiskering laws
        for a in sweep:
            for g in out_arrows(arrows[cells[a][0]][1]):
                ga = lwhisk[(g, a)]
                for h in out_arrows(arrows[g][1]):
                    lhs = lwhisk[(h, ga)]
                    rhs = lwhisk[(hcomp1[(h, g)], a)]
                    if lhs != rhs:
                        add(Violation("Ntheta1", (h, g, a), left=lhs, right=rhs))
        for b in sweep:
            x, y = arrows[cells[b][0]]
            for f in in_arrows(x):
                bf = rwhisk[(b, f)]
                for h in out_arrows(y):
                    lhs = lwhisk[(h, bf)]
                    rhs = rwhisk[(lwhisk[(h, b)], f)]
                    if lhs != rhs:
                        add(Violation("Ntheta2", (h, b, f), left=lhs, right=rhs))
        for c in sweep:
            for g in in_arrows(arrows[cells[c][0]][0]):
                cg = rwhisk[(c, g)]
                for f in in_arrows(arrows[g][0]):
                    lhs = rwhisk[(c, hcomp1[(g, f)])]
                    rhs = rwhisk[(cg, f)]
                    if lhs != rhs:
                        add(Violation("Ntheta3", (c, g, f), left=lhs, right=rhs))
    else:
        for a in sweep:
            f1, f2 = cells[a]
            for g in out_arrows(arrows[f1][1]):
                for h in out_arrows(arrows[g][1]):
                    lhs = vcomp[(assoc[(h, g, f2)], lwhisk[(h, lwhisk[(g, a)])])]
                    rhs = vcomp[(lwhisk[(hcomp1[(h, g)], a)], assoc[(h, g, f1)])]
                    if lhs != rhs:
                        add(Violation("Ntheta1", (h, g, a), left=lhs, right=rhs))
        for b in sweep:
            g1, g2 = cells[b]
            x, y = arrows[g1]
            for f in in_arrows(x):
                for h in out_arrows(y):
                    lhs = vcomp[(assoc[(h, g2, f)], lwhisk[(h, rwhisk[(b, f)])])]
                    rhs = vcomp[(rwhisk[(lwhisk[(h, b)], f)], assoc[(h, g1, f)])]
                    if lhs != rhs:
                        add(Violation("Ntheta2", (h, b, f), left=lhs, right=rhs))
        for c in sweep:
            h1, h2 = cells[c]
            for g in in_arrows(arrows[h1][0]):
                for f in in_arrows(arrows[g][0]):
                    gf = hcomp1[(g, f)]
                    lhs = vcomp[(assoc[(h2, g, f)], rwhisk[(c, gf)])]
                    rhs = vcomp[(rwhisk[(rwhisk[(c, g)], f)], assoc[(h1, g, f)])]
                    if lhs != rhs:
                        add(Violation("Ntheta3", (c, g, f), left=lhs, right=rhs))

    # strictness, when claimed; reported after the triangle
    strict_out: list[Violation] = []
    if strict:
        for f in sorted_arrows:
            x, y = arrows[f]
            if hcomp1[(f, id1[x])] != f or hcomp1[(id1[y], f)] != f:
                strict_out.append(Violation("strict-unital", (f,)))
            if lunitor[f] != idc[f] or runitor[f] != idc[f]:
                strict_out.append(Violation("strict-unitors", (f,)))
        strict_out += strict_assoc_out

    # pentagon and triangle; on a strict table they can fail only beside a premise
    if not strict or strict_out or not units_hold:
        for k in sorted_arrows:
            for h in in_arrows(arrows[k][0]):
                kh = hcomp1[(k, h)]
                for g in in_arrows(arrows[h][0]):
                    hg = hcomp1[(h, g)]
                    for f in in_arrows(arrows[g][0]):
                        gf = hcomp1[(g, f)]
                        lhs = vcomp[(assoc[(kh, g, f)], assoc[(k, h, gf)])]
                        rhs = vcomp[
                            (
                                rwhisk[(assoc[(k, h, g)], f)],
                                vcomp[(assoc[(k, hg, f)], lwhisk[(k, assoc[(h, g, f)])])],
                            )
                        ]
                        if lhs != rhs:
                            add(Violation("pentagon", (k, h, g, f), left=lhs, right=rhs))

        for g, f in bic.composable_arrow_pairs():
            y = arrows[f][1]
            lhs = vcomp[(rwhisk[(lunitor[g], f)], assoc[(g, id1[y], f)])]
            rhs = lwhisk[(g, runitor[f])]
            if lhs != rhs:
                add(Violation("triangle", (g, f), left=lhs, right=rhs))
    out += strict_out

    return ValidationReport(tuple(out))


class _SetOnFirstRead:
    """A method read as an attribute: the first read computes the value and
    sets it on the instance, where later reads find it.  Unlike
    `functools.cached_property`, which writes through ``__dict__`` and so
    makes CPython 3.11 give up the instance's inline attribute values, it
    leaves every later attribute read of the instance as fast as before."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = self.compute(instance)
        setattr(instance, self.name, value)
        return value


class PseudofunctorData:
    """Maps between tabulated bicategories plus structural cells xi and phi.

    xi[x] is a target cell id_{FX} => F(id_X); phi[(g, f)] is a target cell
    Fg * Ff => F(g*f), one per composable source pair.  A 2-functor is the
    special case where every xi and phi entry is an identity cell.  The
    constructor fills in and checks the entries a document leaves implicit;
    `two_functor` builds a 2-functor from its maps alone, and its xi and phi
    are read off the cell map when first asked for.
    """

    def __init__(
        self,
        name: str,
        source: Bicategory,
        target: Bicategory,
        obj_map: dict[str, str],
        arr_map: dict[str, str],
        cell_map: dict[str, str],
        xi: dict[str, str] | None = None,
        phi: dict[tuple[str, str], str] | None = None,
    ) -> None:
        self.name = name
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)
        self.cell_map = dict(cell_map)
        self.xi = dict(xi or {})
        self.phi = dict(phi or {})
        if all(map(self.xi.__contains__, source.objects)) and all(
            map(self.phi.__contains__, source.composable_arrow_pairs())
        ):
            return
        try:
            self._fill_implicit_structure()
        except KeyError as exc:
            raise StructureError(
                f"{name}: {exc.args[0]!r} is unmapped or unknown"
            ) from None

    def _fill_implicit_structure(self) -> None:
        """Identity structural cells may be left implicit when well-typed."""
        name, source, target = self.name, self.source, self.target
        for x in source.objects:
            if x not in self.xi:
                fx = self.obj_map[x]
                fid = self.arr_map[source.id1[x]]
                if fid != target.id1[fx]:
                    raise StructureError(
                        f"{name}: xi[{x}] required, F(id_{x}) is not id_{{F{x}}}",
                        (source.id1[x],),
                    )
                self.xi[x] = target.idc[target.id1[fx]]
        for g, f in source.composable_arrow_pairs():
            if (g, f) not in self.phi:
                gf = source.hcomp1[(g, f)]
                lhs = target.hcomp1.get((self.arr_map[g], self.arr_map[f]))
                rhs = self.arr_map[gf]
                if lhs != rhs:
                    raise StructureError(
                        f"{name}: phi[({g}, {f})] required, F{g} * F{f} != F({g}*{f})",
                        (g, f, gf),
                    )
                self.phi[(g, f)] = target.idc[rhs]

    @classmethod
    def two_functor(
        cls,
        name: str,
        source: Bicategory,
        target: Bicategory,
        obj_map: dict[str, str],
        arr_map: dict[str, str],
        cell_map: dict[str, str],
    ) -> PseudofunctorData:
        """The 2-functor with these maps, whose xi and phi are computed from
        the cell map the first time they are read.  The caller makes sure
        that every composable pair of source arrows has a composite and that
        F(id_x) = id_{Fx} and Fg * Ff = F(g*f), as `enumerate_2functors` does,
        so that each xi and phi entry is the identity cell it reads."""
        fun = cls.__new__(cls)
        fun.name, fun.source, fun.target = name, source, target
        fun.obj_map, fun.arr_map, fun.cell_map = dict(obj_map), dict(arr_map), dict(cell_map)
        return fun

    # `__init__` sets xi and phi on the instance, so these run only for a
    # `two_functor`: F(id_{id_x}) = id_{F(id_x)} and F(id_{g*f}) = id_{F(g*f)}
    @_SetOnFirstRead
    def xi(self) -> dict[str, str]:
        c = self.source
        return {x: self.cell_map[c.idc[c.id1[x]]] for x in c.objects}

    @_SetOnFirstRead
    def phi(self) -> dict[tuple[str, str], str]:
        c = self.source
        return {gf: self.cell_map[c.idc[c.hcomp1[gf]]] for gf in c.composable_arrow_pairs()}

    def __repr__(self) -> str:
        return f"PseudofunctorData({self.name!r}: {self.source.name} -> {self.target.name})"

    @property
    def is_2functor(self) -> bool:
        t = self.target
        return all(t.is_identity_cell(c) for c in self.xi.values()) and all(
            t.is_identity_cell(c) for c in self.phi.values()
        )


def validate_pseudofunctor(fun: PseudofunctorData) -> ValidationReport:
    """Check hom-functoriality plus the unit, composition and naturality axioms."""
    out: list[Violation] = []
    add = out.append
    c, d = fun.source, fun.target

    for x in c.objects:
        if fun.obj_map.get(x) not in d.objects:
            add(Violation("map-obj", (x,)))
    for f, (x, y) in sorted(c.arrows.items()):
        ff = fun.arr_map.get(f)
        if ff is None or ff not in d.arrows:
            add(Violation("map-arr", (f,)))
        elif d.arrows[ff] != (fun.obj_map[x], fun.obj_map[y]):
            add(Violation("map-arr-typing", (f, ff)))
    for a, (f, g) in sorted(c.cells.items()):
        fa = fun.cell_map.get(a)
        if fa is None or fa not in d.cells:
            add(Violation("map-cell", (a,)))
        elif d.cells[fa] != (fun.arr_map[f], fun.arr_map[g]):
            add(Violation("map-cell-typing", (a, fa)))
    if out:
        return ValidationReport(tuple(out))

    # hom-functoriality
    for f in sorted(c.arrows):
        if fun.cell_map[c.idc[f]] != d.idc[fun.arr_map[f]]:
            add(
                Violation(
                    "hom-functor-id",
                    (f,),
                    left=fun.cell_map[c.idc[f]],
                    right=d.idc[fun.arr_map[f]],
                )
            )
    for (b, a), r in sorted(c.vcomp.items()):
        lhs = d.vcomp.get((fun.cell_map[b], fun.cell_map[a]))
        rhs = fun.cell_map[r]
        if lhs != rhs:
            add(Violation("hom-functor-vcomp", (b, a), left=str(lhs), right=rhs))

    # structural cells: typing and invertibility
    for x in c.objects:
        xi = fun.xi.get(x)
        fx = fun.obj_map[x]
        want = (d.id1[fx], fun.arr_map[c.id1[x]])
        if xi is None or xi not in d.cells or d.cells[xi] != want:
            add(Violation("xi-typing", (x,), left=str(xi)))
        elif not d.is_invertible(xi):
            add(Violation("xi-invertible", (x,), left=xi))
    for g, f in c.composable_arrow_pairs():
        ph = fun.phi.get((g, f))
        src = d.hcomp1.get((fun.arr_map[g], fun.arr_map[f]))
        want = (src, fun.arr_map[c.hcomp1[(g, f)]])
        if ph is None or ph not in d.cells or src is None or d.cells[ph] != want:
            add(Violation("phi-typing", (g, f), left=str(ph)))
        elif not d.is_invertible(ph):
            add(Violation("phi-invertible", (g, f), left=ph))
    if out:
        return ValidationReport(tuple(out))

    # P1/P2: unit coherence (lambda/rho corrected in the non-strict case)
    for f, (x, y) in sorted(c.arrows.items()):
        ff = fun.arr_map[f]
        lhs = d.vertical_chain(
            [
                d.whisker_l(ff, fun.xi[x]),
                fun.phi[(f, c.id1[x])],
                fun.cell_map[c.lunitor[f]],
            ]
        )
        if lhs != d.lunitor[ff]:
            add(Violation("P1", (f,), left=lhs, right=d.lunitor[ff]))
        lhs = d.vertical_chain(
            [
                d.whisker_r(fun.xi[y], ff),
                fun.phi[(c.id1[y], f)],
                fun.cell_map[c.runitor[f]],
            ]
        )
        if lhs != d.runitor[ff]:
            add(Violation("P2", (f,), left=lhs, right=d.runitor[ff]))

    # P3: composition coherence across triples
    for h, g, f in c.composable_arrow_triples():
        fh, fg, ff = fun.arr_map[h], fun.arr_map[g], fun.arr_map[f]
        lhs = d.vertical_chain(
            [
                d.assoc[(fh, fg, ff)],
                d.whisker_r(fun.phi[(h, g)], ff),
                fun.phi[(c.hcomp1[(h, g)], f)],
            ]
        )
        rhs = d.vertical_chain(
            [
                d.whisker_l(fh, fun.phi[(g, f)]),
                fun.phi[(h, c.hcomp1[(g, f)])],
                fun.cell_map[c.assoc[(h, g, f)]],
            ]
        )
        if lhs != rhs:
            add(Violation("P3", (h, g, f), left=lhs, right=rhs))

    # Nphi: phi is natural in both cells
    for a in sorted(c.cells):
        f1, f2 = c.cells[a]
        for b in c.out_cells(c.arrow_dst(f1)):
            g1, g2 = c.cells[b]
            lhs = d.vertical(
                fun.cell_map[c.hcomp2(b, a)], fun.phi[(g1, f1)]
            )
            rhs = d.vertical(
                fun.phi[(g2, f2)], d.hcomp2(fun.cell_map[b], fun.cell_map[a])
            )
            if lhs != rhs:
                add(Violation("Nphi", (b, a), left=lhs, right=rhs))

    return ValidationReport(tuple(out))


def comp_sub_f(
    fun: PseudofunctorData,
    beta: str,
    alpha: str,
    g1: str,
    f1: str,
    g2: str,
    f2: str,
) -> str:
    """The composite F(g1*f1) => F(g2*f2) conjugating beta * alpha by phi."""
    c, d = fun.source, fun.target
    for g, f in ((g1, f1), (g2, f2)):
        if (g, f) not in c.hcomp1:
            raise StructureError(f"{fun.name}: source pair ({g}, {f}) not composable")
    if d.cells.get(alpha) != (fun.arr_map[f1], fun.arr_map[f2]):
        raise StructureError(f"{fun.name}: alpha {alpha} is not F{f1} => F{f2}")
    if d.cells.get(beta) != (fun.arr_map[g1], fun.arr_map[g2]):
        raise StructureError(f"{fun.name}: beta {beta} is not F{g1} => F{g2}")
    phi_in = d.inverse(fun.phi[(g1, f1)])
    if phi_in is None:
        raise StructureError(f"{fun.name}: phi[({g1}, {f1})] is not invertible")
    return d.vertical_chain([phi_in, d.hcomp2(beta, alpha), fun.phi[(g2, f2)]])


class TransformationData:
    """Arrow family theta_X: FX -> GX plus cell family theta_f: Gf*theta_X => theta_Y*Ff."""

    def __init__(
        self,
        name: str,
        fun_from: PseudofunctorData,
        fun_to: PseudofunctorData,
        comp_obj: dict[str, str],
        comp_arr: dict[str, str],
    ) -> None:
        if fun_from.source is not fun_to.source or fun_from.target is not fun_to.target:
            raise StructureError(f"{name}: transformation endpoints disagree")
        self.name = name
        self.fun_from = fun_from
        self.fun_to = fun_to
        self.comp_obj = dict(comp_obj)
        self.comp_arr = dict(comp_arr)


def validate_transformation(tr: TransformationData) -> ValidationReport:
    out: list[Violation] = []
    add = out.append
    f_, g_ = tr.fun_from, tr.fun_to
    c, d = f_.source, f_.target
    if not (c.strict and d.strict):
        return ValidationReport((Violation("strictness-required", (tr.name,)),))

    for x in c.objects:
        t = tr.comp_obj.get(x)
        if t is None or t not in d.arrows or d.arrows[t] != (f_.obj_map[x], g_.obj_map[x]):
            add(Violation("transf-obj-typing", (x,), left=str(t)))
    if out:
        return ValidationReport(tuple(out))
    for f, (x, y) in sorted(c.arrows.items()):
        t = tr.comp_arr.get(f)
        src = d.hcomp1[(g_.arr_map[f], tr.comp_obj[x])]
        dst = d.hcomp1[(tr.comp_obj[y], f_.arr_map[f])]
        if t is None or t not in d.cells or d.cells[t] != (src, dst):
            add(Violation("transf-arr-typing", (f,), left=str(t)))
        elif not d.is_invertible(t):
            add(Violation("transf-arr-invertible", (f,), left=t))
    if out:
        return ValidationReport(tuple(out))

    # PN0: unit compatibility
    for x in c.objects:
        tx = tr.comp_obj[x]
        lhs = d.whisker_l(tx, f_.xi[x])
        rhs = d.vertical(tr.comp_arr[c.id1[x]], d.whisker_r(g_.xi[x], tx))
        if lhs != rhs:
            add(Violation("PN0", (x,), left=lhs, right=rhs))

    # PN1: composition compatibility
    for g, f in c.composable_arrow_pairs():
        x = c.arrow_src(f)
        z = c.arrow_dst(g)
        tz = tr.comp_obj[z]
        lhs = d.vertical_chain(
            [
                d.whisker_l(g_.arr_map[g], tr.comp_arr[f]),
                d.whisker_r(tr.comp_arr[g], f_.arr_map[f]),
                d.whisker_l(tz, f_.phi[(g, f)]),
            ]
        )
        rhs = d.vertical_chain(
            [
                d.whisker_r(g_.phi[(g, f)], tr.comp_obj[x]),
                tr.comp_arr[c.hcomp1[(g, f)]],
            ]
        )
        if lhs != rhs:
            add(Violation("PN1", (g, f), left=lhs, right=rhs))

    # PN2: naturality in cells
    for a, (f, g) in sorted(c.cells.items()):
        x, y = c.arrows[f]
        lhs = d.vertical(
            tr.comp_arr[g], d.whisker_r(g_.cell_map[a], tr.comp_obj[x])
        )
        rhs = d.vertical(
            d.whisker_l(tr.comp_obj[y], f_.cell_map[a]), tr.comp_arr[f]
        )
        if lhs != rhs:
            add(Violation("PN2", (a,), left=lhs, right=rhs))

    return ValidationReport(tuple(out))


class ModificationData:
    """Cell family rho_X: theta_X => eta_X between parallel transformations."""

    def __init__(
        self,
        name: str,
        theta: TransformationData,
        eta: TransformationData,
        comp: dict[str, str],
    ) -> None:
        if theta.fun_from is not eta.fun_from or theta.fun_to is not eta.fun_to:
            raise StructureError(f"{name}: modification endpoints disagree")
        self.name = name
        self.theta = theta
        self.eta = eta
        self.comp = dict(comp)


def validate_modification(mod: ModificationData) -> ValidationReport:
    out: list[Violation] = []
    add = out.append
    theta, eta = mod.theta, mod.eta
    f_, g_ = theta.fun_from, theta.fun_to
    c, d = f_.source, f_.target
    if not (c.strict and d.strict):
        return ValidationReport((Violation("strictness-required", (mod.name,)),))

    for x in c.objects:
        r = mod.comp.get(x)
        want = (theta.comp_obj[x], eta.comp_obj[x])
        if r is None or r not in d.cells or d.cells[r] != want:
            add(Violation("modif-typing", (x,), left=str(r)))
    if out:
        return ValidationReport(tuple(out))

    for f, (x, y) in sorted(c.arrows.items()):
        lhs = d.vertical(
            d.whisker_r(mod.comp[y], f_.arr_map[f]), theta.comp_arr[f]
        )
        rhs = d.vertical(
            eta.comp_arr[f], d.whisker_l(g_.arr_map[f], mod.comp[x])
        )
        if lhs != rhs:
            add(Violation("PM", (f,), left=lhs, right=rhs))

    return ValidationReport(tuple(out))


def identity_pseudofunctor(bic: Bicategory) -> PseudofunctorData:
    return PseudofunctorData(
        name=f"id[{bic.name}]",
        source=bic,
        target=bic,
        obj_map={x: x for x in bic.objects},
        arr_map={f: f for f in bic.arrows},
        cell_map={a: a for a in bic.cells},
    )
