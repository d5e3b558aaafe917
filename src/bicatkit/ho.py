"""The homotopy bicategory of a pair (bicategory, marked class).

2-cells are finite composable sequences of homotopy terms modulo the relation
"every admissible 2-functor evaluates both sides to the same target cell".
That relation quantifies over all functors, so equality is decided three-ways:

* Equal   -- both sequences normalize, under a fixed set of class-preserving
             rewrite rules, to the same canonical term list.  Every rule
             carries the algebraic law that justifies it into the trace.
* Distinct-- some probe (an admissible 2-functor into a finite target)
             evaluates the two sides to different cells; the first such
             probe is reported.  A probe's value on a side, ``probe_value``,
             is its image of the side's hat in the source when every
             cylinder's marked arrow is a quasiequivalence there, and
             otherwise the composite of its own hats of the terms.
* Unknown -- neither; an honest outcome, reported with exit code 2 by the CLI.

``separations`` is the one walk that compares probe values: the decider
reports its first item, and certificate replay lists every item for a
witness side against the identity.  Sides whose source hats exist and are
equal get one value from every probe, so the walk evaluates none.

When every marked arrow is a quasiequivalence, the identity 2-functor is
admissible, so sides with different source hats are distinct classes; the
rewrites are sound, so they cannot join them and ``ho_eq`` skips them.

Sequences are stored first-applied-first.
"""
from __future__ import annotations

from functools import partial
from itertools import filterfalse, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import (
    Bicategory,
    PseudofunctorData,
    StructureError,
    comp_sub_f,
    validate_pseudofunctor,
)
from .homotopy import (
    HomotopyTerm,
    Homotopy,
    ICell,
    LemmaOrigin,
    TransformOrigin,
    compose_lemma,
    cylinder_homotopy,
    f_hat,
    hat,
    identity_cylinder,
    inverse_cylinder,
    make_cylinder,
    make_homotopy,
    transform_homotopy,
)
from .sigma import SigmaClass, is_quasiequivalence


class HoCell(NamedTuple):
    """A 2-cell of the homotopy bicategory: a composable term sequence."""

    sigma: SigmaClass
    f: str
    g: str
    terms: tuple[HomotopyTerm, ...]

    @property
    def bic(self) -> Bicategory:
        return self.sigma.bic

    def __str__(self) -> str:
        if not self.terms:
            return f"id[{self.f}]"
        names = []
        for t in reversed(self.terms):
            names.append(f"I({t.cell})" if isinstance(t, ICell) else f"H({t.f}=>{t.g})")
        return "[" + ", ".join(names) + "]"

    def to_json(self) -> dict:
        return {
            "f": self.f,
            "g": self.g,
            "terms": [t.to_json() for t in self.terms],
        }


def ho_cell(
    sigma: SigmaClass,
    terms: list[HomotopyTerm] | tuple[HomotopyTerm, ...],
    f: str | None = None,
    g: str | None = None,
) -> HoCell:
    bic = sigma.bic
    terms = tuple(terms)
    if not terms:
        if f is None or f != g:
            raise StructureError("an empty sequence needs equal endpoints f == g")
        if f not in bic.arrows:
            raise StructureError(f"unknown arrow {f!r}")
        return HoCell(sigma, f, f, ())
    prev: str | None = None
    for t in terms:
        if t.bic is not bic:
            raise StructureError("term lives in a different bicategory")
        if isinstance(t, Homotopy) and t.cyl.s not in sigma:
            raise StructureError(
                f"homotopy cylinder arrow {t.cyl.s!r} is not in the marked class"
            )
        if prev is not None and t.f != prev:
            raise StructureError(f"terms do not chain at {t.f!r} (expected {prev!r})")
        prev = t.g
    first, last = terms[0].f, terms[-1].g
    if f is not None and f != first or g is not None and g != last:
        raise StructureError("declared endpoints disagree with the terms")
    return HoCell(sigma, first, last, terms)


def ho_identity(sigma: SigmaClass, f: str) -> HoCell:
    return ho_cell(sigma, (), f, f)


def i_cell(sigma: SigmaClass, mu: str) -> HoCell:
    """Projection of a bicategory cell; identity cells project to the empty
    sequence (the identity class)."""
    bic = sigma.bic
    if mu not in bic.cells:
        raise StructureError(f"unknown cell {mu!r}")
    if bic.is_identity_cell(mu):
        return ho_identity(sigma, bic.cell_src(mu))
    return ho_cell(sigma, (ICell(bic, mu),))


def ho_vcomp(k2: HoCell, k1: HoCell) -> HoCell:
    """Juxtaposition: k2 after k1."""
    if k2.sigma != k1.sigma:
        raise StructureError("cells live over different marked classes")
    if k1.g != k2.f:
        raise StructureError(f"cells do not chain: {k1.g!r} vs {k2.f!r}")
    return ho_cell(k1.sigma, k1.terms + k2.terms, k1.f, k2.g)


def ho_whisk(side: str, arrow: str, k: HoCell) -> HoCell:
    """Elementwise whiskering of the term sequence by an arrow."""
    bic = k.bic
    if side not in ("left", "right"):
        raise StructureError(f"whisker side must be left or right, not {side!r}")
    if arrow not in bic.arrows:
        raise StructureError(f"unknown arrow {arrow!r}")
    kind = "lwhisk" if side == "left" else "rwhisk"
    out: list[HomotopyTerm] = []
    for t in k.terms:
        if isinstance(t, ICell):
            val = (
                bic.whisker_l(arrow, t.cell)
                if side == "left"
                else bic.whisker_r(t.cell, arrow)
            )
            out.append(ICell(bic, val))
        else:
            out.append(transform_homotopy(kind, arrow, t))
    if side == "left":
        f, g = bic.compose1(arrow, k.f), bic.compose1(arrow, k.g)
    else:
        f, g = bic.compose1(k.f, arrow), bic.compose1(k.g, arrow)
    return ho_cell(k.sigma, out, f, g)


def ho_inverse(k: HoCell) -> HoCell:
    """Formal inverse: reversed sequence of inverted terms.  Defined when every
    term has invertible cells."""
    bic = k.bic
    out: list[HomotopyTerm] = []
    for t in reversed(k.terms):
        if isinstance(t, ICell):
            inv = bic.inverse(t.cell)
            if inv is None:
                raise StructureError(f"cell {t.cell!r} is not invertible")
            out.append(ICell(bic, inv))
        else:
            out.append(transform_homotopy("invert", "", t))
    return ho_cell(k.sigma, out, k.g, k.f)


def require_json(value: object, shape: object, where: str = "") -> None:
    """Raise a StructureError naming the first field where value departs from
    shape.  A shape is a type, a one-element list (a list of that shape) or a
    dict (an object with exactly those keys: a missing or mistyped field is
    named first, then the first unknown one)."""
    if isinstance(shape, dict) and type(value) is dict:
        for key, sub in shape.items():
            path = f"{where}.{key}" if where else key
            if key not in value:
                raise StructureError(f"field {path!r} is missing")
            require_json(value[key], sub, path)
        for key in value:
            if key not in shape:
                path = f"{where}.{key}" if where else key
                raise StructureError(f"field {path!r} is unknown")
    elif isinstance(shape, list) and type(value) is list:
        for i, item in enumerate(value):
            require_json(item, shape[0], f"{where}[{i}]")
    elif type(value) is not shape:
        raise StructureError(f"field {where!r} has the wrong type")


HOCELL_JSON = {"f": str, "g": str, "terms": [dict]}
_ICELL_JSON = {"kind": str, "cell": str}
_CYLINDER_JSON = dict.fromkeys(("d0", "d1", "x", "s", "alpha0", "alpha1"), str)
_HOMOTOPY_JSON = {"cylinder": _CYLINDER_JSON, "h": str, "eta": str, "eps": str}


def hocell_from_json(sigma: SigmaClass, data: dict, where: str = "hocell") -> HoCell:
    """The HoCell that to_json stored; StructureError names a field that is
    missing, mistyped or unknown to the bicategory, under ``where``."""
    bic = sigma.bic
    require_json(data, HOCELL_JSON, where)
    terms: list[HomotopyTerm] = []
    for i, td in enumerate(data["terms"]):
        at = f"{where}.terms[{i}]"
        if td.get("kind") == "icell":
            require_json(td, _ICELL_JSON, at)
            if td["cell"] not in bic.cells:
                raise StructureError(f"{at}: unknown cell {td['cell']!r}")
            terms.append(ICell(bic, td["cell"]))
            continue
        require_json(td, _HOMOTOPY_JSON, at)
        # the stored cylinder fields are make_cylinder's parameter names
        cyl = make_cylinder(bic, **{k: td["cylinder"][k] for k in _CYLINDER_JSON}, sigma=sigma)
        terms.append(make_homotopy(cyl, td["h"], td["eta"], td["eps"]))
    return ho_cell(sigma, terms, data["f"], data["g"])


# -- probes -----------------------------------------------------------------


class ProbeSet(NamedTuple):
    probes: tuple[PseudofunctorData, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.probes)


def make_probe_set(sigma: SigmaClass, functors: list[PseudofunctorData]) -> ProbeSet:
    """Validate the probe side conditions: 2-functors out of the marked pair
    whose marked images are quasiequivalences."""
    for fun in functors:
        if fun.source is not sigma.bic:
            raise StructureError(f"probe {fun.name!r} has the wrong source")
        if not fun.is_2functor:
            raise StructureError(f"probe {fun.name!r} is not a 2-functor")
        if not validate_pseudofunctor(fun).ok:
            raise StructureError(f"probe {fun.name!r} fails validation")
        _require_admissible(fun, sigma)
    return ProbeSet(tuple(functors))


def _require_admissible(fun: PseudofunctorData, sigma: SigmaClass) -> None:
    """Raise unless fun sends every marked arrow to a quasiequivalence."""
    for s in sigma.sorted_members():
        if not is_quasiequivalence(fun.target, fun.arr_map[s]):
            raise StructureError(
                f"{fun.name!r} sends {s!r} outside the quasiequivalences"
            )


def enumerate_2functors(src: Bicategory, dst: Bicategory) -> list[PseudofunctorData]:
    """All 2-functors between two finite tabulated bicategories, both of which
    must pass `validate_bicategory`.

    The search is depth first with one level per image it searches for: the
    objects in order, each over the target's objects; the sorted non-identity
    arrows, each over its hom; the sorted non-identity cells, each over its
    cells, candidates in the target's index order.  Each constraint is
    checked as soon as the last image it reads is bound (forward checking): a
    non-identity arrow's hom must have a candidate, and each source table
    entry must hold, `hcomp1`, `vcomp`, the whiskers and, unless both sides
    are strict, the unitors and associators.  A branch thus ends at its first
    broken constraint.  An image whose level would list one candidate is set
    to it instead, with no level of its own, as soon as the images it is a
    function of are bound, so the results, in their order, are still those
    of checking complete maps only.  The images set so are:

    * identities, with their owners: F(id_x) = id_{F x} when x is bound, and
      F(id_f) = id_{F f} when f is;
    * on an arrow-thin target, one whose every hom has at most one arrow, a
      non-identity arrow f : x -> y with the later of x and y, since F f is
      the one arrow F x -> F y; an empty hom ends the branch, which is the
      hom check of (x, y);
    * on a thin target, arrow-thin with at most one cell between two parallel
      arrows, a non-identity cell a : f => g with f and g: F f and F g are
      parallel, so equal, and the one cell between them is id_{F f}.

    Every entry of a valid source is well typed, so an entry holds on every
    branch, and is not checked, when the target settles it: an `hcomp1` entry
    when the target is arrow-thin, since both of its sides lie in one hom; a
    `vcomp` or whisker entry when each pair of parallel target arrows has at
    most one cell, since both of its sides are parallel cells; a `vcomp` entry
    with an identity input, id_g . a = a or a . id_f = a, by the target's
    `vcomp-unit`; a whisker entry with an identity cell, g * id_f = id_{gf} or
    id_g * f = id_{gf}, by its `W2` and the `hcomp1` entry (g, f); and on a
    strict target an `hcomp1` entry f . id_x = f or id_y . f = f, by its
    `strict-unital`.  By the `hcomp1` entries, F(id_x) = id_{F x} and
    F g . F f = F(g f), so each result's xi and phi are identity cells: none
    is built here, and `PseudofunctorData.two_functor` reads them off the
    result's cell map when they are first asked for.  A source with a
    composable pair that has no composite has no phi to read, and the first
    result reports that pair."""
    objs = list(src.objects)
    id1, idc = src.id1, src.idc
    ids = set(id1.values())
    idcs = set(idc.values())
    found: list[PseudofunctorData] = []
    # the maps under construction, which the candidates and steps read; their
    # keys stand in one order, whichever level sets them: the objects, the
    # identity arrows in object order and then the sorted non-identity arrows,
    # those arrows' identity cells and then the sorted non-identity cells
    arrows = [id1[x] for x in objs] + sorted(set(src.arrows) - ids)
    omap: dict[str, str] = dict.fromkeys(objs)
    amap: dict[str, str] = dict.fromkeys(arrows)
    cmap: dict[str, str] = dict.fromkeys([idc[f] for f in arrows] + sorted(set(src.cells) - idcs))
    # one level per image searched for; under each, the steps that set the
    # images it forces, then the checks it completes, each false on failure
    levels: list[tuple[dict[str, str], str, Callable[[], Iterable[str]]]] = []
    steps: list[list[Callable[[], bool]]] = []
    at: dict[tuple[str, str], int] = {}

    def level(images: dict[str, str], x: str, space: str, candidates) -> None:
        at[space, x] = len(levels)
        levels.append((images, x, candidates))
        steps.append([])

    def file(reads: Iterable[tuple[str, str]], step: Callable[[], bool], *sets: tuple[str, str]):
        """File step under the last level it reads, which binds what it sets."""
        i = max(map(at.__getitem__, reads))
        steps[i].append(step)
        at.update(dict.fromkeys(sets, i))

    # the steps that set images, each true but `only_arrow`
    def unit(x: str, i: str, u: str) -> bool:
        amap[i] = g = dst.id1[omap[x]]
        cmap[u] = dst.idc[g]
        return True

    def identity(u: str, f: str) -> bool:
        cmap[u] = dst.idc[amap[f]]
        return True

    homs = {ends: f for f, ends in dst.arrows.items()}  # an arrow of each non-empty hom
    thin_arrows = len(homs) == len(dst.arrows)
    thin_cells = len(set(dst.cells.values())) == len(dst.cells)

    def only_arrow(f: str, x: str, y: str, u: str) -> bool:
        """False when the hom is empty."""
        g = homs.get((omap[x], omap[y]))
        if g is None:
            return False
        amap[f] = g
        cmap[u] = dst.idc[g]
        return True

    for x in objs:
        i = id1[x]
        level(omap, x, "object", lambda: dst.objects)
        file([("object", x)], partial(unit, x, i, idc[i]), ("arrow", i), ("cell", idc[i]))
    for f, (x, y) in sorted(src.arrows.items()):
        if f in ids:
            continue
        if thin_arrows:
            file([("object", x), ("object", y)], partial(only_arrow, f, x, y, idc[f]),
                 ("arrow", f), ("cell", idc[f]))
        else:
            level(amap, f, "arrow", lambda x=x, y=y: dst.arrows_between(omap[x], omap[y]))
            file([("arrow", f)], partial(identity, idc[f], f), ("cell", idc[f]))
    for a, (f, g) in sorted(src.cells.items()):
        if a in idcs:
            continue
        if thin_arrows and thin_cells:
            file([("arrow", f), ("arrow", g)], partial(identity, a, f), ("cell", a))
        else:
            level(cmap, a, "cell", lambda f=f, g=g: dst.cells_between(amap[f], amap[g]))
    if not thin_arrows:
        for x, y in sorted({ends for f, ends in src.arrows.items() if f not in ids}):
            file([("object", x), ("object", y)],
                 lambda x=x, y=y: bool(dst.arrows_between(omap[x], omap[y])))
        for (g, f), c in src.hcomp1.items():
            if not (dst.strict and (g in ids and c == f or f in ids and c == g)):
                file([("arrow", g), ("arrow", f), ("arrow", c)],
                     lambda g=g, f=f, c=c: dst.hcomp1.get((amap[g], amap[f])) == amap[c])
    if not thin_cells:
        for (b, a), c in src.vcomp.items():
            if a not in idcs and b not in idcs:
                file([("cell", b), ("cell", a), ("cell", c)],
                     lambda b=b, a=a, c=c: dst.vcomp.get((cmap[b], cmap[a])) == cmap[c])
        for (g, a), c in src.lwhisk.items():
            if a not in idcs:
                file([("arrow", g), ("cell", a), ("cell", c)],
                     lambda g=g, a=a, c=c: dst.lwhisk.get((amap[g], cmap[a])) == cmap[c])
        for (a, f), c in src.rwhisk.items():
            if a not in idcs:
                file([("cell", a), ("arrow", f), ("cell", c)],
                     lambda a=a, f=f, c=c: dst.rwhisk.get((cmap[a], amap[f])) == cmap[c])
    if not src.strict or not dst.strict:
        for f in src.arrows:
            lam, rho = src.lunitor[f], src.runitor[f]
            file([("arrow", f), ("cell", lam)],
                 lambda f=f, lam=lam: cmap[lam] == dst.lunitor[amap[f]])
            file([("arrow", f), ("cell", rho)],
                 lambda f=f, rho=rho: cmap[rho] == dst.runitor[amap[f]])
        for (h, g, f), c in src.assoc.items():
            file([("arrow", h), ("arrow", g), ("arrow", f), ("cell", c)],
                 lambda h=h, g=g, f=f, c=c: cmap[c] == dst.assoc[(amap[h], amap[g], amap[f])])
    # a composable pair without a composite, which the first result reports
    # as PseudofunctorData reports an unmapped key
    hole = next(filterfalse(src.hcomp1.__contains__, src.composable_arrow_pairs()), None)

    def assign(i: int) -> None:
        if i == len(levels):
            name = f"{src.name}->{dst.name}#{len(found)}"
            if hole is not None:
                raise StructureError(f"{name}: {hole!r} is unmapped or unknown")
            found.append(PseudofunctorData.two_functor(
                name=name, source=src, target=dst, obj_map=omap, arr_map=amap, cell_map=cmap
            ))
            return
        images, x, candidates = levels[i]
        filed = steps[i]
        for cand in candidates():
            images[x] = cand
            for step in filed:
                if not step():
                    break
            else:
                assign(i + 1)

    assign(0)
    return found


def enumerate_probes(
    sigma: SigmaClass, targets: list[Bicategory], include_self: bool = True
) -> ProbeSet:
    """All 2-functors into the targets (plus the bicategory itself when its
    marked arrows are quasiequivalences) that satisfy the probe conditions."""
    src = sigma.bic
    all_targets = list(targets)
    if include_self and identity_is_admissible(sigma):
        if all(t is not src for t in all_targets):
            all_targets.append(src)
    probes: list[PseudofunctorData] = []
    for dst in all_targets:
        qe = {f for f in dst.arrows if is_quasiequivalence(dst, f)}
        probes += [
            fun for fun in enumerate_2functors(src, dst)
            if all(fun.arr_map[s] in qe for s in sigma.members)
        ]
    return ProbeSet(tuple(probes))


def identity_is_admissible(sigma: SigmaClass) -> bool:
    """Every marked arrow is a quasiequivalence in the source, so the identity
    2-functor is an admissible probe."""
    return all(is_quasiequivalence(sigma.bic, s) for s in sigma.members)


def f_hat_chain(fun: PseudofunctorData, k: HoCell) -> str:
    """Composite of the term images under a probe, in application order."""
    d = fun.target
    return d.vertical_chain(
        (f_hat(fun, t) for t in k.terms), on_arrow=fun.arr_map[k.f]
    )


def source_hat(k: HoCell) -> str | None:
    """k's hat chain in its own bicategory: the composite of its cells and of
    its homotopies' hats, in application order.  None when some cylinder's
    marked arrow is not a quasiequivalence there, so its hat need not exist."""
    bic = k.bic
    if any(isinstance(t, Homotopy) and not is_quasiequivalence(bic, t.cyl.s) for t in k.terms):
        return None
    return bic.vertical_chain(
        (t.cell if isinstance(t, ICell) else hat(bic, t) for t in k.terms), on_arrow=k.f
    )


def probe_value(fun: PseudofunctorData, k: HoCell, hat: str | None) -> str:
    """The one value rule: a validated admissible F sends k to F of ``hat``,
    k's ``source_hat``, when it exists, and otherwise to the composite of F's
    hats of k's terms (``f_hat``).  F sends each marked arrow s to a
    quasiequivalence, so when s is one in the source too, F of the source hat
    of a cylinder on s solves Fs * c = F(alpha_tilde) and is F's hat of it."""
    return f_hat_chain(fun, k) if hat is None else fun.cell_map[hat]


def separations(
    probes: ProbeSet, k1: HoCell, k2: HoCell, hats: tuple[str | None, str | None]
) -> Iterator[tuple[PseudofunctorData, str, str]]:
    """Each probe whose values on k1 and k2 differ, in probe order, with the
    two values, given the sides' source hats; each probe is evaluated when
    the walk reaches it.  Equal hats that exist give every probe F one value,
    F of that hat, on both sides, so then no probe is evaluated."""
    if hats[0] is not None and hats[0] == hats[1]:
        return
    for fun in probes.probes:
        v1, v2 = probe_value(fun, k1, hats[0]), probe_value(fun, k2, hats[1])
        if v1 != v2:
            yield fun, v1, v2


# -- the equality decider ----------------------------------------------------


LAWS = {
    "syntactic": "identical sequences denote the same class",
    "lemma-expand": "[H] = [H2, H1] under the gluing hypotheses",
    "post-split": "[mu o H] = [I(mu)] o [H]",
    "pre-split": "[H o nu] = [H] o [I(nu)]",
    "w1-exchange": "[K*f1, g2*H] = [g1*H, K*f2]",
    "decompose": "[H] = [I(eps)] o (h * [H^C]) o [I(eta)]",
    "icell-identity": "[I(id_f)] = id_f",
    "icell-merge": "[I(mu'), I(mu)] = [I(mu' o mu)]",
    "cylinder-cancel": "(h * [H^C]) o (h * [H^C^-1]) = id",
    "cylinder-identity": "[h*H^C] = id when d0 = d1 and alpha0 = alpha1 (hat is unique)",
}
"""The law each rule of the equality decider applies, keyed by rule id."""


class TraceStep(NamedTuple):
    """One rewrite of the decider; its law is its rule's entry in ``LAWS``,
    so the JSON carries the rule alone."""

    side: str
    rule: str
    detail: str

    @property
    def law(self) -> str:
        return LAWS[self.rule]

    def to_json(self) -> dict:
        return {"side": self.side, "rule": self.rule, "detail": self.detail}


class EqVerdict(NamedTuple):
    verdict: str  # equal | distinct | unknown
    trace: tuple[TraceStep, ...] = ()
    probe: str = ""
    left_value: str = ""
    right_value: str = ""

    @property
    def is_equal(self) -> bool:
        return self.verdict == "equal"

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.verdict == "equal":
            out["trace"] = [s.to_json() for s in self.trace]
        if self.verdict == "distinct":
            out["probe"] = self.probe
            out["left_value"] = self.left_value
            out["right_value"] = self.right_value
        return out


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
                trace.append(TraceStep(side, "lemma-expand", f"{t.f}=>{t.g}"))
                go(origin.h1)
                go(origin.h2)
                return
        if isinstance(origin, TransformOrigin) and origin.kind == "post":
            trace.append(TraceStep(side, "post-split", origin.arg))
            go(origin.base)
            go(ICell(t.bic, origin.arg))
            return
        if isinstance(origin, TransformOrigin) and origin.kind == "pre":
            trace.append(TraceStep(side, "pre-split", origin.arg))
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
    for _ in range(len(work) * len(work) + 1):
        steps = len(trace)
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
            trace.append(TraceStep(side, "w1-exchange", f"{k_hom.f}|{h_hom.g}"))
        if len(trace) == steps:
            break
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
        # identity eta and eps, as on every tautological homotopy
        if t.eta == bic.idc.get(bic.hcomp1.get((t.h, t.cyl.d0))) and (
            t.eps == bic.idc.get(bic.hcomp1.get((t.h, t.cyl.d1)))
        ):
            out.append(("cyl", t.h, t.cyl))
            continue
        trace.append(TraceStep(side, "decompose", f"{t.f}=>{t.g}"))
        out.append(("ci", t.eta))
        out.append(("cyl", t.h, t.cyl))
        out.append(("ci", t.eps))
    return out


def _pairwise(work: list[tuple], kind: str, rewrite) -> list[tuple]:
    """One left-to-right pass over adjacent items of ``kind``.  Where
    ``rewrite(a, b)`` returns a list, that list replaces the pair and the scan
    resumes after it, so a pass never rewrites an item twice; ``None`` keeps
    ``a``."""
    out: list[tuple] = []
    i = 0
    while i < len(work):
        if i + 1 < len(work) and work[i][0] == kind and work[i + 1][0] == kind:
            new = rewrite(work[i], work[i + 1])
            if new is not None:
                out += new
                i += 2
                continue
        out.append(work[i])
        i += 1
    return out


def _simplify(
    bic: Bicategory, items: list[tuple], side: str, trace: list[TraceStep]
) -> list[tuple]:
    """Rounds of identity drops, i-cell merges and cylinder cancels, until a
    round adds no step; each rewrite adds exactly one."""

    def merge(first: tuple, second: tuple) -> list[tuple]:
        val = bic.vertical(second[1], first[1])
        trace.append(TraceStep(side, "icell-merge", f"{second[1]} o {first[1]}"))
        return [("ci", val)]

    def cancel(a: tuple, b: tuple) -> list[tuple] | None:
        # inverse cylinder pairs with the same mediating arrow
        if a[1] != b[1] or inverse_cylinder(a[2]) != b[2]:
            return None
        trace.append(TraceStep(side, "cylinder-cancel", f"{a[2].s} via {a[1]}"))
        return []

    work = list(items)
    while True:
        steps = len(trace)
        # drop identity projections and identity-hat cylinder classes
        kept: list[tuple] = []
        for it in work:
            if it[0] == "ci" and bic.is_identity_cell(it[1]):
                trace.append(TraceStep(side, "icell-identity", it[1]))
            elif (
                it[0] == "cyl"
                and it[2].d0 == it[2].d1
                and it[2].alpha0 == it[2].alpha1
            ):
                trace.append(TraceStep(side, "cylinder-identity", it[2].s))
            else:
                kept.append(it)
        work = _pairwise(kept, "ci", merge)
        work = _pairwise(work, "cyl", cancel)
        if len(trace) == steps:
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
    """Three-valued equality on homotopy-bicategory 2-cells.

    With probes, when the identity is admissible, sides with different source
    hats are distinct, and the sound rewrites cannot join them; so they are
    skipped, and the probe walk gives the same verdict without them.  Sides
    with one source hat that the rewrites do not join are ``Unknown`` with
    no probe walked."""
    if k1.sigma != k2.sigma:
        raise StructureError("cells live over different marked classes")
    if (k1.f, k1.g) != (k2.f, k2.g):
        raise StructureError(
            f"boundary mismatch: {k1.f}=>{k1.g} vs {k2.f}=>{k2.g}"
        )
    if budget < 1:
        raise StructureError("budget must be >= 1")
    if k1.terms == k2.terms:
        return EqVerdict("equal", (TraceStep("both", "syntactic", ""),))
    if probes is not None and not probes.probes:
        probes = None  # no probe to separate with
    hats = None
    if probes is not None and identity_is_admissible(k1.sigma):
        hats = source_hat(k1), source_hat(k2)
    if hats is None or hats[0] == hats[1]:
        trace: list[TraceStep] = []
        left = _normalize_side(k1, "left", trace, budget)
        right = _normalize_side(k2, "right", trace, budget)
        if left == right:
            return EqVerdict("equal", tuple(trace))
        if probes is None:
            return EqVerdict("unknown")
        hats = hats or (source_hat(k1), source_hat(k2))
    for fun, v1, v2 in separations(probes, k1, k2, hats):
        return EqVerdict("distinct", (), fun.name, v1, v2)
    return EqVerdict("unknown")


# -- extensions along the projection ----------------------------------------


class ExtensionReport(NamedTuple):
    functorial_whisker: bool
    preserves_units: bool
    checked_whiskers: int

    @property
    def ok(self) -> bool:
        return self.functorial_whisker and self.preserves_units

    @property
    def checked_pairs(self) -> int:
        """Always 0: no vertical pairs are checked.  ``bench/workloads.py``
        and ``bench/tracing.py`` read it for the ``ho.extend_pairs`` metric,
        so it stays until the benchmark itself changes; being a property, it
        is not in ``to_json``."""
        return 0

    def to_json(self) -> dict:
        return {"ok": self.ok, **self._asdict()}


class ExtensionG:
    """A functor out of the homotopy bicategory, determined by its restriction
    along the projection: objects and arrows as the base functor, 2-cell
    values forced to the composite of term hats.  One route serves 2-functors
    and pseudofunctors; the report checks whiskering up to phi and units.

    The values are unique: restriction pins a lone cell term, identity cells
    included, since [I(id_f)] = id_f and F(id_f) = id; the hat pins a lone
    homotopy, whose hat equation has exactly one solution; and the vertical
    split pins every longer sequence to the composite of values already
    pinned.

    The localization adds no objects or arrows, only 2-cells, so a
    transformation theta: F => G between admissible strict 2-functors that
    passes ``validate_transformation`` is already a transformation between
    their extensions, with the same components: PN0 and PN1 read arrows
    alone, and PN2 holds on every class.  On a term I(mu) it is PN2 on mu.
    For a cylinder on s: d0 => d1 (d0, d1: x -> w) with hats cF = F's and
    cG = G's, so Fs * cF = F(alpha_tilde) and Gs * cG = G(alpha_tilde), the
    square is  theta_d1 o (cG * theta_x) = (theta_w * cF) o theta_d0.  PN1
    on s * d gives  Gs * theta_d = (theta_s * Fd)^-1 o theta_(s*d),  with
    theta_s invertible.  Whiskered by Gs, the left side becomes
    (theta_s * Fd1)^-1 o theta_(s*d1) o (G(alpha_tilde) * theta_x), which PN2
    on the source cell alpha_tilde turns into
    (theta_s * Fd1)^-1 o (theta_z * F(alpha_tilde)) o theta_(s*d0); the right
    side becomes the same cell by interchange with theta_s^-1.  Whiskering by
    Gs is injective on cells into Gw, since G is admissible and Gs is a
    quasiequivalence, so the square itself holds.  A homotopy's value is
    F(eps) o (Fh * cF) o F(eta), and PN2 squares stay PN2 squares under
    vertical pasting and, by PN1 and interchange, under whiskering by an
    arrow; so every class satisfies PN2.  A modification between two such
    transformations is one between their extensions, since PM reads arrows
    alone and ``validate_modification`` checks it."""

    def __init__(
        self, fun: PseudofunctorData, sigma: SigmaClass, materialized: list[HoCell]
    ) -> None:
        self.fun = fun
        self.sigma = sigma
        self.materialized = materialized
        self.report: ExtensionReport | None = None
        self._values: dict[tuple[str, tuple[HomotopyTerm, ...]], str] = {}

    def value(self, k: HoCell) -> str:
        """The composite of F's hats of the terms, once per class: F of k's
        ``source_hat`` when it exists (F is validated and admissible, so F of
        each source hat solves F's hat equation), and otherwise the hat of
        each term's push-forward, kept on F's target.  On a validated
        target this is vertically functorial by associativity of ``vcomp``,
        and on a lone cell term it is F of the cell, so ``extend`` checks
        only what F's own data can break: whiskering and units."""
        key = (k.f, k.terms)
        if key not in self._values:
            self._values[key] = probe_value(self.fun, k, source_hat(k))
        return self._values[key]


def sample_homotopies(sigma: SigmaClass, cap: int = 200) -> list[Homotopy]:
    """Deterministic enumeration of homotopies at desk scale: every cylinder
    (all parallel pairs, diagonals, marked arrows and comparison cells), its
    tautological homotopy, and every homotopy over it; the first ``cap``."""
    return list(islice(_homotopies(sigma), cap))


def _homotopies(sigma: SigmaClass) -> Iterator[Homotopy]:
    bic = sigma.bic
    for d0 in sorted(bic.arrows):
        x, w = bic.arrows[d0]
        for d1 in bic.arrows_between(x, w):
            for s in bic.out_arrows(w):
                if s not in sigma:
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
                            yield cylinder_homotopy(cyl)
                            for h in bic.out_arrows(w):
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
                                                yield make_homotopy(cyl, h, eta, eps)


def extend_2functor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extend a 2-functor along the projection and check, on a materialized
    family of cells, that the forced values whisker and keep units.  The
    target must be a validated bicategory, and the 2-functor must pass
    ``validate_pseudofunctor``, as ``make_probe_set`` and ``bicatkit extend``
    make sure of: values are read off source hats, which only a lawful
    functor carries to its own hats."""
    if not fun.is_2functor:
        raise StructureError(f"{fun.name!r} is not a 2-functor")
    return extend_pseudofunctor(fun, sigma, cap)


def extend_pseudofunctor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extend a validated pseudofunctor along the projection, with the forced
    values checked on a materialized family for whiskering up to phi, which
    for a 2-functor is the plain whisker, and for units.  Values are the
    composites of F's hats of the terms, ``ExtensionG.value``.  The target
    must be a validated bicategory, as every CLI command makes sure of for
    the tables it reads, so vertical functoriality holds by associativity of
    its ``vcomp``; and the pseudofunctor must pass
    ``validate_pseudofunctor``."""
    _require_admissible(fun, sigma)
    bic, d = sigma.bic, fun.target
    # the projected cells and the sampled singleton homotopy classes
    family = [i_cell(sigma, mu) for mu in sorted(bic.cells)]
    family += [ho_cell(sigma, (hom,)) for hom in sample_homotopies(sigma, cap=cap)]
    ext = ExtensionG(fun, sigma, family)
    whisk = 0
    whisk_ok = True
    for k in family:
        x, y = bic.arrows[k.f]
        held = ext.value(k)
        for r in bic.out_arrows(y):
            whisk += 1
            lhs = ext.value(ho_whisk("left", r, k))
            if lhs != comp_sub_f(fun, d.idc[fun.arr_map[r]], held, r, k.f, r, k.g):
                whisk_ok = False
        for r in bic.in_arrows(x):
            whisk += 1
            lhs = ext.value(ho_whisk("right", r, k))
            if lhs != comp_sub_f(fun, held, d.idc[fun.arr_map[r]], k.f, r, k.g, r):
                whisk_ok = False
    units_ok = all(
        ext.value(ho_cell(sigma, (ICell(bic, bic.idc[f]),))) == d.idc[fun.arr_map[f]]
        for f in sorted(bic.arrows)
    ) and all(
        ext.value(ho_cell(sigma, (cylinder_homotopy(identity_cylinder(bic, x)),)))
        == d.idc[fun.arr_map[bic.id1[x]]]
        for x in sorted(bic.objects)
    )
    ext.report = ExtensionReport(whisk_ok, units_ok, whisk)
    return ext
