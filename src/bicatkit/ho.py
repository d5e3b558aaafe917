"""The homotopy bicategory of a pair (bicategory, marked class).

2-cells are finite composable sequences of homotopy terms modulo the relation
"every admissible 2-functor evaluates both sides to the same target cell".
That relation quantifies over all functors, so equality is decided three-ways:

* Equal   -- both sequences normalize, under a fixed set of class-preserving
             rewrite rules, to the same canonical term list.  Every rule
             carries the algebraic law that justifies it into the trace.
* Distinct-- some probe (an admissible 2-functor into a finite target)
             evaluates the two sides to different cells; the first such
             probe is reported.  A probe's value on a side is its image of
             the side's hat in the source when every cylinder's marked arrow
             is a quasiequivalence there, and otherwise the composite of
             its own hats of the terms.
* Unknown -- neither; an honest outcome, reported with exit code 2 by the CLI.

Sequences are stored first-applied-first.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

from .core import (
    Bicategory,
    ModificationData,
    PseudofunctorData,
    StructureError,
    TransformationData,
    comp_sub_f,
    validate_modification,
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

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class HoCell:
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
    dict (an object with at least those keys)."""
    if isinstance(shape, dict) and type(value) is dict:
        for key, sub in shape.items():
            path = f"{where}.{key}" if where else key
            if key not in value:
                raise StructureError(f"field {path!r} is missing")
            require_json(value[key], sub, path)
    elif isinstance(shape, list) and type(value) is list:
        for i, item in enumerate(value):
            require_json(item, shape[0], f"{where}[{i}]")
    elif type(value) is not shape:
        raise StructureError(f"field {where!r} has the wrong type")


HOCELL_JSON = {"f": str, "g": str, "terms": [dict]}
_CYLINDER_JSON = dict.fromkeys(("d0", "d1", "x", "s", "alpha0", "alpha1"), str)
_HOMOTOPY_JSON = {"cylinder": _CYLINDER_JSON, "h": str, "eta": str, "eps": str}


def hocell_from_json(sigma: SigmaClass, data: dict) -> HoCell:
    """The HoCell that to_json stored; StructureError names a field that is
    missing, mistyped or unknown to the bicategory."""
    bic = sigma.bic
    require_json(data, HOCELL_JSON, "hocell")
    terms: list[HomotopyTerm] = []
    for i, td in enumerate(data["terms"]):
        at = f"hocell.terms[{i}]"
        if td.get("kind") == "icell":
            require_json(td, {"cell": str}, at)
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


@dataclass(frozen=True)
class ProbeSet:
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


def _require_2functor(fun: PseudofunctorData) -> None:
    if not fun.is_2functor:
        raise StructureError(f"{fun.name!r} is not a 2-functor")


def enumerate_2functors(src: Bicategory, dst: Bicategory) -> list[PseudofunctorData]:
    """All 2-functors between two finite tabulated bicategories.

    The search is depth first over one list of unknowns: the objects in
    order, each over the target's objects; the identity arrows; the sorted
    non-identity arrows, each over its hom; the identity cells; the sorted
    non-identity cells, each over its cells, candidates in the target's
    index order.  The identity arrow id_x has the one candidate id_{F x} and
    the identity cell id_f the one candidate id_{F f}.  An unknown with one
    candidate never branches, so the results come in the depth-first order
    over the objects and the sorted generators alone.  Each constraint is
    checked as soon as the last unknown it reads is assigned (forward
    checking): a non-identity arrow's hom must have a candidate, and each
    source table entry must hold, `hcomp1`, `vcomp`, the whiskers and,
    unless both sides are strict, the unitors and associators.  A branch
    thus ends at its first broken constraint, and the results, in their
    order, are those of checking complete maps only."""
    objs = list(src.objects)
    ids = set(src.id1.values())
    idcs = set(src.idc.values())
    found: list[PseudofunctorData] = []
    # the maps under construction, which the candidates and checks read
    omap: dict[str, str] = {}
    amap: dict[str, str] = {}
    cmap: dict[str, str] = {}
    image = {"object": omap, "arrow": amap, "cell": cmap}
    unknowns: list[tuple[str, str, Callable[[], Iterable[str]]]] = [
        ("object", x, lambda: dst.objects) for x in objs
    ]
    unknowns += [("arrow", src.id1[x], lambda x=x: (dst.id1[omap[x]],)) for x in objs]
    unknowns += [
        ("arrow", f, lambda x=x, y=y: dst.arrows_between(omap[x], omap[y]))
        for f, (x, y) in sorted(src.arrows.items()) if f not in ids
    ]
    unknowns += [("cell", src.idc[f], lambda f=f: (dst.idc[amap[f]],)) for f in src.arrows]
    unknowns += [
        ("cell", a, lambda f=f, g=g: dst.cells_between(amap[f], amap[g]))
        for a, (f, g) in sorted(src.cells.items()) if a not in idcs
    ]
    at = {(space, x): i for i, (space, x, _) in enumerate(unknowns)}
    checks: list[list[Callable[[], bool]]] = [[] for _ in unknowns]

    def file(reads: Iterable[tuple[str, str]], check: Callable[[], bool]) -> None:
        """File check under the last unknown it reads."""
        checks[max(map(at.__getitem__, reads))].append(check)

    for x, y in sorted({ends for f, ends in src.arrows.items() if f not in ids}):
        file([("object", x), ("object", y)],
             lambda x=x, y=y: bool(dst.arrows_between(omap[x], omap[y])))
    for (g, f), c in src.hcomp1.items():
        file([("arrow", g), ("arrow", f), ("arrow", c)],
             lambda g=g, f=f, c=c: dst.hcomp1.get((amap[g], amap[f])) == amap[c])
    for (b, a), c in src.vcomp.items():
        file([("cell", b), ("cell", a), ("cell", c)],
             lambda b=b, a=a, c=c: dst.vcomp.get((cmap[b], cmap[a])) == cmap[c])
    for (g, a), c in src.lwhisk.items():
        file([("arrow", g), ("cell", a), ("cell", c)],
             lambda g=g, a=a, c=c: dst.lwhisk.get((amap[g], cmap[a])) == cmap[c])
    for (a, f), c in src.rwhisk.items():
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

    def assign(i: int) -> None:
        if i == len(unknowns):
            found.append(PseudofunctorData(
                name=f"{src.name}->{dst.name}#{len(found)}",
                source=src,
                target=dst,
                obj_map=dict(omap),
                arr_map=dict(amap),
                cell_map=dict(cmap),
            ))
            return
        space, x, candidates = unknowns[i]
        images, filed = image[space], checks[i]
        for cand in candidates():
            images[x] = cand
            for check in filed:
                if not check():
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
    if include_self and all(is_quasiequivalence(src, s) for s in sigma.members):
        if all(t is not src for t in all_targets):
            all_targets.append(src)
    probes: list[PseudofunctorData] = []
    for dst in all_targets:
        for fun in enumerate_2functors(src, dst):
            if all(
                is_quasiequivalence(dst, fun.arr_map[s]) for s in sigma.members
            ):
                probes.append(fun)
    return ProbeSet(tuple(probes))


def f_hat_chain(fun: PseudofunctorData, k: HoCell) -> str:
    """Composite of the term images under a probe, in application order."""
    d = fun.target
    return d.vertical_chain(
        (f_hat(fun, t) for t in k.terms), on_arrow=fun.arr_map[k.f]
    )


def probe_values(
    probes: ProbeSet, k: HoCell
) -> Iterator[tuple[PseudofunctorData, str]]:
    """Each probe with its value on k, in probe order, computed when first
    asked for.  A probe F sends each marked arrow s to a quasiequivalence, so
    when s is one in the source too, F of the source hat of a cylinder on s
    solves Fs * c = F(alpha_tilde) and is F's hat of it.  When that holds for
    every cylinder of k, each value is F of k's hat chain in the source;
    otherwise each probe hats the terms in its own target."""
    if not probes.probes:
        return
    bic = k.bic
    if any(
        isinstance(t, Homotopy) and not is_quasiequivalence(bic, t.cyl.s)
        for t in k.terms
    ):
        for fun in probes.probes:
            yield fun, f_hat_chain(fun, k)
        return
    value = bic.vertical_chain(
        (t.cell if isinstance(t, ICell) else hat(bic, t) for t in k.terms),
        on_arrow=k.f,
    )
    for fun in probes.probes:
        yield fun, fun.cell_map[value]


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


@dataclass(frozen=True)
class TraceStep:
    """One rewrite of the decider; its law is its rule's entry in ``LAWS``."""

    side: str
    rule: str
    detail: str

    @property
    def law(self) -> str:
        return LAWS[self.rule]

    def to_json(self) -> dict:
        return {"side": self.side, "rule": self.rule, "law": self.law, "detail": self.detail}


@dataclass(frozen=True)
class EqVerdict:
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
        return EqVerdict("equal", (TraceStep("both", "syntactic", ""),))
    trace: list[TraceStep] = []
    left = _normalize_side(k1, "left", trace, budget)
    right = _normalize_side(k2, "right", trace, budget)
    if left == right:
        return EqVerdict("equal", tuple(trace))
    if probes is not None:
        values = zip(probe_values(probes, k1), probe_values(probes, k2))
        for (fun, v1), (_, v2) in values:
            if v1 != v2:
                return EqVerdict("distinct", (), fun.name, v1, v2)
    return EqVerdict("unknown")


# -- extensions along the projection ----------------------------------------


@dataclass
class ExtensionReport:
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
        return {"ok": self.ok, **asdict(self)}


@dataclass
class ExtensionG:
    """A functor out of the homotopy bicategory, determined by its restriction
    along the projection: objects and arrows as the base functor, 2-cell
    values forced to the composite of term hats.  One route serves 2-functors
    and pseudofunctors; the report checks whiskering up to phi and units.

    The values are unique: restriction pins a lone cell term, identity cells
    included, since [I(id_f)] = id_f and F(id_f) = id; the hat pins a lone
    homotopy, whose hat equation has exactly one solution; and the vertical
    split pins every longer sequence to the composite of values already
    pinned."""

    fun: PseudofunctorData
    sigma: SigmaClass
    report: ExtensionReport | None = None
    materialized: list[HoCell] = field(default_factory=list)

    def value(self, k: HoCell) -> str:
        """The composite of F's hats of the terms, each solved in F's target.
        On a validated target this is vertically functorial by associativity
        of ``vcomp``, and on a lone cell term it is F of the cell, so
        ``extend`` checks only what F's own data can break: whiskering and
        units."""
        return f_hat_chain(self.fun, k)


def sample_homotopies(sigma: SigmaClass, cap: int = 200) -> list[Homotopy]:
    """Deterministic enumeration of homotopies at desk scale: every cylinder
    (all parallel pairs, diagonals, marked arrows and comparison cells), its
    tautological homotopy, and every homotopy over it, capped."""
    bic = sigma.bic
    out: list[Homotopy] = []
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
                            out.append(cylinder_homotopy(cyl))
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
                                                out.append(
                                                    make_homotopy(cyl, h, eta, eps)
                                                )
                                                if len(out) >= cap:
                                                    return out
                            if len(out) >= cap:
                                return out
    return out


def _materialize(sigma: SigmaClass, cap: int) -> list[HoCell]:
    """The projected cells and the sampled singleton homotopy classes."""
    family = [i_cell(sigma, mu) for mu in sorted(sigma.bic.cells)]
    family += [ho_cell(sigma, (hom,)) for hom in sample_homotopies(sigma, cap=cap)]
    return family


def _verified_extension(fun: PseudofunctorData, sigma: SigmaClass, cap: int) -> ExtensionG:
    """The extension of an admissible pseudofunctor, with the forced values
    checked on a materialized family for whiskering up to phi and for units.
    The target must be a validated bicategory, as every CLI command makes sure
    of for the tables it reads; vertical functoriality then holds by
    associativity of its ``vcomp``."""
    bic, d = sigma.bic, fun.target
    family = _materialize(sigma, cap)
    ext = ExtensionG(fun, sigma, materialized=family)
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


def extend_2functor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extend a 2-functor along the projection and check, on a materialized
    family of cells, that the forced values whisker and keep units.  The
    target must be a validated bicategory."""
    _require_2functor(fun)
    _require_admissible(fun, sigma)
    return _verified_extension(fun, sigma, cap)


def extend_pseudofunctor(
    fun: PseudofunctorData, sigma: SigmaClass, cap: int = 60
) -> ExtensionG:
    """Extend a validated pseudofunctor along the projection.  Values are the
    composites of term hats, as for 2-functors; whiskering is checked up to
    phi, which for a 2-functor is the plain whisker.  The target must be a
    validated bicategory."""
    if not validate_pseudofunctor(fun).ok:
        raise StructureError(f"{fun.name!r} fails validation")
    _require_admissible(fun, sigma)
    return _verified_extension(fun, sigma, cap)


@dataclass
class TwoCellExtensionReport:
    kind: str
    ok: bool
    failures: list[str]

    def to_json(self) -> dict:
        return asdict(self)


def extend_2cell_data(kind: str, data, sigma: SigmaClass, cap: int = 40):
    """Extensions of transformations (checked against materialized classes via
    the naturality square) and modifications (rechecked on arrows).  Values are
    unchanged; what is verified is that they stay lawful over the homotopy
    bicategory."""
    failures: list[str] = []
    if kind == "transformation":
        assert isinstance(data, TransformationData)
        f_, g_ = data.fun_from, data.fun_to
        for fun in (f_, g_):
            _require_2functor(fun)
            _require_admissible(fun, sigma)
        d = f_.target
        for k in _materialize(sigma, cap):
            x, y = sigma.bic.arrows[k.f]
            lhs = d.vertical(
                data.comp_arr[k.g],
                d.whisker_r(f_hat_chain(g_, k), data.comp_obj[x]),
            )
            rhs = d.vertical(
                d.whisker_l(data.comp_obj[y], f_hat_chain(f_, k)),
                data.comp_arr[k.f],
            )
            if lhs != rhs:
                failures.append(f"PN2 fails on {k}: {lhs} != {rhs}")
        return data, TwoCellExtensionReport(kind, not failures, failures)
    if kind == "modification":
        assert isinstance(data, ModificationData)
        failures = [
            f"{v.axiom} fails on {' '.join(v.witness)}: {v.left} != {v.right}"
            for v in validate_modification(data).violations
        ]
        return data, TwoCellExtensionReport(kind, not failures, failures)
    raise StructureError(f"unknown extension kind {kind!r}")
