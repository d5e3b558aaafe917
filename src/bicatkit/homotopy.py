"""Cylinders and homotopies relative to a marked arrow class.

A cylinder packages two parallel arrows d0, d1 into an object W together with
a marked arrow s out of W and invertible comparison cells alpha0, alpha1; its
essential content is the composite cell alpha_tilde: s*d0 => s*d1.  A homotopy
is a would-be 2-cell f => g mediated by a cylinder: cells eta: f => h*d0 and
eps: h*d1 => g for some arrow h out of W.  When s is a quasiequivalence,
whiskering by s is a bijection on each hom; ``is_quasiequivalence`` verifies
that bijection and keeps its inverse, and every hat, of a cylinder or of a
functor's image of one, is read off it.  Pseudofunctors push all of this
into their targets.

Each homotopy carries its construction provenance (transform kind or lemma
gluing) in its ``origin`` field, so the equality decider can replay it;
equality and hashing leave ``origin`` out, so two homotopies are equal exactly
when their component tuples are, and ``hat`` keeps each table's solved hats
keyed by the homotopy.
"""
from __future__ import annotations

from typing import NamedTuple, Union

from .core import Bicategory, PseudofunctorData, StructureError, comp_sub_f
from .sigma import SigmaClass, whisker_preimages


class HatError(StructureError):
    """Hat operator failure: bad precondition or corrupted tables."""


class LemmaHypothesisError(StructureError):
    def __init__(self, hypothesis: int, left: str, right: str) -> None:
        super().__init__(
            f"vertical-composition gluing hypothesis {hypothesis} fails: "
            f"{left} != {right}"
        )
        self.hypothesis = hypothesis
        self.left = left
        self.right = right


class Cylinder(NamedTuple):
    bic: Bicategory
    w: str
    z: str
    d0: str
    d1: str
    x: str
    s: str
    alpha0: str
    alpha1: str

    def alpha_tilde(self) -> str:
        inv = self.bic.inverse(self.alpha1)
        assert inv is not None
        return self.bic.vertical(inv, self.alpha0)

    def to_json(self) -> dict:
        # make_cylinder derives W and Z from d0 and s
        return {
            "d0": self.d0,
            "d1": self.d1,
            "x": self.x,
            "s": self.s,
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
        }


def make_cylinder(
    bic: Bicategory,
    d0: str,
    d1: str,
    x: str,
    s: str,
    alpha0: str,
    alpha1: str,
    sigma: SigmaClass | None = None,
) -> Cylinder:
    for f in (d0, d1, x, s):
        if f not in bic.arrows:
            raise StructureError(f"cylinder references unknown arrow {f!r}")
    if bic.arrows[d0] != bic.arrows[d1]:
        raise StructureError(f"cylinder sides {d0!r}, {d1!r} are not parallel")
    base, w = bic.arrows[d0]
    if bic.arrows[s][0] != w:
        raise StructureError(f"cylinder arrow {s!r} does not start at {w!r}")
    z = bic.arrows[s][1]
    if bic.arrows[x] != (base, z):
        raise StructureError(f"cylinder diagonal {x!r} is not {base} -> {z}")
    if sigma is not None and s not in sigma:
        raise StructureError(f"cylinder arrow {s!r} is not in the marked class")
    for name, cell, frm in (("alpha0", alpha0, d0), ("alpha1", alpha1, d1)):
        want = (bic.hcomp1[(s, frm)], x)
        if bic.cells.get(cell) != want:
            raise StructureError(f"cylinder cell {name}={cell!r} is not {want[0]} => {x}")
        if not bic.is_invertible(cell):
            raise StructureError(f"cylinder cell {name}={cell!r} is not invertible")
    return Cylinder(bic, w, z, d0, d1, x, s, alpha0, alpha1)


def inverse_cylinder(cyl: Cylinder) -> Cylinder:
    return Cylinder(
        cyl.bic, cyl.w, cyl.z, cyl.d1, cyl.d0, cyl.x, cyl.s, cyl.alpha1, cyl.alpha0
    )


def identity_cylinder(bic: Bicategory, obj: str) -> Cylinder:
    bic.require_strict("identity cylinder")
    i = bic.id1[obj]
    ic = bic.idc[i]
    return Cylinder(bic, obj, obj, i, i, i, i, ic, ic)


def retraction_cylinder(
    sigma: SigmaClass, s: str, r: str, alpha: str
) -> Cylinder:
    """The cylinder on dst(s) built from a splitting r*s => id; its marked
    arrow is the retraction r."""
    bic = sigma.bic
    bic.require_strict("retraction cylinder")
    x, y = bic.arrows[s]
    if bic.arrows.get(r) != (y, x):
        raise StructureError(f"retraction {r!r} is not {y} -> {x}")
    if bic.cells.get(alpha) != (bic.hcomp1[(r, s)], bic.id1[x]):
        raise StructureError(f"cell {alpha!r} is not {r}*{s} => id_{x}")
    if not bic.is_invertible(alpha):
        raise StructureError(f"cell {alpha!r} is not invertible")
    return make_cylinder(
        bic,
        d0=bic.hcomp1[(s, r)],
        d1=bic.id1[y],
        x=r,
        s=r,
        alpha0=bic.whisker_r(alpha, r),
        alpha1=bic.idc[r],
        sigma=sigma,
    )


class TransformOrigin(NamedTuple):
    kind: str  # post | pre | lwhisk | rwhisk | invert
    arg: str  # cell or arrow id; "" for invert
    base: "Homotopy"


class LemmaOrigin(NamedTuple):
    h1: "Homotopy"
    h2: "Homotopy"
    glue: "ComposeGlue"


class Homotopy(NamedTuple):
    """A homotopy f => g over a cylinder.  Two homotopies are equal, and hash
    alike, exactly when their fields other than ``origin`` are."""

    cyl: Cylinder
    f: str
    g: str
    h: str
    eta: str
    eps: str
    origin: TransformOrigin | LemmaOrigin | None = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Homotopy) and self[:6] == other[:6]

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self[:6])

    @property
    def bic(self) -> Bicategory:
        return self.cyl.bic

    @property
    def invertible_cells(self) -> bool:
        return self.bic.is_invertible(self.eta) and self.bic.is_invertible(self.eps)

    def to_json(self) -> dict:
        return {
            "cylinder": self.cyl.to_json(),
            "h": self.h,
            "eta": self.eta,
            "eps": self.eps,
        }


def make_homotopy(
    cyl: Cylinder,
    h: str,
    eta: str,
    eps: str,
    origin: TransformOrigin | LemmaOrigin | None = None,
) -> Homotopy:
    bic = cyl.bic
    if bic.arrows.get(h, (None, None))[0] != cyl.w:
        raise StructureError(f"homotopy arrow {h!r} does not start at {cyl.w!r}")
    hd0 = bic.hcomp1[(h, cyl.d0)]
    hd1 = bic.hcomp1[(h, cyl.d1)]
    if eta not in bic.cells or bic.cell_dst(eta) != hd0:
        raise StructureError(f"eta={eta!r} does not land on {h}*{cyl.d0}")
    if eps not in bic.cells or bic.cell_src(eps) != hd1:
        raise StructureError(f"eps={eps!r} does not start at {h}*{cyl.d1}")
    f = bic.cell_src(eta)
    g = bic.cell_dst(eps)
    if bic.arrows[f] != bic.arrows[g]:
        raise StructureError(f"homotopy endpoints {f!r}, {g!r} are not parallel")
    return Homotopy(cyl, f, g, h, eta, eps, origin)


def cylinder_homotopy(cyl: Cylinder) -> Homotopy:
    """The tautological homotopy d0 => d1 of a cylinder (h = id_W)."""
    bic = cyl.bic
    bic.require_strict("cylinder homotopy")
    return make_homotopy(cyl, bic.id1[cyl.w], bic.idc[cyl.d0], bic.idc[cyl.d1])


def mu_homotopies(bic: Bicategory, mu: str) -> tuple[Homotopy, Homotopy]:
    """The two homotopies presenting a bicategory cell mu: f => g: one loads
    mu into eta (h = g), the other into eps (h = f)."""
    bic.require_strict("cell-induced homotopies")
    f, g = bic.cells[mu]
    cx = identity_cylinder(bic, bic.arrow_src(f))
    h0 = make_homotopy(cx, g, mu, bic.idc[g])
    h1 = make_homotopy(cx, f, bic.idc[f], mu)
    return h0, h1


def transform_homotopy(kind: str, arg: str, hom: Homotopy) -> Homotopy:
    """post(mu), pre(nu), lwhisk(r), rwhisk(l) and invert, as displayed tuples."""
    bic = hom.bic
    bic.require_strict("homotopy transform")
    cyl = hom.cyl
    origin = TransformOrigin(kind, arg if kind != "invert" else "", hom)
    if kind == "post":
        if bic.cells.get(arg, (None,))[0] != hom.g:
            raise StructureError(f"post cell {arg!r} does not start at {hom.g!r}")
        return make_homotopy(cyl, hom.h, hom.eta, bic.vertical(arg, hom.eps), origin)
    if kind == "pre":
        if bic.cells.get(arg, (None, None))[1] != hom.f:
            raise StructureError(f"pre cell {arg!r} does not land on {hom.f!r}")
        return make_homotopy(cyl, hom.h, bic.vertical(hom.eta, arg), hom.eps, origin)
    if kind == "lwhisk":
        if bic.arrows.get(arg, (None, None))[0] != bic.arrow_dst(hom.f):
            raise StructureError(f"whisker arrow {arg!r} not composable with {hom.f!r}")
        return make_homotopy(
            cyl,
            bic.hcomp1[(arg, hom.h)],
            bic.whisker_l(arg, hom.eta),
            bic.whisker_l(arg, hom.eps),
            origin,
        )
    if kind == "rwhisk":
        if bic.arrows.get(arg, (None, None))[1] != bic.arrow_src(hom.f):
            raise StructureError(f"whisker arrow {arg!r} not composable with {hom.f!r}")
        new_cyl = make_cylinder(
            bic,
            d0=bic.hcomp1[(cyl.d0, arg)],
            d1=bic.hcomp1[(cyl.d1, arg)],
            x=bic.hcomp1[(cyl.x, arg)],
            s=cyl.s,
            alpha0=bic.whisker_r(cyl.alpha0, arg),
            alpha1=bic.whisker_r(cyl.alpha1, arg),
        )
        return make_homotopy(
            new_cyl,
            hom.h,
            bic.whisker_r(hom.eta, arg),
            bic.whisker_r(hom.eps, arg),
            origin,
        )
    if kind == "invert":
        if not hom.invertible_cells:
            raise StructureError("invert needs invertible eta and eps")
        eps_inv = bic.inverse(hom.eps)
        eta_inv = bic.inverse(hom.eta)
        assert eps_inv is not None and eta_inv is not None
        return make_homotopy(inverse_cylinder(cyl), hom.h, eps_inv, eta_inv, origin)
    raise StructureError(f"unknown transform kind {kind!r}")


class ICell(NamedTuple):
    """Stand-in term for the projected class of a bicategory cell: under every
    admissible functor its hat is the functor's image of the cell."""

    bic: Bicategory
    cell: str

    @property
    def f(self) -> str:
        return self.bic.cell_src(self.cell)

    @property
    def g(self) -> str:
        return self.bic.cell_dst(self.cell)

    def to_json(self) -> dict:
        return {"kind": "icell", "cell": self.cell}


HomotopyTerm = Union[Homotopy, ICell]


# -- hat operators ---------------------------------------------------------


def hat(bic: Bicategory, obj: Cylinder | Homotopy) -> str:
    """For a cylinder: the unique cell c with s*c = alpha_tilde, read off the
    whiskering bijection that ``is_quasiequivalence`` verifies (s must be a
    quasiequivalence).  For a homotopy: eps o (h * hat(C)) o eta, solved once
    and kept on the table, which must not be mutated afterwards; a failure is
    kept nowhere, so it is raised again on every call."""
    if isinstance(obj, Homotopy):
        found = bic._hat_cache.get(obj)
        if found is None:
            c_hat = hat(bic, obj.cyl)
            found = bic._hat_cache[obj] = bic.vertical_chain(
                [obj.eta, bic.whisker_l(obj.h, c_hat), obj.eps]
            )
        return found
    cyl = obj
    if cyl.bic is not bic:
        raise StructureError("cylinder does not live in the given bicategory")
    c = _preimage(bic, cyl.s, cyl.d0, cyl.d1, cyl.alpha_tilde(), None)
    if not bic.is_invertible(c):
        raise HatError(f"hat solution {c!r} is not invertible")
    return c


def _preimage(
    bic: Bicategory, s: str, d0: str, d1: str, want: str | None, source_s: str | None
) -> str:
    """The hat solver: the unique cell c: d0 => d1 with s * c = want.  s is
    the image of source_s under a functor, or source_s is None."""
    preimages = whisker_preimages(bic, s)
    if preimages is None:
        what = f"arrow {s!r}" if source_s is None else f"image {s!r} of {source_s!r}"
        raise HatError(f"{what} is not a quasiequivalence in {bic.name}")
    c = preimages.get((d0, d1, want))
    if c is None:
        raise HatError(
            f"hat of cylinder on {s!r} has 0 solutions; "
            "tables are corrupted (uniqueness is guaranteed)"
            if source_s is None
            else f"functor hat of cylinder on {source_s!r} has 0 solutions"
        )
    return c


def f_hat(fun: PseudofunctorData, term: HomotopyTerm) -> str:
    """The target 2-cell a homotopy term induces through a pseudofunctor.  Its
    cylinder's hat is that of F's image cylinder: the unique target cell c with
    Fs * c = phi(s, d1)^-1 o F(alpha_tilde) o phi(s, d0).  A composite that the
    target's tables lack has no preimage."""
    if isinstance(term, ICell):
        return fun.cell_map[term.cell]
    cyl, d, amap = term.cyl, fun.target, fun.arr_map
    if cyl.bic is not fun.source:
        raise StructureError("cylinder does not live in the functor's source")
    moved = d.vcomp.get((fun.cell_map[cyl.alpha_tilde()], fun.phi[(cyl.s, cyl.d0)]))
    want = d.vcomp.get((d.inverse(fun.phi[(cyl.s, cyl.d1)]), moved))
    c_hat = _preimage(d, amap[cyl.s], amap[cyl.d0], amap[cyl.d1], want, cyl.s)
    mid = comp_sub_f(
        fun,
        d.idc[amap[term.h]],
        c_hat,
        term.h,
        cyl.d0,
        term.h,
        cyl.d1,
    )
    return d.vertical_chain(
        [fun.cell_map[term.eta], mid, fun.cell_map[term.eps]]
    )


def apply_functor(fun: PseudofunctorData, obj: Cylinder | Homotopy) -> Cylinder | Homotopy:
    """Image of a cylinder or homotopy, with phi corrections on the cells."""
    d = fun.target
    if isinstance(obj, Homotopy):
        fc = apply_functor(fun, obj.cyl)
        assert isinstance(fc, Cylinder)
        phi_in = d.inverse(fun.phi[(obj.h, obj.cyl.d0)])
        assert phi_in is not None
        return make_homotopy(
            fc,
            fun.arr_map[obj.h],
            d.vertical(phi_in, fun.cell_map[obj.eta]),
            d.vertical(fun.cell_map[obj.eps], fun.phi[(obj.h, obj.cyl.d1)]),
        )
    cyl = obj
    return make_cylinder(
        d,
        d0=fun.arr_map[cyl.d0],
        d1=fun.arr_map[cyl.d1],
        x=fun.arr_map[cyl.x],
        s=fun.arr_map[cyl.s],
        alpha0=d.vertical(fun.cell_map[cyl.alpha0], fun.phi[(cyl.s, cyl.d0)]),
        alpha1=d.vertical(fun.cell_map[cyl.alpha1], fun.phi[(cyl.s, cyl.d1)]),
    )


# -- vertical composition gluing -------------------------------------------


class ComposeGlue(NamedTuple):
    """Gluing data for composing two homotopies into one.

    nu1: s*b1 => s1 and nu2: s*b2 => s2 compare the glued marked arrow with
    the originals; gamma1: h1 => h*b1 and gamma2: h*b2 => h2 compare the
    mediating arrows; delta: b1*d1(first) => b2*d0(second) fills the middle.
    """

    w: str
    s: str
    h: str
    b1: str
    b2: str
    nu1: str
    nu2: str
    gamma1: str
    gamma2: str
    delta: str


def compose_lemma(
    sigma: SigmaClass, h1: Homotopy, h2: Homotopy, glue: ComposeGlue
) -> Homotopy:
    """Build one homotopy presenting the juxtaposition of h1 then h2.

    Requires matching diagonals, invertible comparison cells, and the two
    compatibility equations between the glue and the originals; the result
    records its construction so the equality decider can expand it.
    """
    bic = h1.bic
    bic.require_strict("homotopy composition gluing")
    if h2.bic is not bic:
        raise StructureError("homotopies live in different bicategories")
    if h1.g != h2.f:
        raise StructureError(f"homotopies do not chain: {h1.g!r} vs {h2.f!r}")
    c1, c2 = h1.cyl, h2.cyl
    if c1.z != c2.z or c1.x != c2.x:
        raise StructureError("cylinders do not share diagonal data")
    if glue.w not in bic.objects:
        raise StructureError(f"unknown glue object {glue.w!r}")
    if bic.arrows.get(glue.s) != (glue.w, c1.z):
        raise StructureError(f"glue arrow s={glue.s!r} is not {glue.w} -> {c1.z}")
    if glue.s not in sigma:
        raise StructureError(f"glue arrow {glue.s!r} is not in the marked class")
    y = bic.arrow_dst(h1.f)
    if bic.arrows.get(glue.h) != (glue.w, y):
        raise StructureError(f"glue arrow h={glue.h!r} is not {glue.w} -> {y}")
    if bic.arrows.get(glue.b1) != (c1.w, glue.w):
        raise StructureError(f"glue arrow b1={glue.b1!r} is not {c1.w} -> {glue.w}")
    if bic.arrows.get(glue.b2) != (c2.w, glue.w):
        raise StructureError(f"glue arrow b2={glue.b2!r} is not {c2.w} -> {glue.w}")

    def invertible_cell(name: str, cell: str, src: str, dst: str) -> None:
        if bic.cells.get(cell) != (src, dst):
            raise StructureError(f"glue cell {name}={cell!r} is not {src} => {dst}")
        if not bic.is_invertible(cell):
            raise StructureError(f"glue cell {name}={cell!r} is not invertible")

    invertible_cell("nu1", glue.nu1, bic.hcomp1[(glue.s, glue.b1)], c1.s)
    invertible_cell("nu2", glue.nu2, bic.hcomp1[(glue.s, glue.b2)], c2.s)
    invertible_cell("gamma1", glue.gamma1, h1.h, bic.hcomp1[(glue.h, glue.b1)])
    invertible_cell("gamma2", glue.gamma2, bic.hcomp1[(glue.h, glue.b2)], h2.h)
    want_delta = (bic.hcomp1[(glue.b1, c1.d1)], bic.hcomp1[(glue.b2, c2.d0)])
    if bic.cells.get(glue.delta) != want_delta:
        raise StructureError(
            f"glue cell delta={glue.delta!r} is not {want_delta[0]} => {want_delta[1]}"
        )

    # hypothesis 1: the glue reproduces eta2 o eps1
    lhs = bic.vertical(h2.eta, h1.eps)
    rhs = bic.vertical_chain(
        [
            bic.whisker_r(glue.gamma1, c1.d1),
            bic.whisker_l(glue.h, glue.delta),
            bic.whisker_r(glue.gamma2, c2.d0),
        ]
    )
    if lhs != rhs:
        raise LemmaHypothesisError(1, lhs, rhs)

    # hypothesis 2: the glue reproduces alpha0(2)^-1 o alpha1(1)
    a0_inv = bic.inverse(c2.alpha0)
    nu1_inv = bic.inverse(glue.nu1)
    assert a0_inv is not None and nu1_inv is not None
    lhs = bic.vertical(a0_inv, c1.alpha1)
    rhs = bic.vertical_chain(
        [
            bic.whisker_r(nu1_inv, c1.d1),
            bic.whisker_l(glue.s, glue.delta),
            bic.whisker_r(glue.nu2, c2.d0),
        ]
    )
    if lhs != rhs:
        raise LemmaHypothesisError(2, lhs, rhs)

    cyl = make_cylinder(
        bic,
        d0=bic.hcomp1[(glue.b1, c1.d0)],
        d1=bic.hcomp1[(glue.b2, c2.d1)],
        x=c1.x,
        s=glue.s,
        alpha0=bic.vertical(c1.alpha0, bic.whisker_r(glue.nu1, c1.d0)),
        alpha1=bic.vertical(c2.alpha1, bic.whisker_r(glue.nu2, c2.d1)),
        sigma=sigma,
    )
    return make_homotopy(
        cyl,
        glue.h,
        bic.vertical(bic.whisker_r(glue.gamma1, c1.d0), h1.eta),
        bic.vertical(h2.eps, bic.whisker_r(glue.gamma2, c2.d1)),
        origin=LemmaOrigin(h1, h2, glue),
    )
