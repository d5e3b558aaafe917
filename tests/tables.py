"""Table documents and builders that several test modules share.

Test modules import shared helpers from here, not from each other, so that
no chain of imports between test modules runs in a cycle.
"""
from __future__ import annotations

import itertools

from bench import families
from bicatkit.core import Bicategory
from bicatkit.homotopy import ComposeGlue, identity_cylinder, make_homotopy
from bicatkit.library import fixture_text
from bicatkit.sigma import make_sigma

# one object whose identity arrow carries Z/2 = {id, z}, with both unitors z
UNITOR_DOC = """
strict false
objects: X
compose:
  id_X . id_X = id_X
cells:
  z : id_X => id_X
vcomp:
  z . z = id_id_X
lwhisk:
  id_X * z = z
rwhisk:
  z * id_X = z
unitors:
  lambda id_X = z
  rho id_X = z
assoc:
  theta id_X id_X id_X = id_id_X
"""
# the arrows {id_X, f} form Z/2, so does every hom; the associator is the
# nontrivial 3-cocycle, the non-identity cell y on f at (f, f, f) only
COCYCLE_DOC = """
strict false
objects: X
arrows:
  f : X -> X
compose:
  id_X . id_X = id_X
  f . id_X = f
  id_X . f = f
  f . f = id_X
cells:
  z : id_X => id_X
  y : f => f
vcomp:
  z . z = id_id_X
  y . y = id_f
lwhisk:
  id_X * z = z
  id_X * y = y
  f * z = y
  f * y = z
rwhisk:
  z * id_X = z
  y * id_X = y
  z * f = y
  y * f = z
unitors:
  lambda id_X = id_id_X
  rho id_X = id_id_X
  lambda f = id_f
  rho f = id_f
assoc:
  theta id_X id_X id_X = id_id_X
  theta id_X id_X f = id_f
  theta id_X f id_X = id_f
  theta id_X f f = id_id_X
  theta f id_X id_X = id_f
  theta f id_X f = id_id_X
  theta f f id_X = id_id_X
  theta f f f = y
"""
# f . id_X = f1 with f and f1 isomorphic by u and v, and lambda f = u: a
# valid non-strict table where composing with an identity is not the identity
UNIT_DOC = """
strict false
objects: X Y
arrows:
  f : X -> Y
  f1 : X -> Y
compose:
  id_X . id_X = id_X
  id_Y . id_Y = id_Y
  f . id_X = f1
  f1 . id_X = f1
  id_Y . f = f
  id_Y . f1 = f1
cells:
  u : f1 => f
  v : f => f1
vcomp:
  u . v = id_f
  v . u = id_f1
lwhisk:
  id_Y * u = u
  id_Y * v = v
rwhisk:
  u * id_X = id_f1
  v * id_X = id_f1
unitors:
  lambda id_X = id_id_X
  lambda id_Y = id_id_Y
  lambda f = u
  lambda f1 = id_f1
  rho id_X = id_id_X
  rho id_Y = id_id_Y
  rho f = id_f
  rho f1 = id_f1
assoc:
  theta id_X id_X id_X = id_id_X
  theta id_Y id_Y id_Y = id_id_Y
  theta f id_X id_X = id_f1
  theta f1 id_X id_X = id_f1
  theta id_Y f id_X = id_f1
  theta id_Y f1 id_X = id_f1
  theta id_Y id_Y f = id_f
  theta id_Y id_Y f1 = id_f1
"""
# g * (-) sends both cells on f to id_h: full but not faithful, so g is no
# quasiequivalence, although the image set equals the target set
COLLAPSE_DOC = """
objects: A B C
arrows:
  f : A -> B
  g : B -> C
  h : A -> C
compose:
  g . f = h
cells:
  z : f => f
vcomp:
  z . z = id_f
lwhisk:
  g * z = id_h
sigma: f g
"""


def split_z2_doc() -> str:
    """The split idempotent (r s = id_X, s r = e) with a cell a_f, a_f . a_f
    = id_f, on every arrow, whiskered to a_ cells: homotopies over a cylinder
    that is not an identity can have the two mediators id_Y and e.  The a_
    cells sort before id_, so each w-split decomposition's iso is an a_ cell
    and ``localize`` transports every witness along it."""
    arrows = {"s": ("X", "Y"), "r": ("Y", "X"), "e": ("Y", "Y")}
    compose = {("r", "s"): "id_X", ("s", "r"): "e", ("e", "e"): "e", ("e", "s"): "s", ("r", "e"): "r"}
    doc = families.Doc("split_z2", ["X", "Y"], arrows, compose, sigma=sorted(arrows))
    ends = {**arrows, "id_X": ("X", "X"), "id_Y": ("Y", "Y")}

    def comp(g: str, f: str) -> str:
        return g if f.startswith("id_") else f if g.startswith("id_") else compose[g, f]

    for f in ends:
        doc.cells[f"a_{f}"] = (f, f)
        doc.vcomp[f"a_{f}", f"a_{f}"] = f"id_{f}"
    for g, f in itertools.product(ends, repeat=2):
        if ends[f][1] == ends[g][0]:
            if g in arrows:
                doc.lwhisk[g, f"a_{f}"] = f"a_{comp(g, f)}"
            if f in arrows:
                doc.rwhisk[f"a_{g}", f] = f"a_{comp(g, f)}"
    return doc.text()


def rebuild(bic, **overrides):
    fields = dict(
        name=bic.name,
        objects=bic.objects,
        arrows=bic.arrows,
        id1=bic.id1,
        hcomp1=bic.hcomp1,
        cells=bic.cells,
        idc=bic.idc,
        vcomp=bic.vcomp,
        lwhisk=bic.lwhisk,
        rwhisk=bic.rwhisk,
        lunitor=bic.lunitor,
        runitor=bic.runitor,
        assoc=bic.assoc,
        strict=bic.strict,
    )
    fields.update(overrides)
    return Bicategory(**fields)


def grpd_lemma_instance(grpd):
    bic = grpd.bicategory
    sigma = make_sigma(bic, ())
    cx = identity_cylinder(bic, "P")
    h1 = make_homotopy(cx, "id_P", "g", "id_id_P")
    h2 = make_homotopy(cx, "id_P", "g", "id_id_P")
    glue = ComposeGlue(
        w="P",
        s="id_P",
        h="id_P",
        b1="id_P",
        b2="id_P",
        nu1="id_id_P",
        nu2="id_id_P",
        gamma1="g",
        gamma2="id_id_P",
        delta="id_id_P",
    )
    return sigma, h1, h2, glue


def implicit_structure_cases():
    """chain_f.pf edited so that an omitted xi or phi entry cannot be an
    identity: (document, message, the map_arr line at fault).  An explicit
    F(id_W) that is not id_W needs xi[W]; with no phi section, F(cba) moved
    to the top needs phi[(c, ba)], whose latest arrow line is ba's; F(a)
    that does not compose with F(id_W) needs phi[(a, id_W)], whose id_W is
    left implicit."""
    text = fixture_text("chain_f.pf")
    no_phi = text.split("phi:")[0]
    return [
        (text.replace("  b -> b\n", "  b -> b\n  id_W -> a\n"),
         "xi[W] required, F(id_W) is not id_{FW}", "id_W -> a"),
        (no_phi.replace("map_arr:\n", "map_arr:\n  cba -> q\n").replace("  cba -> t\n", ""),
         "phi[(c, ba)] required, Fc * Fba != F(c*ba)", "ba -> p"),
        (no_phi.replace("  a -> a\n", "  a -> b\n"),
         "phi[(a, id_W)] required, Fa * Fid_W != F(a*id_W)", "a -> b"),
    ]
