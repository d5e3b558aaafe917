"""Seeded `.bic` generators for the benchmark's table families, and the
mutation catalogue.

Families (all strict 2-categories, at most one arrow per hom):

* ``chain``       the total order on n objects; identity 2-cells only.
* ``chain_z2``    chain(n) with every hom category the group Z/2: one extra
                  cell ``z_f : f => f`` per arrow, ``z . z = id`` and
                  whiskering ``g * z_f = z_{g f}``.
* ``chaotic``     one arrow between every ordered pair of objects (so every
                  arrow is invertible); identity 2-cells only.
* ``chaotic_z2``  chaotic(n) with every hom the group Z/2.

Every table is emitted as `.bic` text and reaches the library only through
``presentation.load_presentation_with_sigma``.  The seed relabels objects and
shuffles line order inside each section; the shape of a table never depends
on the seed.

Each mutation in ``MUTATIONS`` changes or adds one line and records the axiom
its breakage must report.  The expected tags follow from the algebra written
next to each entry, not from running the validator.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

FAMILIES = ("chain", "chain_z2", "chaotic", "chaotic_z2")


@dataclass
class Doc:
    """A generated table, kept as sections so that mutations can edit it."""

    name: str
    objects: list[str]
    arrows: dict[str, tuple[str, str]]  # non-identity arrows only
    compose: dict[tuple[str, str], str]  # non-identity pairs only
    cells: dict[str, tuple[str, str]] = field(default_factory=dict)
    vcomp: dict[tuple[str, str], str] = field(default_factory=dict)
    lwhisk: dict[tuple[str, str], str] = field(default_factory=dict)
    rwhisk: dict[tuple[str, str], str] = field(default_factory=dict)
    sigma: list[str] = field(default_factory=list)
    seed: int = 0

    def text(self) -> str:
        rng = random.Random(f"{self.seed}:{self.name}:lines")

        def block(header: str, lines: list[str]) -> list[str]:
            lines = list(lines)
            rng.shuffle(lines)
            return [header] + [f"  {ln}" for ln in lines]

        out = ["strict true", "objects: " + " ".join(self.objects)]
        out += block("arrows:", [f"{a} : {x} -> {y}" for a, (x, y) in self.arrows.items()])
        out += block("compose:", [f"{g} . {f} = {h}" for (g, f), h in self.compose.items()])
        out += block("cells:", [f"{c} : {f} => {g}" for c, (f, g) in self.cells.items()])
        out += block("vcomp:", [f"{b} . {a} = {c}" for (b, a), c in self.vcomp.items()])
        out += block("lwhisk:", [f"{g} * {a} = {c}" for (g, a), c in self.lwhisk.items()])
        out += block("rwhisk:", [f"{a} * {f} = {c}" for (a, f), c in self.rwhisk.items()])
        out.append("sigma: " + " ".join(self.sigma))
        return "\n".join(out) + "\n"


def _hom_pairs(family: str, n: int) -> list[tuple[int, int]]:
    if family.startswith("chain"):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def generate(family: str, n: int, seed: int, marked: bool = False) -> Doc:
    """The family's table on n objects; ``marked`` puts every arrow in sigma."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = random.Random(f"{seed}:{family}:{n}")
    labels = list(range(n))
    rng.shuffle(labels)
    obj = [f"o{labels[i]}" for i in range(n)]

    def arrow(i: int, j: int) -> str:
        return f"id_{obj[i]}" if i == j else f"a{labels[i]}_{labels[j]}"

    pairs = _hom_pairs(family, n)
    doc = Doc(
        name=f"{family}{n}",
        objects=obj,
        arrows={arrow(i, j): (obj[i], obj[j]) for i, j in pairs},
        compose={},
        seed=seed,
    )
    for i, j in pairs:
        for j2, k in pairs:
            if j2 == j:
                doc.compose[(arrow(j, k), arrow(i, j))] = arrow(i, k)
    if family.endswith("_z2"):
        all_pairs = pairs + [(i, i) for i in range(n)]
        for i, j in all_pairs:
            f = arrow(i, j)
            doc.cells[f"z_{f}"] = (f, f)
            doc.vcomp[(f"z_{f}", f"z_{f}")] = f"id_{f}"
        # whiskers along identity arrows are filled in by the strict loader
        for i, j in all_pairs:
            for j2, k in pairs:
                if j2 == j:
                    doc.lwhisk[(arrow(j, k), f"z_{arrow(i, j)}")] = f"z_{arrow(i, k)}"
            for h, i2 in pairs:
                if i2 == i:
                    doc.rwhisk[(f"z_{arrow(i, j)}", arrow(h, i))] = f"z_{arrow(h, j)}"
    if marked:
        doc.sigma = sorted(doc.arrows)
    return doc


# -- mutation catalogue -------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    name: str
    expected: str  # the axiom tag the validator must report
    z2_only: bool
    why: str


MUTATIONS = (
    Mutation(
        "compose-retarget", "hcomp1-typing", False,
        "one composite g . f names an arrow with the wrong boundary",
    ),
    Mutation(
        "extra-arrow", "hcomp1-totality", False,
        "a new arrow parallel to a_ij has no composites with the other arrows",
    ),
    Mutation(
        "extra-cell", "vcomp-totality", False,
        "a new cell c : f => f has no vertical composite c . c",
    ),
    Mutation(
        "vcomp-retarget", "vcomp-typing", True,
        "z_f . z_f names a cell on another arrow",
    ),
    Mutation(
        "rwhisk-retarget", "rwhisk-typing", True,
        "z_g * f names z_g, which is not a cell on g f",
    ),
    Mutation(
        "zz-is-z", "W3", True,
        "z_f . z_f = z_f; then g * (z . z) = z_gf but (g * z) . (g * z) = id_gf",
    ),
    Mutation(
        "whisker-to-identity", "Ntheta1", True,
        "g * z_f = id_gf; every earlier group still holds, but "
        "h * (g * z_f) = id_hgf while (h g) * z_f = z_hgf",
    ),
)

MUTATION_BY_NAME = {m.name: m for m in MUTATIONS}


def mutations_for(family: str) -> tuple[Mutation, ...]:
    return tuple(m for m in MUTATIONS if family.endswith("_z2") or not m.z2_only)


def _composable_triples(doc: Doc) -> list[tuple[str, str, str]]:
    """(h, g, f) of non-identity arrows with h after g after f."""
    src = {a: x for a, (x, _) in doc.arrows.items()}
    dst = {a: y for a, (_, y) in doc.arrows.items()}
    out = []
    for (g, f) in sorted(doc.compose):
        for h in sorted(doc.arrows):
            if src[h] == dst[g]:
                out.append((h, g, f))
    return out


def mutate(doc: Doc, name: str, seed: int) -> Doc:
    """A copy of doc with one seeded instance of the named mutation."""
    rng = random.Random(f"{seed}:{doc.name}:{name}")
    m = replace(
        doc,
        name=f"{doc.name}-{name}",
        arrows=dict(doc.arrows),
        compose=dict(doc.compose),
        cells=dict(doc.cells),
        vcomp=dict(doc.vcomp),
        lwhisk=dict(doc.lwhisk),
        rwhisk=dict(doc.rwhisk),
    )
    pairs = sorted(doc.compose)
    if name == "compose-retarget":
        g, f = rng.choice(pairs)
        # f itself runs src(f) -> dst(f) != dst(g), so the boundary is wrong
        m.compose[(g, f)] = f
    elif name == "extra-arrow":
        _, f = rng.choice(pairs)
        m.arrows[f"x_{f}"] = doc.arrows[f]
    elif name == "extra-cell":
        _, f = rng.choice(pairs)
        m.cells[f"c_{f}"] = (f, f)
    elif name == "vcomp-retarget":
        g, f = rng.choice(pairs)
        m.vcomp[(f"z_{f}", f"z_{f}")] = f"z_{g}"
    elif name == "rwhisk-retarget":
        g, f = rng.choice(pairs)
        m.rwhisk[(f"z_{g}", f)] = f"z_{g}"
    elif name == "zz-is-z":
        _, f = rng.choice(pairs)  # f has a non-identity g after it, g f != f
        m.vcomp[(f"z_{f}", f"z_{f}")] = f"z_{f}"
    elif name == "whisker-to-identity":
        _, g, f = rng.choice(_composable_triples(doc))
        m.lwhisk[(g, f"z_{f}")] = f"id_{doc.compose[(g, f)]}"
    else:
        raise ValueError(f"unknown mutation {name!r}")
    return m


# -- closed forms -------------------------------------------------------------


def chaotic_2functor_count(n: int, m: int) -> int:
    """2-functors chaotic(n) -> chaotic(m): any object map, arrows forced."""
    return m**n


def chaotic_probe_count(n: int, z2: bool) -> int:
    """Probes ``enumerate_probes`` must find on chaotic(n) (optionally x Z/2)
    with sigma = all arrows and the default targets triv, iso, grpd, split.

    Into triv: 1.  Into iso = chaotic(2): 2^n.  Into grpd: 1 without Z/2 and 2
    with it (z goes to id or to g).  Into split: 2 (everything lands on X, or
    on Y with every arrow sent to id_Y, since s . r = e is not an identity).
    Into the table itself: n^n, times 2 with Z/2 (z goes to z or to id)."""
    if z2:
        return 1 + 2**n + 2 + 2 + 2 * n**n
    return 1 + 2**n + 1 + 2 + n**n


def witness_count(doc: Doc) -> int:
    """Axiom instances a full validation sweep of doc checks, counted from
    the table's shape: composable arrow chains and cells per arrow.

    Per composable pair (g, f): hcomp1 totality, W2, triangle, both whisker
    totalities (c_f + c_g), W1 (c_f c_g) and interchange H2 (c_f^2 c_g^2).
    Per arrow f: vertical totality (c_f^2), associativity (c_f^3), W3
    (c_f^2 times the arrows composable on either side), strict unitality and
    two unitor naturalities per cell.  Per composable triple (h, g, f):
    Ntheta1-3 (c_f + c_g + c_h) and strict associativity.  Per composable
    quadruple: the pentagon.  Generated cells are all endo-cells f => f."""
    arrows = dict(doc.arrows)
    for x in doc.objects:
        arrows[f"id_{x}"] = (x, x)
    cells = {f: 1 for f in arrows}
    for f, _ in doc.cells.values():
        cells[f] += 1
    out_of: dict[str, list[str]] = {x: [] for x in doc.objects}
    for f, (x, _) in arrows.items():
        out_of[x].append(f)
    into = {x: sum(1 for (_, y) in arrows.values() if y == x) for x in doc.objects}
    total = 0
    chains = [[f] for f in arrows]  # chains listed first-applied-first
    for length in (1, 2, 3, 4):
        for chain in chains:
            c = [cells[f] for f in chain]
            if length == 1:
                f = chain[0]
                x, y = arrows[f]
                total += c[0] ** 2 + c[0] ** 3 + c[0] ** 2 * (len(out_of[y]) + into[x])
                total += 1 + 2 * c[0]
            elif length == 2:
                total += 3 + c[0] + c[1] + c[0] * c[1] + c[0] ** 2 * c[1] ** 2
            elif length == 3:
                total += c[0] + c[1] + c[2] + 1
            else:
                total += 1
        if length < 4:
            chains = [ch + [g] for ch in chains for g in out_of[arrows[ch[-1]][1]]]
    return total
