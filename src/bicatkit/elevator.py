"""Layered 2-cell expressions over a computad, with exchange-move normalization.

An expression is a vertical stack of layers; each layer whiskers one generator
cell by arrow paths on both sides.  Two layers whose cells occupy disjoint
column ranges can be exchanged; the normal form bubbles every cell as high as
it can go, leftmost first, so expressions denote equal 2-cells of the free
2-category on the computad exactly when their normal forms are syntactically
identical.

Paths are tuples of generator arrows written outermost-first ("g.f" is g after
f); the empty path is written "1".  Expression text is ``layer (';' layer)*``
with ``layer = path '*' cell '*' path``; an identity expression is written
``1 : path`` (with ``1 : 1 @ X`` for the identity on an identity arrow).
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .core import Bicategory, StructureError
from .presentation import COMPUTAD, Document, ParseError, parse_path

Path = tuple[str, ...]


class Computad(NamedTuple):
    """Generators of a free 2-category: arrows between objects, cells between
    parallel arrow paths."""

    name: str
    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]
    cells: dict[str, tuple[Path, Path, str, str]]  # in, out, src obj, dst obj

    def path_ends(self, path: Path, anchor: str | None = None) -> tuple[str, str]:
        """(src, dst) objects of a path; empty paths need an anchor object."""
        if not path:
            if anchor is None:
                raise StructureError(f"{self.name}: empty path needs an object anchor")
            return anchor, anchor
        for name in path:
            if name not in self.arrows:
                raise StructureError(f"{self.name}: unknown arrow {name!r} in path")
        for left, right in zip(path, path[1:]):
            if self.arrows[right][1] != self.arrows[left][0]:
                raise StructureError(
                    f"{self.name}: path breaks at {left!r} . {right!r}"
                )
        return self.arrows[path[-1]][0], self.arrows[path[0]][1]


def make_computad(
    name: str,
    objects: list[str],
    arrows: dict[str, tuple[str, str]],
    cells: dict[str, tuple[Path, Path]] | dict[str, tuple[Path, Path, str]],
) -> Computad:
    """Validate and close generator data; cell boundaries must be parallel.

    A cell value may carry a third component naming the boundary object, which
    is required when both paths are empty.
    """
    for f, (x, y) in arrows.items():
        if x not in objects or y not in objects:
            raise StructureError(f"{name}: arrow {f!r} references unknown object")
    full: dict[str, tuple[Path, Path, str, str]] = {}
    tmp = Computad(name, tuple(objects), dict(arrows), {})
    for c, spec in cells.items():
        pin, pout = spec[0], spec[1]
        anchor = spec[2] if len(spec) > 2 else None
        if anchor is not None and anchor not in objects:
            raise StructureError(f"{name}: cell {c!r} anchored at unknown object")
        if pin:
            ends = tmp.path_ends(pin)
        elif pout:
            ends = tmp.path_ends(pout)
        else:
            ends = tmp.path_ends(pin, anchor)
        if tmp.path_ends(pin, ends[0]) != ends or tmp.path_ends(pout, ends[0]) != ends:
            raise StructureError(f"{name}: cell {c!r} boundary paths not parallel")
        full[c] = (tuple(pin), tuple(pout), ends[0], ends[1])
    return Computad(name, tuple(objects), dict(arrows), full)


class Layer(NamedTuple):
    left: Path
    cell: str
    right: Path

    def __str__(self) -> str:
        def p(path: Path) -> str:
            return ".".join(path) if path else "1"

        return f"{p(self.left)} * {self.cell} * {p(self.right)}"


class CellExpr(NamedTuple):
    computad: Computad
    layers: tuple[Layer, ...]
    src_path: Path
    dst_path: Path
    src_obj: str
    dst_obj: str

    def boundary(self) -> tuple[Path, Path]:
        return self.src_path, self.dst_path

    def __str__(self) -> str:
        if not self.layers:
            path = ".".join(self.src_path) if self.src_path else "1"
            return f"1 : {path}" + ("" if self.src_path else f" @ {self.src_obj}")
        return " ; ".join(str(layer) for layer in self.layers)


def _layer_io(comp: Computad, layer: Layer) -> tuple[Path, Path]:
    pin, pout, _, _ = comp.cells[layer.cell]
    return layer.left + pin + layer.right, layer.left + pout + layer.right


def make_expr(
    comp: Computad,
    layers: list[Layer] | tuple[Layer, ...],
    boundary_path: Path | None = None,
    anchor: str | None = None,
) -> CellExpr:
    """Type-check a layer stack.  Identity expressions (no layers) need the
    boundary path, and an anchor object when that path is empty."""
    layers = tuple(layers)
    if not layers:
        if boundary_path is None:
            raise StructureError("identity expression needs its boundary path")
        src, dst = comp.path_ends(tuple(boundary_path), anchor)
        return CellExpr(comp, (), tuple(boundary_path), tuple(boundary_path), src, dst)
    for layer in layers:
        if layer.cell not in comp.cells:
            raise StructureError(f"unknown generator cell {layer.cell!r}")
    first_in, _ = _layer_io(comp, layers[0])
    prev_out: Path | None = None
    anchor_obj: str | None = None
    for layer in layers:
        pin, pout = _layer_io(comp, layer)
        _, _, cell_src_obj, cell_dst_obj = comp.cells[layer.cell]
        if layer.left and comp.path_ends(layer.left)[0] != cell_dst_obj:
            raise StructureError(f"layer {layer}: left whisker does not meet cell")
        if layer.right and comp.path_ends(layer.right)[1] != cell_src_obj:
            raise StructureError(f"layer {layer}: right whisker does not meet cell")
        right_src = comp.path_ends(layer.right, cell_src_obj)[0]
        comp.path_ends(pin, right_src)
        comp.path_ends(pout, right_src)
        if prev_out is not None and pin != prev_out:
            raise StructureError(
                f"layer {layer}: input {pin} does not match previous output {prev_out}"
            )
        prev_out = pout
        if anchor_obj is None:
            anchor_obj = right_src
    assert prev_out is not None and anchor_obj is not None
    src, dst = comp.path_ends(first_in, anchor_obj)
    return CellExpr(comp, layers, first_in, prev_out, src, dst)


class NormalForm(NamedTuple):
    expr: CellExpr

    @property
    def _key(self) -> tuple:
        """What makes two normal forms equal: the layers, the boundary paths
        and the boundary objects, which tell identities apart on empty paths."""
        e = self.expr
        return e.layers, e.boundary(), e.src_obj, e.dst_obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NormalForm) and self._key == other._key

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self._key)


def _exchange(comp: Computad, above: Layer, below: Layer) -> tuple[Layer, Layer] | None:
    """Try to move `below` above `above` (one basic move); None when blocked."""
    in_a, out_a = comp.cells[above.cell][0], comp.cells[above.cell][1]
    in_b, out_b = comp.cells[below.cell][0], comp.cells[below.cell][1]
    la, oa, ia = len(above.left), len(out_a), len(in_a)
    m, ib = len(below.left), len(in_b)
    p_in = above.left + in_a + above.right
    if m + ib <= la:
        new_first = Layer(below.left, below.cell, p_in[m + ib :])
        new_second_left = below.left + out_b + p_in[m + ib : la]
        return new_first, Layer(new_second_left, above.cell, above.right)
    if m >= la + oa:
        k = m - la - oa
        new_first = Layer(above.left + in_a + above.right[:k], below.cell, below.right)
        new_second_right = above.right[:k] + out_b + above.right[k + ib :]
        return new_first, Layer(above.left, above.cell, new_second_right)
    return None


def _bubble_to_top(comp: Computad, layers: list[Layer], j: int) -> list[Layer] | None:
    """Exchange layer j upwards to index 0; None if any step is blocked."""
    work = list(layers)
    for k in range(j, 0, -1):
        moved = _exchange(comp, work[k - 1], work[k])
        if moved is None:
            return None
        work[k - 1], work[k] = moved
    return work


def normalize(expr: CellExpr) -> NormalForm:
    """Greedy leftmost-uppermost normal form under the basic exchange move.

    Repeatedly extracts, among the layers that can be exchanged all the way to
    the top, the one whose top form has the shortest left whisker (ties broken
    by cell name, then original position).  Idempotent; equal on two
    expressions exactly when they present the same free 2-category cell.
    """
    comp = expr.computad
    remaining = list(expr.layers)
    result: list[Layer] = []
    while remaining:
        best: tuple[tuple[int, str, int], list[Layer]] | None = None
        for j in range(len(remaining)):
            bubbled = _bubble_to_top(comp, remaining, j)
            if bubbled is None:
                continue
            top = bubbled[0]
            key = (len(top.left), top.cell, j)
            if best is None or key < best[0]:
                best = (key, bubbled)
        assert best is not None, "layer 0 can always bubble to the top"
        result.append(best[1][0])
        remaining = best[1][1:]
    return NormalForm(make_expr(comp, result, expr.src_path, expr.src_obj))


def expr_equal(e1: CellExpr, e2: CellExpr) -> bool:
    """Decide equality in the free 2-category; boundaries must agree."""
    if e1.computad is not e2.computad and e1.computad != e2.computad:
        raise StructureError("expressions live over different computads")
    if e1.boundary() != e2.boundary() or (e1.src_obj, e1.dst_obj) != (
        e2.src_obj,
        e2.dst_obj,
    ):
        raise StructureError(
            f"boundary mismatch: {e1.boundary()} vs {e2.boundary()}"
        )
    return normalize(e1) == normalize(e2)


def stack(first: CellExpr, then: CellExpr) -> CellExpr:
    """Vertical composite: `then` after `first`."""
    if first.dst_path != then.src_path:
        raise StructureError("stack: inner boundaries do not match")
    return make_expr(
        first.computad,
        first.layers + then.layers,
        first.src_path,
        first.src_obj,
    )


class ModelAssignment(NamedTuple):
    """Interpretation of a computad in a strict tabulated bicategory."""

    bic: Bicategory
    obj_map: dict[str, str]
    arr_map: dict[str, str]
    cell_map: dict[str, str]

    def check(self, comp: Computad) -> None:
        b = self.bic
        b.require_strict("elevator evaluation")
        for x in comp.objects:
            if self.obj_map.get(x) not in b.objects:
                raise StructureError(f"object {x!r} not mapped into {b.name}")
        for f, (x, y) in comp.arrows.items():
            ff = self.arr_map.get(f)
            if ff is None or b.arrows.get(ff) != (self.obj_map[x], self.obj_map[y]):
                raise StructureError(f"arrow generator {f!r} badly mapped")
        for c, (pin, pout, x, _) in comp.cells.items():
            cc = self.cell_map.get(c)
            if cc is None or cc not in b.cells:
                raise StructureError(f"cell generator {c!r} not mapped")
            want = (self.path_value(pin, x), self.path_value(pout, x))
            if b.cells[cc] != want:
                raise StructureError(f"cell generator {c!r} boundary mismatch")

    def path_value(self, path: Path, anchor: str) -> str:
        """The composite of a path's arrow images; an empty path is the
        identity on the image of its anchor object."""
        if not path:
            return self.bic.id1[self.obj_map[anchor]]
        return self.bic.compose_path(self.arr_map[f] for f in path)


def evaluate(assign: ModelAssignment, expr: CellExpr) -> str:
    """Value of an expression under an interpretation; vcomp of layer values."""
    comp = expr.computad
    b = assign.bic
    assign.check(comp)
    if not expr.layers:
        return b.idc[assign.path_value(expr.src_path, expr.src_obj)]
    acc: str | None = None
    for layer in expr.layers:
        pin, pout, x, _ = comp.cells[layer.cell]
        val = assign.cell_map[layer.cell]
        if layer.right:
            val = b.whisker_r(val, assign.path_value(layer.right, ""))
        if layer.left:
            val = b.whisker_l(assign.path_value(layer.left, ""), val)
        acc = val if acc is None else b.vertical(val, acc)
    assert acc is not None
    return acc


# -- text syntax ----------------------------------------------------------


def parse_expr(comp: Computad, text: str) -> CellExpr:
    """Text that does not fit the grammar is a ParseError at its column; a
    well-formed expression that does not type-check is a StructureError."""
    text = text.strip()
    m = re.fullmatch(r"1\s*:\s*([^@]+?)(?:\s*@\s*(\S+))?", text)
    path, layers = None, []
    column = start = 0
    try:
        if m:
            column = m.start(1)
            path = parse_path(m.group(1))
        else:
            for chunk in text.split(";"):
                column = start + len(chunk) - len(chunk.lstrip())
                start += len(chunk) + 1
                parts = [p.strip() for p in chunk.split("*")]
                if len(parts) != 3 or not parts[1]:
                    raise StructureError(f"bad layer {chunk.strip()!r}: want path * cell * path")
                layers.append(Layer(parse_path(parts[0]), parts[1], parse_path(parts[2])))
    except StructureError as exc:
        raise ParseError(str(exc), 1, column + 1) from exc
    return make_expr(comp, layers, path, m.group(2) if m else None)


def load_computad(text: str, name: str = "computad") -> Computad:
    """Computad documents: objects:, arrows: (name : X -> Y) and cells:
    (name : path => path, optionally '@ obj' for scalar cells)."""
    doc = Document(COMPUTAD, text)
    objects = doc.read("objects")
    arrows = doc.read("arrows", {"object": objects})
    cells = doc.read("cells", {"object": objects, "arrow": arrows})
    try:
        return make_computad(name, list(objects), arrows, cells)
    except StructureError as exc:
        raise ParseError(str(exc), 1) from exc


def render(expr: CellExpr) -> str:
    """Monospace elevator diagram: wire rows alternate with cell rows."""
    comp = expr.computad

    def path_row(path: Path) -> tuple[str, list[tuple[int, int]]]:
        if not path:
            return "(1)", []
        spans = []
        pos = 0
        chunks = []
        for i, nm in enumerate(path):
            if i:
                chunks.append(" . ")
                pos += 3
            chunks.append(nm)
            spans.append((pos, len(nm)))
            pos += len(nm)
        return "".join(chunks), spans

    lines: list[str] = []
    if not expr.layers:
        row, _ = path_row(expr.src_path)
        return row + "\n"
    current = expr.src_path
    row, spans = path_row(current)
    lines.append(row)
    for layer in expr.layers:
        pin, pout, _, _ = comp.cells[layer.cell]
        lo = len(layer.left)
        hi = lo + len(pin)
        label = f"[{layer.cell}]"
        bars = [s + w // 2 for i, (s, w) in enumerate(spans) if not lo <= i < hi]
        if lo < hi:
            start = spans[lo][0]  # over its first input
        elif lo:
            start = sum(spans[lo - 1]) + 1  # one column past the wire to its left
        else:
            start = 0
        for bar in bars:  # slide right past every bar the label would cover
            if start <= bar < start + len(label):
                start = bar + 2
        cellrow = [" "] * max(len(row), start + len(label))
        for bar in bars:
            cellrow[bar] = "|"
        cellrow[start : start + len(label)] = label
        lines.append("".join(cellrow).rstrip())
        current = layer.left + pout + layer.right
        row, spans = path_row(current)
        lines.append(row)
    return "\n".join(lines) + "\n"
