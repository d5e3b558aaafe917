import random

import pytest

from bicatkit.core import Bicategory, StructureError
from bicatkit.elevator import (
    Layer,
    ModelAssignment,
    evaluate,
    expr_equal,
    load_computad,
    make_computad,
    make_expr,
    normalize,
    parse_expr,
    render,
    stack,
    _exchange,
)
from bicatkit.presentation import ParseError

W1_COMPUTAD = make_computad(
    "w1",
    ["X", "Y", "Z"],
    {"f1": ("X", "Y"), "f2": ("X", "Y"), "g1": ("Y", "Z"), "g2": ("Y", "Z")},
    {"al": (("f1",), ("f2",)), "be": (("g1",), ("g2",))},
)

GRPD_COMPUTAD = make_computad("gc", ["P"], {}, {"g": ((), (), "P")})


def glayers(n):
    return [Layer((), "g", ())] * n


def test_identity_expression_normalizes_to_itself():
    ide = make_expr(W1_COMPUTAD, [], ("g1", "f1"))
    assert normalize(ide).expr.layers == ()
    assert normalize(ide).expr.boundary() == ((("g1", "f1")), ("g1", "f1"))


def test_basic_move_identifies_both_w1_composites():
    lhs = make_expr(W1_COMPUTAD, [Layer((), "be", ("f1",)), Layer(("g2",), "al", ())])
    rhs = make_expr(W1_COMPUTAD, [Layer(("g1",), "al", ()), Layer((), "be", ("f2",))])
    assert expr_equal(lhs, rhs)
    assert normalize(lhs) == normalize(rhs)


def test_distinct_generators_with_equal_boundary_differ():
    comp = make_computad(
        "pair", ["X", "Y"], {"f": ("X", "Y"), "h": ("X", "Y")},
        {"a1": (("f",), ("h",)), "a2": (("f",), ("h",))},
    )
    e1 = make_expr(comp, [Layer((), "a1", ())])
    e2 = make_expr(comp, [Layer((), "a2", ())])
    assert expr_equal(e1, e1)
    assert not expr_equal(e1, e2)


def test_boundary_mismatch_raises():
    e1 = make_expr(GRPD_COMPUTAD, glayers(1))
    ide = make_expr(W1_COMPUTAD, [], ("g1", "f1"))
    with pytest.raises(StructureError):
        expr_equal(e1, ide)


def test_identities_on_different_objects_have_different_normal_forms():
    # both have no layers and the empty boundary path; only the anchor differs
    on_x = normalize(make_expr(W1_COMPUTAD, [], (), "X"))
    on_y = normalize(make_expr(W1_COMPUTAD, [], (), "Y"))
    assert on_x != on_y and len({on_x, on_y}) == 2
    assert on_x == normalize(make_expr(W1_COMPUTAD, [], (), "X"))


def test_normalize_idempotent_on_random_grpd_expressions():
    rng = random.Random(7)
    for _ in range(300):
        e = make_expr(GRPD_COMPUTAD, glayers(rng.randint(0, 6)), (), "P")
        n = normalize(e)
        assert normalize(n.expr) == n


def cyclic_model(order: int, name: str) -> tuple[Bicategory, ModelAssignment]:
    cells = {f"c{i}": ("id_P", "id_P") for i in range(order)}
    cells["id_id_P"] = ("id_P", "id_P")
    vcomp = {}
    names = ["id_id_P"] + [f"c{i}" for i in range(1, order)]

    def nm(i):
        return names[i % order]

    for i in range(order):
        for j in range(order):
            vcomp[(nm(i), nm(j))] = nm(i + j)
    lw = {("id_P", nm(i)): nm(i) for i in range(order)}
    rw = {(nm(i), "id_P"): nm(i) for i in range(order)}
    bic = Bicategory(
        name=name,
        objects=("P",),
        arrows={"id_P": ("P", "P")},
        id1={"P": "id_P"},
        hcomp1={("id_P", "id_P"): "id_P"},
        cells={nm(i): ("id_P", "id_P") for i in range(order)},
        idc={"id_P": "id_id_P"},
        vcomp=vcomp,
        lwhisk=lw,
        rwhisk=rw,
        lunitor={"id_P": "id_id_P"},
        runitor={"id_P": "id_id_P"},
        assoc={("id_P", "id_P", "id_P"): "id_id_P"},
        strict=True,
    )
    assign = ModelAssignment(bic, {"P": "P"}, {}, {"g": nm(1)})
    return bic, assign


def saturating_model(cap: int, name: str) -> tuple[Bicategory, ModelAssignment]:
    names = [f"n{i}" for i in range(cap + 1)]
    names[0] = "id_id_P"

    def nm(i):
        return names[min(i, cap)]

    vcomp = {}
    for i in range(cap + 1):
        for j in range(cap + 1):
            vcomp[(nm(i), nm(j))] = nm(i + j)
    bic = Bicategory(
        name=name,
        objects=("P",),
        arrows={"id_P": ("P", "P")},
        id1={"P": "id_P"},
        hcomp1={("id_P", "id_P"): "id_P"},
        cells={nm(i): ("id_P", "id_P") for i in range(cap + 1)},
        idc={"id_P": "id_id_P"},
        vcomp=vcomp,
        lwhisk={("id_P", nm(i)): nm(i) for i in range(cap + 1)},
        rwhisk={(nm(i), "id_P"): nm(i) for i in range(cap + 1)},
        lunitor={"id_P": "id_id_P"},
        runitor={"id_P": "id_id_P"},
        assoc={("id_P", "id_P", "id_P"): "id_id_P"},
        strict=True,
    )
    assign = ModelAssignment(bic, {"P": "P"}, {}, {"g": nm(1)})
    return bic, assign


def test_scratch_models_are_valid_bicategories():
    from bicatkit.core import validate_bicategory

    for bic, _ in (cyclic_model(5, "z5"), saturating_model(7, "sat7")):
        assert validate_bicategory(bic).ok


def test_equal_normal_forms_evaluate_equal_in_random_models():
    rng = random.Random(41)
    models = [cyclic_model(k, f"z{k}") for k in (2, 3, 5)] + [
        saturating_model(7, "sat7")
    ]
    for _ in range(120):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
        e1 = make_expr(GRPD_COMPUTAD, glayers(n1), (), "P")
        e2 = make_expr(GRPD_COMPUTAD, glayers(n2), (), "P")
        eq = expr_equal(e1, e2)
        for _, assign in models:
            same = evaluate(assign, e1) == evaluate(assign, e2)
            if eq:
                assert same  # soundness in every model
        # completeness against the saturating counter
        _, sat = models[-1]
        if not eq:
            assert evaluate(sat, e1) != evaluate(sat, e2)


def test_eq1_evaluates_equal_in_grpd(grpd):
    bic = grpd.bicategory
    # both rewriting orders of two stacked cells on the identity arrow
    assign = ModelAssignment(bic, {"P": "P"}, {}, {"g": "g"})
    e1 = make_expr(GRPD_COMPUTAD, glayers(2), (), "P")
    # independent table computation: g o g
    assert evaluate(assign, e1) == bic.vertical("g", "g")
    ide = make_expr(GRPD_COMPUTAD, [], (), "P")
    assert evaluate(assign, ide) == bic.idc["id_P"]


def test_w1_sides_evaluate_equal_in_tabulated_model(twocell):
    bic = twocell.bicategory
    comp = W1_COMPUTAD
    assign = ModelAssignment(
        bic,
        {"X": "U", "Y": "V", "Z": "V"},
        {"f1": "m", "f2": "m", "g1": "id_V", "g2": "id_V"},
        {"al": "k", "be": "j"},
    )
    lhs = make_expr(comp, [Layer((), "be", ("f1",)), Layer(("g2",), "al", ())])
    rhs = make_expr(comp, [Layer(("g1",), "al", ()), Layer((), "be", ("f2",))])
    assert expr_equal(lhs, rhs)
    assert evaluate(assign, lhs) == evaluate(assign, rhs)
    # normalization preserved the value
    assert evaluate(assign, normalize(lhs).expr) == evaluate(assign, lhs)


def test_confluence_random_exchange_sequences_share_normal_form():
    rng = random.Random(11)
    base = [Layer((), "be", ("f1",)), Layer(("g2",), "al", ())]
    e = make_expr(W1_COMPUTAD, base)
    target = normalize(e)
    for _ in range(50):
        layers = list(e.layers)
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(max(1, len(layers) - 1))
            moved = _exchange(W1_COMPUTAD, layers[i], layers[i + 1]) if i + 1 < len(layers) else None
            if moved:
                layers[i], layers[i + 1] = moved
        scrambled = make_expr(W1_COMPUTAD, layers)
        assert normalize(scrambled) == target


CHAIN3 = make_computad(
    "chain3",
    ["W", "X", "Y", "Z"],
    {
        "a1": ("W", "X"), "a2": ("W", "X"),
        "b1": ("X", "Y"), "b2": ("X", "Y"),
        "c1": ("Y", "Z"), "c2": ("Y", "Z"),
    },
    {"A": (("a1",), ("a2",)), "B": (("b1",), ("b2",)), "C": (("c1",), ("c2",))},
)


def test_confluence_exhaustive_over_chain_interleavings():
    # fire any subset of the three generators in any order: all interleavings
    # of the same subset present the same 2-cell, hence one normal form
    import itertools as it

    def stack_for(order):
        state = {"A": "a1", "B": "b1", "C": "c1"}
        layers = []
        for gen in order:
            if gen == "A":
                layers.append(Layer((state["C"], state["B"]), "A", ()))
                state["A"] = "a2"
            elif gen == "B":
                layers.append(Layer((state["C"],), "B", (state["A"],)))
                state["B"] = "b2"
            else:
                layers.append(Layer((), "C", (state["B"], state["A"])))
                state["C"] = "c2"
        return make_expr(CHAIN3, layers)

    for subset_size in (2, 3):
        for subset in it.combinations("ABC", subset_size):
            forms = {normalize(stack_for(order)) for order in it.permutations(subset)}
            assert len(forms) == 1, subset


def test_expr_equal_is_congruence_for_stack():
    e1 = make_expr(W1_COMPUTAD, [Layer((), "be", ("f1",)), Layer(("g2",), "al", ())])
    e2 = make_expr(W1_COMPUTAD, [Layer(("g1",), "al", ()), Layer((), "be", ("f2",))])
    ide = make_expr(W1_COMPUTAD, [], ("g2", "f2"))
    assert expr_equal(stack(e1, ide), e2)


def test_parse_and_render_roundtrip():
    e = parse_expr(W1_COMPUTAD, "1 * be * f1 ; g2 * al * 1")
    assert str(e) == "1 * be * f1 ; g2 * al * 1"
    art = render(e)
    assert "[be]" in art and "[al]" in art
    ide = parse_expr(W1_COMPUTAD, "1 : g1.f1")
    assert ide.layers == ()


def test_load_computad_document():
    doc = """
objects: X Y
arrows:
  f : X -> Y
cells:
  a : f => f
  sc : 1 => 1 @ X
"""
    comp = load_computad(doc, name="doc")
    assert comp.cells["a"] == (("f",), ("f",), "X", "Y")
    assert comp.cells["sc"] == ((), (), "X", "X")


@pytest.mark.parametrize(
    "cell, message",
    (
        ("b : f => 1", "cell 'b' boundary paths not parallel"),
        ("b : f . f => f", "path breaks at 'f' . 'f'"),
    ),
    ids=("not-parallel", "path-breaks"),
)
def test_computad_errors_name_the_line_of_the_cell_at_fault(cell, message):
    doc = f"objects: X Y\narrows:\n  f : X -> Y\n  g : Y -> X\ncells:\n  a : f => f\n  {cell}\n"
    with pytest.raises(ParseError) as err:
        load_computad(doc, name="doc")
    assert str(err.value) == f"line 7, column 1: doc: {message}"
    with pytest.raises(StructureError) as err:
        make_computad("doc", ["X", "Y"], {"f": ("X", "Y")}, {"b": (("f",), ())})
    assert err.value.arrows == ("b",)


def test_render_places_a_cell_without_inputs_mid_row_and_at_the_right_end():
    """A layer whose cell has an empty input path puts its label one column
    past the wire to its left, slid right past any bar it would cover, and
    the cell row grows to hold it; golden bytes."""
    comp = make_computad(
        "units", ["X", "Y", "Z"],
        {"f": ("X", "Y"), "g": ("Y", "Z"), "k": ("Y", "Y"), "m": ("X", "X")},
        {"u": ((), ("k",), "Y"), "v": ((), ("m",), "X")},
    )
    mid = make_expr(comp, [Layer(("g",), "u", ("f",))])
    end = make_expr(comp, [Layer(("g", "f"), "v", ())])
    both = make_expr(comp, [Layer(("g",), "u", ("f",)), Layer(("g", "k", "f"), "v", ())])
    assert render(mid) == "g . f\n|   | [u]\ng . k . f\n"
    assert render(end) == "g . f\n|   | [v]\ng . f . m\n"
    assert render(both) == "g . f\n|   | [u]\ng . k . f\n|   |   | [v]\ng . k . f . m\n"


def test_render_never_covers_the_bar_of_a_passing_wire():
    """A label that fits between the bars of its neighbours stays there; one
    that would cover a passing wire's bar moves right of it; a cell on the
    empty path has no bars at all; golden bytes."""
    comp = make_computad(
        "wide", ["X", "Y", "Z"],
        {"ff": ("X", "Y"), "gg": ("Y", "Z"), "k": ("Y", "Y"), "m": ("X", "X")},
        {"u": ((), ("k",), "Y"), "v": ((), ("m",), "X"), "longer": (("gg",), ("gg",))},
    )
    between = make_expr(comp, [Layer(("gg",), "u", ("ff",))])
    over = make_expr(comp, [Layer((), "longer", ("ff",))])
    empty = make_expr(comp, [Layer((), "v", ())], ())
    assert render(between) == "gg . ff\n | [u]|\ngg . k . ff\n"
    assert render(over) == "gg . ff\n      | [longer]\ngg . ff\n"
    assert render(empty) == "(1)\n[v]\nm\n"
