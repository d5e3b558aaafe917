"""Bundled presentation fixtures and the default probe target library."""
from __future__ import annotations

from functools import cache
from importlib import resources
from typing import TYPE_CHECKING

from .core import Bicategory, PseudofunctorData
from .presentation import (
    Presentation,
    load_presentation_with_sigma,
    load_pseudofunctor,
)

if TYPE_CHECKING:
    from .sigma import SigmaClass

BICATEGORIES = ("triv", "split", "iso", "grpd", "chain_src", "chain_tgt")

# targets probes are enumerated into, unless overridden
DEFAULT_PROBE_TARGETS = ("triv", "iso", "grpd", "split")


def fixture_text(filename: str) -> str:
    return resources.files("bicatkit.fixtures").joinpath(filename).read_text()


def load_fixture(name: str) -> Presentation:
    return load_presentation_with_sigma(fixture_text(f"{name}.bic"), name=name)


def load_fixture_bicategory(name: str) -> Bicategory:
    return load_fixture(name).bicategory


def load_chain_pseudofunctor() -> PseudofunctorData:
    src = load_fixture_bicategory("chain_src")
    tgt = load_fixture_bicategory("chain_tgt")
    return load_pseudofunctor(fixture_text("chain_f.pf"), src, tgt, name="chain_f")


def default_probe_targets(sigma: SigmaClass) -> list[Bicategory]:
    """The bundled probe targets, less the one named like the marked
    bicategory, which enumerate_probes handles itself.  Each is parsed once
    per process and shared by every call: callers must not mutate them."""
    return [_probe_target(n) for n in DEFAULT_PROBE_TARGETS if n != sigma.bic.name]


@cache
def _probe_target(name: str) -> Bicategory:
    return load_fixture_bicategory(name)
