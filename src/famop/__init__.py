"""famop: verification and enumeration kit for family algebraic structures.

Submodules:

- ``omega``: finite parameter structures (Cayley tables), law checks,
  enumeration, symbolic models.
- ``trees``: typed decorated planar binary trees, grafting, codecs.
- ``duplicial``: family products on typed trees and their axiom checkers.
- ``linear``: finite-dimensional family algebras over exact rationals.
- ``operads``: the pairs / corolla / perm / orders set operads.
- ``presentations``: free-operad terms, congruence-closure quotients,
  colored composition, color-mixing membership.
- ``dims``: dimension polynomials, the cubic series identity, and the
  pattern-avoiding counting oracle.
- ``cli``: the ``famop`` command-line interface.

Each submodule above except ``cli`` loads on first use: ``famop.dims``,
``from famop import dims`` and ``from famop import *`` import it then, so
``import famop`` itself loads only the error types and ``LawReport``.
"""

import importlib

from .errors import (FamopError, MixingConsistencyError, ParseError,
                     PreconditionError, ResourceBoundError)
from .report import LawReport

_SUBMODULES = ("omega", "trees", "duplicial", "linear", "operads", "presentations",
               "dims")

__all__ = [
    *_SUBMODULES, "LawReport", "FamopError", "PreconditionError",
    "ResourceBoundError", "ParseError", "MixingConsistencyError",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only called for a name not yet bound; importing a submodule binds it.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
