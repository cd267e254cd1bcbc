"""Exact certificates and decision procedures for additively separable
lattice point sets, in the plane and in space.

The root exports the README's library calls and the types they return;
every other name lives at `basicsets.<module>.<name>`.
"""

from .core import ParseError, PointSet, canonicalize, fixtures
from .decide import Certificate, Decomposition, Verdict, Witness, decompose, is_basic

__version__ = "0.1.0"

__all__ = [
    "Certificate", "Decomposition", "ParseError", "PointSet", "Verdict",
    "Witness", "canonicalize", "decompose", "fixtures", "is_basic",
]
