"""Operational-semantics workbench for positive rule formats.

Loads a rule specification, realises the free monad on generalized
labelled transition systems, and checks the categorical structure behind
congruence of bisimilarity: familial decomposition, cellularity
certificates, constructive lifting, cartesianness, and partition-refinement
bisimilarity itself.  The library is what the ``gsos`` command runs
(:func:`gsos.cli.main`).
"""

from .specdsl import GsosSpec, parse_spec

__all__ = ["GsosSpec", "parse_spec"]
