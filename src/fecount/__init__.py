"""Exact counts of complete exceptional sequences for ADE and affine ADE data.

The public surface is the modules: :mod:`fecount.counting` (closed forms,
deletion recursions, LL degrees), :mod:`fecount.weyl` (the brute-force
oracle), :mod:`fecount.verify` (identity checks and golden tables),
:mod:`fecount.diagrams` and :mod:`fecount.arith`; their docstrings give the
formulas and conventions.  Import from them, as in
``from fecount.counting import e_affine``.
"""
from . import counting, diagrams, verify, weyl
from .counting import CountCache
from .diagrams import DynkinType, OrbifoldTriple

__version__ = "0.1.0"
