"""Symbolic engine for enriched characteristic cycles.

Exact-rational Groebner arithmetic, cycles weighted by finitely
generated abelian groups, proper intersection theory on the cotangent
ring, the inductive residual/distinguished decomposition along a
gradient graph with its point modules, and genericity diagnostics.
The library API is the submodules (`levo.ideals`, `levo.vogel`, ...).
"""

# kept because bench/test_bench.py::test_wrappers_rebind_every_namespace_and_are_restored
# asserts on levo.split_components; ROADMAP item 14 can drop it
from .ideals import split_components  # noqa: F401

__version__ = "0.1.0"
