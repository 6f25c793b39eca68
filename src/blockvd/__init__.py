"""Solvers and generators for bounded block/component vertex deletion."""

from ._dpcore import clear_caches
from .graph import Graph
from .instance import Instance

__version__ = "0.1.0"
# the GF(2) kernel is pure Python; recorded with benchmark results
KERNEL_BACKEND = "pure"
__all__ = ["Graph", "Instance", "KERNEL_BACKEND", "__version__", "clear_caches"]
