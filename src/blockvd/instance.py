"""Problem instances shared by the solvers, generators, and CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import TreeDecomposition
from .errors import InvalidInput
from .graph import Graph


@dataclass(frozen=True)
class Instance:
    graph: Graph
    d: int
    k: int
    family: str
    mode: str  # "block" | "component"
    td: TreeDecomposition | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("block", "component"):
            raise InvalidInput(f"bad mode {self.mode!r}")
        if self.d < 1 or self.k < 0:
            raise InvalidInput("d must be >= 1 and k >= 0")
