"""Rectangular floorplans for thermal modelling.

A floorplan is a set of non-overlapping axis-aligned rectangular blocks
tiling a die.  :func:`cmp_floorplan` builds the paper's 16-way CMP die
(Table 1): a grid of cores around a large shared L2 block,
15.6 mm x 15.6 mm.

All dimensions are in metres; areas in m^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Block:
    """One rectangular floorplan block.

    ``x``/``y`` locate the lower-left corner; ``width``/``height`` are the
    side lengths.  All in metres.
    """

    name: str
    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(f"block {self.name}: non-positive size")

    @property
    def area(self) -> float:
        """Block area in m^2."""
        return self.width * self.height

    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge."""
        return self.y + self.height

    def shared_edge_length(self, other: "Block") -> float:
        """Length of the boundary shared with ``other`` (0 if not adjacent).

        Two blocks are laterally adjacent when they touch along a vertical
        or horizontal edge with positive overlap; the overlap length sets
        the lateral thermal conductance between them.
        """
        tol = 1e-9
        # Vertical shared edge (side by side).
        if abs(self.x2 - other.x) < tol or abs(other.x2 - self.x) < tol:
            overlap = min(self.y2, other.y2) - max(self.y, other.y)
            if overlap > tol:
                return overlap
        # Horizontal shared edge (stacked).
        if abs(self.y2 - other.y) < tol or abs(other.y2 - self.y) < tol:
            overlap = min(self.x2, other.x2) - max(self.x, other.x)
            if overlap > tol:
                return overlap
        return 0.0

    def center(self) -> Tuple[float, float]:
        """Geometric centre of the block."""
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)


@dataclass(frozen=True)
class Floorplan:
    """A collection of named blocks tiling a die."""

    blocks: Tuple[Block, ...]

    def __post_init__(self) -> None:
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate block names in floorplan")
        if not self.blocks:
            raise ConfigurationError("floorplan must contain at least one block")

    @property
    def names(self) -> List[str]:
        """Block names in definition order."""
        return [b.name for b in self.blocks]

    @property
    def total_area(self) -> float:
        """Sum of block areas (m^2)."""
        return sum(b.area for b in self.blocks)

    def block(self, name: str) -> Block:
        """Look up a block by name."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise ConfigurationError(f"no block named {name!r}")

    def adjacency(self) -> Dict[Tuple[str, str], float]:
        """Map of ``(name_a, name_b) -> shared edge length`` for adjacent pairs.

        Each unordered pair appears once, with ``name_a < name_b``.
        """
        edges: Dict[Tuple[str, str], float] = {}
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                length = a.shared_edge_length(b)
                if length > 0:
                    key = (a.name, b.name) if a.name < b.name else (b.name, a.name)
                    edges[key] = length
        return edges


def cmp_floorplan(
    n_cores: int = 16,
    die_side: float = 15.6e-3,
    l2_fraction: float = 0.22,
) -> Floorplan:
    """The paper's CMP die: a row-banked grid of cores plus a shared L2.

    The L2 occupies a horizontal slab of ``l2_fraction`` of the die at the
    bottom (4 MB of SRAM is a large, cool block — Section 3.3 excludes it
    from density/temperature averages); the cores tile the rest in the most
    square grid available.  Core blocks are named ``core0..core{n-1}``, the
    cache block ``l2``.
    """
    if n_cores < 1:
        raise ConfigurationError("need at least one core")
    l2_height = die_side * l2_fraction
    core_region_height = die_side - l2_height
    cols = int(math.ceil(math.sqrt(n_cores)))
    rows = int(math.ceil(n_cores / cols))
    core_w = die_side / cols
    core_h = core_region_height / rows
    blocks: List[Block] = [
        Block(name="l2", x=0.0, y=0.0, width=die_side, height=l2_height)
    ]
    for idx in range(n_cores):
        r, c = divmod(idx, cols)
        blocks.append(
            Block(
                name=f"core{idx}",
                x=c * core_w,
                y=l2_height + r * core_h,
                width=core_w,
                height=core_h,
            )
        )
    return Floorplan(blocks=tuple(blocks))
