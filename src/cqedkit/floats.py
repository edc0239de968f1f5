"""Plain-float stand-ins for the two numpy calls that the numpy-free paths
need: ``np.linspace``'s grid, bit for bit, and a standard normal drawn
through ``random.random()``, the one stdlib method whose sequence Python
keeps across versions. The demo scripts import this module alone, without
``cli`` or ``readout``, which each take about 10 ms to load."""

from __future__ import annotations

import math


def linspace(start: float, stop: float, points: int) -> list[float]:
    """The bits of np.linspace: i * step + start, the last point exactly
    stop; one point is start."""
    if points == 1:
        return [start]
    step = (stop - start) / (points - 1)
    return [*(i * step + start for i in range(points - 1)), stop]


def normal(rng: random.Random) -> float:
    """A standard normal from two uniforms of ``rng`` (Box-Muller, cosine
    branch); ``1 - u`` keeps the logarithm's argument in (0, 1]."""
    radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
    return radius * math.cos(2.0 * math.pi * rng.random())
