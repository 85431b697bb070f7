"""Seeded random-number helpers.

Every stochastic component takes an explicit seed (or a parent
``numpy.random.Generator``) so experiments are reproducible run-to-run.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Build a generator from an int seed, pass through a generator, or default."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
