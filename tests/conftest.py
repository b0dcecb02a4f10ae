"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from helpers import spy


@pytest.fixture
def solved(monkeypatch):
    """The shape of each matrix given to `svd` and to `eigvalsh`, by solver.

    A stacked call counts once per matrix in its stack.
    """
    shapes = {"svd": [], "eigvalsh": []}
    for name, seen in shapes.items():

        def per_matrix(a, *args, _seen=seen, **kwargs):
            shape = np.shape(a)
            _seen.extend([shape[-2:]] * math.prod(shape[:-2]))

        spy(monkeypatch, np.linalg, name, per_matrix)
    return shapes
