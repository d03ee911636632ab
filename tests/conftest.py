"""Shared helpers for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from eisopt import ParameterVector


def random_theta(rng: np.random.Generator) -> ParameterVector:
    """A random valid parameter vector with realistically wide scales.

    Resistances and CPE coefficients are drawn log-uniformly; exponents
    are kept away from their interval edges so finite-difference probes
    stay inside the valid region.
    """
    return ParameterVector.from_array(
        [
            10.0 ** rng.uniform(-3.5, -2.0),   # R_s
            10.0 ** rng.uniform(5.5, 7.5),     # Q_HF
            rng.uniform(-0.99, -0.6),          # phi_HF
            10.0 ** rng.uniform(-3.0, -1.8),   # R_1
            10.0 ** rng.uniform(0.0, 1.2),     # Q_1
            rng.uniform(0.45, 0.95),           # phi_1
            10.0 ** rng.uniform(-2.8, -1.4),   # R_2
            10.0 ** rng.uniform(0.2, 1.3),     # Q_2
            rng.uniform(0.5, 0.98),            # phi_2
            10.0 ** rng.uniform(2.0, 3.5),     # Q_LF
            rng.uniform(0.3, 0.9),             # phi_LF
        ]
    )


# The edges of the exponent intervals that ParameterVector admits.
EDGES = {"phi_hf": -1.0, "phi_1": 1.0, "phi_lf": 0.0}


@st.composite
def thetas(draw):
    """Parameter sets drawn as random_theta draws them, some with one
    exponent pinned to the edge of its interval."""
    theta = random_theta(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    edge = draw(st.sampled_from((None,) + tuple(EDGES)))
    return theta if edge is None else replace(theta, **{edge: EDGES[edge]})


@st.composite
def decreasing_frequencies(draw):
    """2 to 30 strictly decreasing frequencies in Hz: a random top between
    10 mHz and 100 kHz, then random steps of 0.001-0.5 decades down."""
    top = draw(st.floats(-2.0, 5.0))
    steps = draw(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=29))
    return 10.0 ** (top - np.cumsum([0.0] + steps))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
