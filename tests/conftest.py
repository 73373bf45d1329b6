"""Shared pytest fixtures.

Expensive objects (benchmark cases, baseline OPF solutions, attack
ensembles) are session-scoped: they are deterministic and read-only in the
tests, so sharing them keeps the suite fast without coupling tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import case4gs, case14, case30, solve_dc_opf, synthetic_case
from repro.estimation.measurement import MeasurementSystem
from repro.mtd.effectiveness import EffectivenessEvaluator


@pytest.fixture(scope="session")
def net4():
    """The 4-bus motivating-example network."""
    return case4gs()


@pytest.fixture(scope="session")
def net14():
    """The IEEE 14-bus network with the paper's settings."""
    return case14()


@pytest.fixture(scope="session")
def net30():
    """The IEEE 30-bus network."""
    return case30()


@pytest.fixture(scope="session")
def small_synthetic():
    """A small random network used where the IEEE cases would be overkill."""
    return synthetic_case(n_buses=8, seed=7)


@pytest.fixture(scope="session")
def opf4(net4):
    """Baseline (pre-perturbation) OPF of the 4-bus system."""
    return solve_dc_opf(net4)


@pytest.fixture(scope="session")
def opf14(net14):
    """Baseline OPF of the 14-bus system at nominal load."""
    return solve_dc_opf(net14)


@pytest.fixture(scope="session")
def measurement14(net14):
    """Measurement system of the unperturbed 14-bus grid."""
    return MeasurementSystem(net14)


@pytest.fixture(scope="session")
def evaluator14(net14, opf14):
    """Effectiveness evaluator with a small (fast) attack ensemble."""
    return EffectivenessEvaluator(
        net14, operating_angles_rad=opf14.angles_rad, n_attacks=120, seed=11
    )


@pytest.fixture()
def rng():
    """A fresh deterministic generator for per-test randomness."""
    return np.random.default_rng(1234)
