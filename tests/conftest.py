"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((12, 8))


@pytest.fixture
def medium_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((24, 16))


@pytest.fixture
def verifier():
    """The static schedule verifier (:func:`repro.verify.lint_schedule`).

    Exposed as a fixture so property-based tests can cross-check the
    static analysis against the dynamic predicates on generated inputs
    without each module importing the verify package directly.
    """
    from repro.verify import lint_schedule

    return lint_schedule


@pytest.fixture
def ordering_verifier():
    """Ordering-level static verifier (:func:`repro.verify.lint_ordering`)."""
    from repro.verify import lint_ordering

    return lint_ordering
