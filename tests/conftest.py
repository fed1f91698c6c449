"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro.model.zoo import get_model

# Every serving engine built under the test suite runs its invariant
# checker (pool refcounts, lane bookkeeping) after every tick —
# resource-hygiene bugs fail loudly at the tick that introduced them,
# not as a flaky assertion three suites later.
os.environ.setdefault("REPRO_SERVE_STRICT", "1")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def unit_model():
    """A briefly-trained tiny model, cached in artifacts/ across runs."""
    model, corpus = get_model("unit-test")
    return model, corpus


@pytest.fixture(scope="session")
def unit_model_plain():
    """Same model without outlier injection."""
    model, corpus = get_model("unit-test", outliers=False)
    return model, corpus
