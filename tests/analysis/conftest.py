"""Fixtures shared by the sweep suites."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import get_tracer


@pytest.fixture()
def traced():
    """The global tracer, empty and enabled for one test, then disabled."""
    tracer = get_tracer()
    tracer.clear()
    obs.set_enabled(True)
    try:
        yield tracer
    finally:
        obs.set_enabled(False)
        tracer.clear()
