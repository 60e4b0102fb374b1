"""``tools/rss_phases.py`` wraps functions of the package by (module, name)
to mark the end of each phase. These tests fail when a rename in the package
would make that tool stop at start-up."""

import importlib
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture
def rss_phases():
    path = list(sys.path)
    sys.path.insert(0, TOOLS)
    try:
        import rss_phases  # puts perfbench on the path too
    finally:
        sys.path[:] = path
    return rss_phases


def test_every_phase_is_a_function_of_the_package(rss_phases):
    assert rss_phases.PHASES
    for module, name in rss_phases.PHASES:
        owner = importlib.import_module(f"hoirefine.{module}")
        assert callable(getattr(owner, name, None)), f"{module}.{name}"
