"""``tools/make_fixture.py`` is the source of ``fixtures/``: regenerating the
fixture must reproduce every committed file byte for byte."""

import os
import subprocess
import sys

from conftest import FIXTURES

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "make_fixture.py")


def test_make_fixture_reproduces_the_committed_fixture(tmp_path):
    subprocess.run([sys.executable, TOOL, str(tmp_path)], check=True, capture_output=True)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(FIXTURES))
    for name in os.listdir(FIXTURES):
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
