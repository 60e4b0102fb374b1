"""One seeded video of the benchmark's generator (``perfbench/gen.py``),
refined offline by the benchmark's own harness (``perfbench/run.py``), must
give the refined bytes and Recall@K that ``perfbench/expected.json`` records
for it. The fixture's pairs are all tracked; a generated video also has
untracked pairs, spatial-aware boxes and debated transitions, so this pins
their output bit for bit too."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports gen and transport on use
    import run
    return run


def test_an_rt_cold_video_gives_its_recorded_output(run, tmp_path):
    bench = run.Bench("rt_cold", str(tmp_path), [0], run.load_expected(), latency=False)
    bench.prepare()
    sample = bench.rep(0)
    assert sample["problems"] == []
    assert sample["failed"] == 0 and sample["provider_calls"] > 0
    assert 0 < sample["ctx"]["tracked_share"] < 1
