"""The benchmark's per-layer trace (``perfbench/layertrace.py``) replaces
functions of the package by name, where the pipeline, the agents and the
debate look them up. These tests fail when a rename or an import-time binding
would make that trace miss a layer."""

import os
import sys

import pytest

from hoirefine.agents import detect_transitions, select_keyframes
from hoirefine.pipeline import refine

from conftest import pack

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@pytest.fixture
def layertrace():
    sys.path.insert(0, PERFBENCH)
    try:
        import layertrace
    finally:
        sys.path.remove(PERFBENCH)
    return layertrace


@pytest.fixture
def installed(layertrace):
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_patched_name(layertrace):
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_refine_reaches_every_agent_and_the_debate(installed, fixture_predictions,
                                                          fixture_config):
    refine(fixture_predictions, fixture_config)
    spans = installed.spans
    names = {s[1] for s in spans}
    for layer in ("agents.run_common_sense", "agents.run_spatial", "agents.run_temporal",
                  "debate.run_debate", "prompt.render", "prompt.parse"):
        assert layer in names
    # every provider request of stage 1 and stage 2 went through the wrapped
    # cached_complete, with or without a cache directory
    asks = [s for s in spans if s[1] == "provider.cached_complete"]
    for caller in ("agents.run_common_sense", "agents.run_spatial", "agents.run_temporal",
                   "debate.run_debate"):
        assert any(installed.has_ancestor(s, caller) for s in asks), caller
    assert len(asks) == sum(s[1] == "provider.complete" for s in spans)
    assert installed.counts["agents.batches"] > 0
    assert installed.counts["prompt.asked"] > 0
    # the fixture debates every one of its 36 candidates; the count adds up
    # each selector call's result, however the calls split the candidates
    assert installed.counts["debate.selected"] == 36


def test_traced_transition_count_is_what_the_temporal_agent_got(installed, fixture_predictions,
                                                                fixture_config):
    # the trace reads run_temporal's third positional argument as its
    # transitions. The fixture has one flip at any interval, between frames 3
    # and 4, so frames 0 and 4 taken in turn make a flip at every frame.
    turns = (fixture_predictions.frames[0].pairs, fixture_predictions.frames[4].pairs)
    video = pack(fixture_predictions.vocabulary, (
        (frame.frame_index, frame.frame_width, frame.frame_height, turns[frame.frame_index % 2])
        for frame in fixture_predictions.frames), fixture_predictions.video_id)
    keyframes = select_keyframes(video.frame_indices(), fixture_config.keyframe_interval)
    transitions = detect_transitions(video, keyframes)
    assert len(transitions) > 1
    refine(video, fixture_config)
    assert installed.counts["agents.transitions"] == len(transitions)
