"""Prompt rendering for the three reasoning agents and the debate roles,
plus robust parsing of model responses back into scores.

Every prompt follows the same instruction / demonstrations / tests layout.
Rendering is deterministic: identical inputs produce byte-identical text.

The common-sense instruction and demonstrations and the debater/judge
preambles are fixed published wordings; the spatial and temporal
demonstrations are our own reconstructions in the same style (the original
figures are images).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Optional

log = logging.getLogger(__name__)

PARSE_FAILURE = None  # per-slot marker for unparseable outputs
CLAMP_TOLERANCE = 0.05

COMMON_SENSE_INSTRUCTION = (
    "You are an agent to give scores for all input examples based on their "
    "common sense rationality. Each input example is in the format "
    "<person, relation, object>. Your task is to score each input example "
    "based on the rationality of the relation between the person and the "
    "object. The output scores are between 0 and 1. Given an input example, "
    "you output the score. Please think step by step and then give the answer."
)

COMMON_SENSE_DEMONSTRATIONS = (
    ("<person,sit on,chair>", "1.0"),
    ("<person,sit on,table>", "0.6"),
    ("<person,hug,table>", "0.1"),
    ("<person,ride,elephant>", "0.7"),
    ("<person,ride,bicycle>", "1.0"),
)

SPATIAL_AWARENESS_INSTRUCTION = (
    "You are an agent that decides whether an action between a person and an "
    "object is spatial-aware, i.e. whether its validity depends on the "
    "spatial locations of the person and the object in the image. Answer "
    "yes or no for each input relation."
)

SPATIAL_AWARENESS_DEMONSTRATIONS = (
    ("is the relation 'ride' spatial-aware?", "yes"),
    ("is the relation 'look at' spatial-aware?", "no"),
)

SPATIAL_SCORING_INSTRUCTION = (
    "You are an agent to give scores for input examples based on whether the "
    "predicted action is rational given the subject and object locations. "
    "Each input example is a triplet <person, relation, object> followed by "
    "the person and object bounding boxes in pixels as [x1,y1,x2,y2]. The "
    "output scores are between 0 and 1. Given an input example, you output "
    "the score."
)

SPATIAL_SCORING_DEMONSTRATIONS = (
    ("<person,ride,bicycle> person box [120,40,200,160], object box [110,120,210,220]", "1.0"),
    ("<person,ride,bicycle> person box [10,120,90,220], object box [300,120,400,220]", "0.1"),
)

TEMPORAL_INSTRUCTION = (
    "You are an agent to give scores for changes of a predicted relation "
    "between a person and an object across two consecutive frames. Your task "
    "is to check if this change is reasonable and score its rationality. The "
    "output scores are between 0 and 1. Given an input example, you output "
    "the score."
)

TEMPORAL_DEMONSTRATIONS = (
    ("frame i: <person,ride,bicycle> frame i+1: <person,carry,bicycle>", "0.9"),
    ("frame i: <person,ride,bicycle> frame i+1: <person,lean on,bicycle>", "0.1"),
)

DEBATER_PREAMBLE = (
    "You are a debater among a panel of agents, each of whom will give their "
    "responses to the posed question in a debate setting. You do not need to "
    "fully agree with each other's perspectives, as our objective is to "
    "discuss and find the most reasonable answer. Please share your opinions "
    "in brief."
)

JUDGE_PREAMBLE = (
    "You are a moderator. There will be three debaters involved in "
    "discussing a question. They will present their answers and discuss "
    "their perspectives on the correct answer. At the end of the debate, you "
    "will be responsible for deciding which answer is the most reasonable "
    "one based on the debate content."
)


@dataclass(frozen=True)
class PromptBundle:
    instruction: str
    demonstrations: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]

    def __post_init__(self):
        if not self.instruction:
            raise ValueError("instruction must be non-empty")

    def render(self) -> str:
        """Instruction, then demonstrations, then unanswered test lines."""
        parts = [self.instruction, ""]
        for inp, out in self.demonstrations:
            parts.append(f"Input:{inp} Output: {out}")
        if self.demonstrations:
            parts.append("")
        for test in self.tests:
            parts.append(f"Input:{test} Output:")
        return "\n".join(parts)


def box_text(box) -> str:
    """An integer pixel box as prompt text: ``[x1,y1,x2,y2]``."""
    return "[" + ",".join(str(v) for v in box) + "]"


def render_common_sense(tests: list[str]) -> PromptBundle:
    if not tests:
        raise ValueError("tests must be non-empty")
    return PromptBundle(
        instruction=COMMON_SENSE_INSTRUCTION,
        demonstrations=COMMON_SENSE_DEMONSTRATIONS,
        tests=tuple(tests),
    )


def render_spatial(stage: str, payload) -> PromptBundle:
    """stage 'awareness': payload is a list of relation names, each rendered
    as a yes/no question. stage 'scoring': payload is a list of
    (triplet_text, human_box, object_box) with integer pixel boxes."""
    if stage == "awareness":
        if not payload:
            raise ValueError("payload must be non-empty")
        tests = tuple(f" is the relation '{name}' spatial-aware?" for name in payload)
        return PromptBundle(
            instruction=SPATIAL_AWARENESS_INSTRUCTION,
            demonstrations=SPATIAL_AWARENESS_DEMONSTRATIONS,
            tests=tests,
        )
    if stage == "scoring":
        if not payload:
            raise ValueError("payload must be non-empty")
        tests = tuple(
            f"{triplet} person box {box_text(human_box)}, object box {box_text(object_box)}"
            for triplet, human_box, object_box in payload)
        return PromptBundle(
            instruction=SPATIAL_SCORING_INSTRUCTION,
            demonstrations=SPATIAL_SCORING_DEMONSTRATIONS,
            tests=tests,
        )
    raise ValueError(f"unknown spatial stage {stage!r}")


def render_temporal(transitions: list[tuple[str, str]],
                    frame_labels: list[tuple[int, int]]) -> PromptBundle:
    """Each test shows both frames' triplets, labelled with the frame
    indices in ``frame_labels``, and asks for the rationality of the
    change. Identity transitions are filtered upstream."""
    if not transitions:
        raise ValueError("transitions must be non-empty")
    tests = []
    for (old, new), (a, b) in zip(transitions, frame_labels, strict=True):
        if old == new:
            raise ValueError(f"identity transition {old}")
        tests.append(f" frame {a}: {old} frame {b}: {new}")
    return PromptBundle(
        instruction=TEMPORAL_INSTRUCTION,
        demonstrations=TEMPORAL_DEMONSTRATIONS,
        tests=tuple(tests),
    )


def render_debate_turn(role: str, question: str, history: list[tuple[str, str]]) -> str:
    """Debater or judge prompt: role preamble, then the question, then the
    history entries in order, each prefixed with its speaker label."""
    if role == "debater":
        preamble = DEBATER_PREAMBLE
    elif role == "judge":
        preamble = JUDGE_PREAMBLE
        if not history:
            raise ValueError("judge requires a non-empty history")
    else:
        raise ValueError(f"unknown role {role!r}")
    parts = [preamble, "", f"Question: {question}"]
    for speaker, text in history:
        parts.append(f"{speaker}: {text if text else '(no response)'}")
    if role == "judge":
        parts.append(
            "Moderator, based on the debate above, give the most reasonable "
            "final rationality score between 0 and 1 as 'Output: <score>'."
        )
    return "\n".join(parts)


_NUMBER_AFTER_OUTPUT = re.compile(r"Output:\s*([-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)?", re.I)


def _clamp(value: float) -> Optional[float]:
    if 0.0 <= value <= 1.0:
        return value
    if -CLAMP_TOLERANCE <= value <= 1.0 + CLAMP_TOLERANCE:
        clamped = min(1.0, max(0.0, value))
        log.warning("score %s outside [0,1]; clamped to %s", value, clamped)
        return clamped
    log.warning("score %s too far outside [0,1]; treating as parse failure", value)
    return PARSE_FAILURE


def parse_score_output(raw: str, n_tests: int) -> list[Optional[float]]:
    """Extract the number (an exponent included) right after the k-th
    'Output:' token for test slot k: one float in [0,1] per slot, or None
    where that token has no number, or there is no k-th token.

    Surrounding chain-of-thought prose is tolerated; missing slots become
    failure markers rather than errors.
    """
    if n_tests < 1:
        raise ValueError("n_tests must be >= 1")
    found = _NUMBER_AFTER_OUTPUT.findall(raw)[:n_tests]
    return [_clamp(float(number)) if number else PARSE_FAILURE
            for number in found + [""] * (n_tests - len(found))]


_OUTPUT = re.compile(r"Output:", re.IGNORECASE)
_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_binary_output(raw: str) -> Optional[bool]:
    """First standalone yes/no token, case-insensitive, after the first
    'Output:' when the answer has one, else anywhere; None on failure."""
    output = _OUTPUT.search(raw)
    m = _YES_NO.search(raw, output.end() if output else 0)
    if not m:
        return PARSE_FAILURE
    return m.group(1).lower() == "yes"
