import math

import pytest
from hypothesis import example, given, strategies as st

from hoirefine import prompt as pr


class TestFixedWordings:
    def test_common_sense_instruction(self):
        text = pr.COMMON_SENSE_INSTRUCTION
        assert text.startswith("You are an agent to give scores")
        assert "<person, relation, object>" in text
        assert "The output scores are between 0 and 1." in text
        assert text.endswith("Please think step by step and then give the answer.")

    def test_common_sense_demonstrations(self):
        assert pr.COMMON_SENSE_DEMONSTRATIONS == (
            ("<person,sit on,chair>", "1.0"),
            ("<person,sit on,table>", "0.6"),
            ("<person,hug,table>", "0.1"),
            ("<person,ride,elephant>", "0.7"),
            ("<person,ride,bicycle>", "1.0"),
        )

    def test_debater_preamble(self):
        text = pr.DEBATER_PREAMBLE
        assert text.startswith("You are a debater among a panel of agents")
        assert "discuss and find the most reasonable answer" in text
        assert text.endswith("Please share your opinions in brief.")

    def test_judge_preamble(self):
        text = pr.JUDGE_PREAMBLE
        assert text.startswith("You are a moderator.")
        assert "There will be three debaters involved" in text
        assert "most reasonable one based on the debate content" in text


class TestRendering:
    def test_common_sense_layout(self):
        rendered = pr.render_common_sense(["<person,hold,cup>"]).render()
        lines = rendered.splitlines()
        assert lines[0] == pr.COMMON_SENSE_INSTRUCTION
        assert "Input:<person,sit on,chair> Output: 1.0" in lines
        assert lines[-1] == "Input:<person,hold,cup> Output:"

    def test_render_deterministic(self):
        bundle = pr.render_common_sense(["<person,hold,cup>", "<person,ride,horse>"])
        assert bundle.render() == bundle.render()

    def test_test_lines_end_bare(self):
        bundle = pr.render_common_sense(["<a>", "<b>", "<c>"])
        tails = [ln for ln in bundle.render().splitlines() if ln.endswith("Output:")]
        assert len(tails) == 3

    def test_spatial_awareness_question(self):
        rendered = pr.render_spatial("awareness", ["lean on"]).render()
        assert "Input: is the relation 'lean on' spatial-aware? Output:" in rendered
        assert "Input:is the relation 'ride' spatial-aware? Output: yes" in rendered

    def test_spatial_scoring_boxes(self):
        payload = [("<person,ride,bicycle>", (1, 2, 3, 4), (5, 6, 7, 8))]
        rendered = pr.render_spatial("scoring", payload).render()
        assert "person box [1,2,3,4], object box [5,6,7,8]" in rendered

    def test_spatial_unknown_stage(self):
        with pytest.raises(ValueError):
            pr.render_spatial("depth", ["x"])

    def test_temporal_transition_line(self):
        bundle = pr.render_temporal(
            [("<person,ride,bicycle>", "<person,carry,bicycle>")],
            frame_labels=[(4, 5)],
        )
        rendered = bundle.render()
        assert ("Input: frame 4: <person,ride,bicycle> "
                "frame 5: <person,carry,bicycle> Output:") in rendered

    def test_temporal_identity_rejected(self):
        with pytest.raises(ValueError):
            pr.render_temporal([("<a>", "<a>")], [(0, 1)])

    def test_empty_tests_rejected(self):
        with pytest.raises(ValueError):
            pr.render_common_sense([])


class TestDebateTurns:
    def test_debater_sees_question_and_history(self):
        rendered = pr.render_debate_turn(
            "debater", "how rational?", [("debater-1", "score 0.8")]
        )
        assert rendered.startswith(pr.DEBATER_PREAMBLE)
        assert "Question: how rational?" in rendered
        assert "debater-1: score 0.8" in rendered

    def test_judge_requires_history(self):
        with pytest.raises(ValueError):
            pr.render_debate_turn("judge", "q", [])

    def test_judge_asks_for_score(self):
        rendered = pr.render_debate_turn("judge", "q", [("debater-1", "0.7")])
        assert rendered.startswith(pr.JUDGE_PREAMBLE)
        assert "'Output: <score>'" in rendered

    def test_empty_history_entry_marked(self):
        rendered = pr.render_debate_turn("debater", "q", [("debater-2", "")])
        assert "debater-2: (no response)" in rendered


class TestScoreParsing:
    def test_single_value(self):
        assert pr.parse_score_output("Output: 0.7", 1) == [0.7]

    def test_prose_tolerated(self):
        raw = "Thinking it over, riding seems fine.\nOutput: 0.9 is my answer"
        assert pr.parse_score_output(raw, 1) == [0.9]

    def test_batched_slots(self):
        raw = "Output: 0.1\nOutput: 0.2\nOutput: 0.3"
        assert pr.parse_score_output(raw, 3) == [0.1, 0.2, 0.3]

    def test_missing_slot_marked(self):
        assert pr.parse_score_output("Output: 0.4", 2) == [0.4, None]

    def test_output_without_a_number_keeps_its_slot(self):
        # the k-th Output: token fills slot k, so a later number is not
        # shifted onto an earlier slot
        assert pr.parse_score_output("Output: yes\nOutput: 0.7", 2) == [None, 0.7]

    def test_no_number(self):
        assert pr.parse_score_output("I refuse to answer.", 1) == [None]

    def test_clamp_near_bounds(self):
        assert pr.parse_score_output("Output: 1.04", 1) == [1.0]
        assert pr.parse_score_output("Output: -0.05", 1) == [0.0]

    def test_far_out_of_range_fails(self):
        assert pr.parse_score_output("Output: 7", 1) == [None]
        assert pr.parse_score_output("Output: -2.5", 1) == [None]
        assert pr.parse_score_output("Output: 1e5", 1) == [None]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=16))
    @example([1e-05, 5e-324, 0.07])
    def test_round_trip_self_consistency(self, scores):
        raw = "\n".join(f"Output: {s:.6f}" for s in scores)
        parsed = pr.parse_score_output(raw, len(scores))
        assert len(parsed) == len(scores)
        for got, want in zip(parsed, scores):
            assert got is not None and math.isclose(got, want, abs_tol=5e-7)
        # repr writes small scores in exponent form (1e-05, 5e-324)
        raw = "\n".join(f"Output: {s!r}" for s in scores)
        assert pr.parse_score_output(raw, len(scores)) == scores


class TestBinaryParsing:
    @pytest.mark.parametrize("raw,expected", [
        ("yes", True),
        ("Output: No", False),
        ("YES, definitely", True),
        ("the answer is no.", False),
        ("maybe", None),
        ("eyesore notes", None),
        ("No doubt about it. Output: yes", True),
        ("I cannot say no. Output: yes", True),
    ])
    def test_cases(self, raw, expected):
        assert pr.parse_binary_output(raw) is expected
