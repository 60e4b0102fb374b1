import json

import pytest

from hoirefine.debate import (
    DebateTranscript,
    persist_transcript,
    render_debate_question,
    run_debate,
    select_debate_candidates,
    transcript_filename,
)
from hoirefine.config import load_config
from hoirefine.ingest import load_predictions, load_vocabulary
from hoirefine.pipeline import refine
from hoirefine.prompt import DEBATER_PREAMBLE
from hoirefine.provider import (
    AuthError,
    Provider,
    ProviderSpec,
    ProviderTimeout,
    load_rule_table,
    match_rules,
)

from conftest import fixture_path


def scripted(pid, reply=None, transport=None):
    """Debater that answers every prompt with a fixed line (or via transport)."""
    spec = ProviderSpec(id=pid, kind="mock", max_retries=0, backoff_base=0.001)
    if transport is None:
        fixed = reply if reply is not None else f"Output: 0.5 ({pid})"
        transport = lambda _spec, _req: fixed
    return Provider(spec, transport=transport)


def judge_provider(score="0.8"):
    return scripted("judge", reply=f"Output: {score}")


class TestHistoryStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_entry_count_is_one_plus_n_squared(self, n):
        debaters = [scripted(f"d{i}") for i in range(n)]
        transcript = run_debate("q", debaters, judge_provider())
        assert len(transcript.entries) == 1 + n * n

    def test_question_is_first_entry(self):
        transcript = run_debate("the question", [scripted("d0")], judge_provider())
        assert transcript.entries[0] == ("question", "the question")

    def test_turn_schedule_two_debaters(self):
        debaters = [scripted("a"), scripted("b")]
        transcript = run_debate("q", debaters, judge_provider())
        speakers = [speaker for speaker, _ in transcript.entries]
        # round for a: a answers, b responds; round for b: b answers, a responds
        assert speakers == ["question", "a", "b", "b", "a"]

    def test_responders_see_growing_history(self):
        seen = {}

        def transport_for(pid):
            def transport(_spec, req):
                seen.setdefault(pid, []).append(req.prompt.count("Output:"))
                return f"Output: 0.5 ({pid})"
            return transport

        debaters = [scripted("a", transport=transport_for("a")),
                    scripted("b", transport=transport_for("b"))]
        run_debate("q", debaters, judge_provider())
        # a: opening answer (0 prior outputs), then response in b's round (3 prior)
        assert seen["a"] == [0, 3]
        assert seen["b"] == [1, 0]

    def test_judge_sees_full_history(self):
        judge_prompts = []

        def judge_transport(_spec, req):
            judge_prompts.append(req.prompt)
            return "Output: 0.8"

        debaters = [scripted("a", reply="stance A"), scripted("b", reply="stance B")]
        transcript = run_debate("q", debaters, scripted("judge", transport=judge_transport))
        assert len(judge_prompts) == 1
        assert "a: stance A" in judge_prompts[0]
        assert "b: stance B" in judge_prompts[0]
        assert transcript.judge_score == 0.8


class TestFailureHandling:
    def test_debater_failure_leaves_empty_entry(self):
        def flaky(_spec, _req):
            raise ProviderTimeout("down")

        debaters = [scripted("a"), scripted("b", transport=flaky)]
        transcript = run_debate("q", debaters, judge_provider())
        assert len(transcript.entries) == 1 + 4
        assert all(text == "" for speaker, text in transcript.entries if speaker == "b")

    def test_judge_failure_yields_none_score(self):
        def broken(_spec, _req):
            raise ProviderTimeout("down")

        transcript = run_debate("q", [scripted("a")], scripted("judge", transport=broken))
        assert transcript.judge_score is None
        assert transcript.judge_answer == ""

    def test_debater_auth_error_is_fatal(self):
        def rejected(_spec, _req):
            raise AuthError("bad key")

        with pytest.raises(AuthError):
            run_debate("q", [scripted("a"), scripted("b", transport=rejected)],
                       judge_provider())

    def test_judge_auth_error_is_fatal(self):
        def rejected(_spec, _req):
            raise AuthError("bad key")

        with pytest.raises(AuthError):
            run_debate("q", [scripted("a")], scripted("judge", transport=rejected))

    def refine_with_debaters_rejected(self):
        """Refine the fixture with stage 1 answered and every debater turn
        rejected; returns the debater prompts that were sent."""
        config = load_config(fixture_path("config.json"))
        pred_set = load_predictions(fixture_path("predictions.jsonl"),
                                    load_vocabulary(fixture_path("vocab.txt")))
        sent = []

        def transport_for(spec):
            rules = load_rule_table(spec.rules_path)

            def transport(_spec, req):
                if req.prompt.startswith(DEBATER_PREAMBLE):
                    sent.append(req.prompt)
                    raise AuthError("bad key")
                return match_rules(rules, req.prompt)
            return transport

        providers = [Provider(spec, transport=transport_for(spec))
                     for spec in config.providers]
        with pytest.raises(AuthError):
            refine(pred_set, config, providers=providers)
        return sent

    def test_debate_auth_error_fails_the_whole_refine(self):
        assert self.refine_with_debaters_rejected()

    def test_debate_auth_error_starts_no_queued_debate(self):
        # the fixture debates 36 candidates on a pool of 8 workers; once one
        # debate hits the AuthError, no queued debate may start
        for _ in range(5):
            assert len(self.refine_with_debaters_rejected()) <= 16

    def test_unparseable_judge_answer(self):
        transcript = run_debate("q", [scripted("a")], scripted("judge", reply="it depends"))
        assert transcript.judge_score is None

    def test_no_debaters_rejected(self):
        with pytest.raises(ValueError):
            run_debate("q", [], judge_provider())


class TestCandidateSelection:
    def fused(self):
        return {
            (0, ("id", 0, 1), 0): [0.2, 0.9],
            (0, ("id", 0, 1), 1): [0.5, 0.55],
            (1, ("id", 0, 2), 0): [0.4],
        }

    def test_always_takes_everything_sorted(self):
        keys = select_debate_candidates(self.fused(), "always", 0.3)
        assert keys == sorted(self.fused())

    def test_disagreement_needs_spread_above_delta(self):
        keys = select_debate_candidates(self.fused(), "disagreement", 0.3)
        assert keys == [(0, ("id", 0, 1), 0)]

    def test_single_provider_never_disagrees(self):
        keys = select_debate_candidates({(0, ("id", 0, 1), 0): [0.9]},
                                        "disagreement", 0.0)
        assert keys == []

    def test_off_mode(self):
        assert select_debate_candidates(self.fused(), "off", 0.3) == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            select_debate_candidates({}, "vote", 0.3)


class TestQuestionAndPersistence:
    def test_question_wording(self):
        q = render_debate_question("<person,hold,cup>", [1, 2, 3, 4], [5, 6, 7, 8],
                                   {"beta": 0.25, "alpha": 0.5})
        assert q.startswith("How rational is the predicted triplet <person,hold,cup>")
        assert "person box [1,2,3,4]" in q
        assert "object box [5,6,7,8]" in q
        assert "alpha=0.5000, beta=0.2500" in q
        assert q.endswith("Give a final rationality score between 0 and 1.")

    def test_transcript_filename_stable(self):
        assert transcript_filename("q") == transcript_filename("q")
        assert transcript_filename("q") != transcript_filename("r")
        assert transcript_filename("q").endswith(".jsonl")

    def test_persist_round_trip(self, tmp_path):
        transcript = DebateTranscript(
            question="q",
            entries=(("question", "q"), ("a", "stance A")),
            judge_answer="Output: 0.8",
            judge_score=0.8,
        )
        path = persist_transcript(transcript, str(tmp_path / "transcripts"))
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh]
        assert lines[0] == {"speaker": "question", "text": "q"}
        assert lines[1] == {"speaker": "a", "text": "stance A"}
        assert lines[2] == {"speaker": "judge", "text": "Output: 0.8", "score": 0.8}
