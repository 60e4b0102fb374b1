import dataclasses
import filecmp
import hashlib
import json
import math
import os
import shutil

import pytest
import requests

from hoirefine import pipeline
from hoirefine.cli import main
from hoirefine.config import load_config
from hoirefine.pipeline import build_providers
from hoirefine.prompt import COMMON_SENSE_INSTRUCTION, DEBATER_PREAMBLE, JUDGE_PREAMBLE
from hoirefine.provider import (
    AuthError,
    CompletionRequest,
    Provider,
    ProviderTimeout,
    cache_key,
    load_rule_table,
    match_rules,
)

from conftest import fixture_path


def run_refine(tmp_path, name, cache=None):
    out = tmp_path / name
    argv = [
        "refine",
        "--config", fixture_path("config.json"),
        "--predictions", fixture_path("predictions.jsonl"),
        "--vocab", fixture_path("vocab.txt"),
        "--out", str(out),
    ]
    if cache:
        argv += ["--cache-dir", str(cache)]
    return main(argv), out


def assert_one_error_line(capsys, message):
    """stderr is the single line ``error: <message>``, with no traceback."""
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestRefine:
    def test_exit_zero_and_output_written(self, tmp_path, capsys):
        code, out = run_refine(tmp_path, "refined.jsonl", tmp_path / "cache")
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "run summary:" in stdout
        assert "debates run:" in stdout

    def test_debate_mode_off_runs_no_debate(self, tmp_path, capsys):
        out = tmp_path / "refined.jsonl"
        assert main(["refine", "--config", fixture_path("config.json"),
                     "--predictions", fixture_path("predictions.jsonl"),
                     "--vocab", fixture_path("vocab.txt"), "--out", str(out),
                     "--debate-mode", "off"]) == 0
        assert "debates run: 0\n" in capsys.readouterr().out
        assert out.exists()

    def test_consecutive_runs_byte_identical(self, tmp_path):
        code_a, out_a = run_refine(tmp_path, "a.jsonl", tmp_path / "cache_a")
        code_b, out_b = run_refine(tmp_path, "b.jsonl", tmp_path / "cache_b")
        assert code_a == code_b == 0
        assert filecmp.cmp(out_a, out_b, shallow=False)

    def test_edited_rule_table_is_not_served_from_the_cache(self, tmp_path):
        for name in ("config.json", "rules_alpha.jsonl", "rules_beta.jsonl"):
            shutil.copy(fixture_path(name), tmp_path / name)

        def refined(name, cache):
            out = tmp_path / name
            assert main([
                "refine",
                "--config", str(tmp_path / "config.json"),
                "--predictions", fixture_path("predictions.jsonl"),
                "--vocab", fixture_path("vocab.txt"),
                "--out", str(out),
                "--cache-dir", str(tmp_path / cache),
            ]) == 0
            return out.read_bytes()

        before = refined("before.jsonl", "cache")
        rules = tmp_path / "rules_alpha.jsonl"
        rules.write_text(rules.read_text().replace("Output: 0.9", "Output: 0.2"))
        rerun = refined("rerun.jsonl", "cache")
        fresh = refined("fresh.jsonl", "fresh-cache")
        assert fresh != before
        assert rerun == fresh

    def test_failed_replace_leaves_no_partial_output(self, tmp_path, monkeypatch, capsys):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _ = run_refine(tmp_path, "refined.jsonl")
        assert code == 1
        assert_one_error_line(capsys, "replace failed")
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_exits_one(self, tmp_path):
        code = main([
            "refine",
            "--config", str(tmp_path / "nope.json"),
            "--predictions", fixture_path("predictions.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--out", str(tmp_path / "o.jsonl"),
        ])
        assert code == 1

    def test_invalid_config_exits_one(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"providers": [], "judge_provider": "x"}))
        code = main([
            "refine",
            "--config", str(bad),
            "--predictions", fixture_path("predictions.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--out", str(tmp_path / "o.jsonl"),
        ])
        assert code == 1

    def test_missing_api_key_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HOIREFINE_TEST_KEY", raising=False)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "providers": [{
                "id": "remote", "kind": "http",
                "endpoint": "http://localhost:1/v1/chat",
                "api_key_env": "HOIREFINE_TEST_KEY",
                "max_retries": 0, "backoff_base": 0.001,
            }],
            "judge_provider": "remote",
            "keyframe_interval": 4,
        }))
        code = main([
            "refine",
            "--config", str(cfg),
            "--predictions", fixture_path("predictions.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--out", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2

    def test_auth_failure_in_debate_exits_two(self, tmp_path, monkeypatch, capsys):
        def rejecting_provider(spec):
            rules, _ = load_rule_table(spec.rules_path)

            def transport(_spec, req):
                if req.prompt.startswith(DEBATER_PREAMBLE):
                    raise AuthError("bad key")
                return match_rules(rules, req.prompt)
            return Provider(spec, transport=transport)

        monkeypatch.setattr(pipeline, "Provider", rejecting_provider)
        code, out = run_refine(tmp_path, "refined.jsonl")
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


def fixture_summary(alpha_calls, beta_calls, debates, debate_coverage):
    return [
        "run summary:",
        f"  provider alpha: {alpha_calls} calls, 0 cache hits",
        f"  provider beta: {beta_calls} calls, 0 cache hits",
        f"  total: {alpha_calls + beta_calls} calls, cache hit rate 0.0%",
        f"  debates run: {debates}",
        "  cs coverage: 100.0% of candidates",
        f"  debate coverage: {debate_coverage} of candidates",
        "  spatial coverage: 30.6% of candidates",
        "  temporal coverage: 2.8% of candidates",
    ]


def test_fixture_outputs_are_pinned(tmp_path, capsys):
    # the bytes refine and ablate write on the fixture, and refine's summary
    def sha256(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    inputs = ["--config", fixture_path("config.json"),
              "--predictions", fixture_path("predictions.jsonl"),
              "--vocab", fixture_path("vocab.txt")]
    for argv, out, summary, digest in [
        ([], "refined.jsonl", fixture_summary(48, 38, 10, "100.0%"),
         "f25ae075a1eac0dc4b82992e328910f4b76c03cf9a0fb264ec89fa6ccc00ef84"),
        (["--debate-mode", "off"], "off.jsonl", fixture_summary(18, 18, 0, "0.0%"),
         "bb7720c2c95894790697eb7bb2188c8508dc95aec8fea1c8fbc5efbf79d9e517"),
    ]:
        assert main(["refine", *inputs, *argv, "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            *summary, f"refined predictions written to {tmp_path / out}"]
        assert sha256(out) == digest

    assert main(["ablate", *inputs, "--gt", fixture_path("gt.jsonl"),
                 "--out", str(tmp_path / "ablation.jsonl")]) == 0
    assert sha256("ablation.jsonl") \
        == "2758abb1fe048225322b586e991b809b0ef1d1d78182769935cce704b9041aa6"
    assert sha256("ablation.jsonl.txt") \
        == "d967cb7cc82f2d3be4b54806e403cf1a04a9ded577799234bc61fcc8d65f6e13"


@pytest.fixture
def transport_calls(monkeypatch):
    """Prompts sent by the providers that ``refine`` and ``ablate`` build,
    which answer from the fixture rule tables."""
    calls = []

    def counting_provider(spec):
        rules, _ = load_rule_table(spec.rules_path)

        def transport(_spec, req):
            calls.append(req.prompt)
            return match_rules(rules, req.prompt)
        return Provider(spec, transport=transport)

    monkeypatch.setattr(pipeline, "Provider", counting_provider)
    return calls


INPUT_FILES = {
    "refine": ["--config", fixture_path("config.json"),
               "--predictions", fixture_path("predictions.jsonl")],
    "eval": ["--refined", fixture_path("predictions.jsonl"), "--gt", fixture_path("gt.jsonl")],
    "ablate": ["--config", fixture_path("config.json"),
               "--predictions", fixture_path("predictions.jsonl"),
               "--gt", fixture_path("gt.jsonl")],
}


@pytest.mark.parametrize("command,bad", [
    ("refine", ["--interval", "0"]),
    ("ablate", ["--threshold", "1.5"]),
    ("eval", ["--threshold", "1.5"]),
    ("eval", ["--k", "0"]),
    ("ablate", ["--k", "10", "0"]),
    ("eval", ["--k", "10", "10", "20"]),
    ("ablate", ["--k", "20", "10", "20"]),
])
def test_out_of_range_flag_exits_one(tmp_path, capsys, command, bad):
    argv = [command, *INPUT_FILES[command], "--vocab", fixture_path("vocab.txt"), *bad]
    if command == "refine":
        argv += ["--out", str(tmp_path / "o.jsonl")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "R@" not in captured.out


@pytest.mark.parametrize("command", ["refine", "ablate"])
@pytest.mark.parametrize("rules", [
    None, b"not json\n", b"\xff\xfe{}\n",
    b'{"match": "contains", "key": 5, "response": "Output: 0.9"}\n',
    b'{"match": "contains", "key": "x", "response": "Output: 0.9", "weight": 1}\n',
], ids=["missing", "malformed", "not-utf8", "number-key", "unknown-key"])
def test_bad_rule_table_exits_one_before_any_call(tmp_path, capsys, command, rules):
    # alpha's rule table is fine; beta's is missing, not JSON, not UTF-8 or has a number key
    bad = tmp_path / "rules_beta.jsonl"
    if rules is not None:
        bad.write_bytes(rules)
    with open(fixture_path("config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    config["providers"][0]["rules_path"] = fixture_path("rules_alpha.jsonl")
    config["providers"][1]["rules_path"] = str(bad)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, *INPUT_FILES[command], "--vocab", fixture_path("vocab.txt"),
            "--config", str(cfg), "--cache-dir", str(tmp_path / "cache")]
    if command == "refine":
        argv += ["--out", str(tmp_path / "o.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("command,flag", [("refine", "--out"), ("ablate", "--out"),
                                          ("eval", "--report")])
@pytest.mark.parametrize("where", ["missing-dir", "is-dir", "empty"])
def test_unwritable_output_path_exits_one_before_any_call(tmp_path, capsys, transport_calls,
                                                          command, flag, where):
    if where == "missing-dir":
        out = tmp_path / "missing" / "out.jsonl"
    elif where == "is-dir":
        out = tmp_path / "out"
        out.mkdir()
    else:
        out = ""
    argv = [command, *INPUT_FILES[command], "--vocab", fixture_path("vocab.txt"), flag, str(out)]
    if command != "eval":
        argv += ["--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    # every message holds the empty path, so that one must name the flag
    assert (f"{flag} is an empty path" if out == "" else str(out)) in captured.err
    assert "R@" not in captured.out
    assert transport_calls == []
    assert not (tmp_path / "cache").exists()


def fixture_records_with(line: bytes, at: int) -> bytes:
    """The fixture predictions with ``line`` put in as line ``at``."""
    with open(fixture_path("predictions.jsonl"), "rb") as fh:
        lines = fh.read().splitlines()
    return b"\n".join(lines[:at - 1] + [line] + lines[at - 1:]) + b"\n"


def first_fixture_record(**changes) -> bytes:
    with open(fixture_path("predictions.jsonl"), encoding="utf-8") as fh:
        rec = json.loads(fh.readline())
    return json.dumps({**rec, **changes}).encode()


@pytest.mark.parametrize("command", ["refine", "eval", "ablate"])
@pytest.mark.parametrize("line", [
    b"5",
    b"null",
    first_fixture_record(pair_id=[0, 1.7]),
    first_fixture_record(pair_id=["0", "1"]),
    first_fixture_record(frame_index=True),
    first_fixture_record(frame_w="640"),
    first_fixture_record(object_class=None),
    first_fixture_record(frame_w=800.0, pair_id=[9, 9]),
    first_fixture_record(score_scale="fused", pair_id=[9, 9]),
    b'{"video_id": "synth\xefic"}',
    first_fixture_record(pairid=[0, 10], pair_id=None),
    # in a frame of its own, where an infinite width held every box
    first_fixture_record(frame_index=99999, frame_w=1234.5).replace(b"1234.5", b"1e400"),
    first_fixture_record(frame_index=99999, frame_w=10**400),
    first_fixture_record() + b" {}",
], ids=["bare-number", "null", "float-pair-id", "string-pair-id", "bool-frame-index",
        "string-frame-w", "null-object-class", "frame-size-differs", "fused-record",
        "not-utf8", "unknown-key", "float-out-of-range", "integer-out-of-range",
        "trailing-data"])
def test_bad_prediction_line_exits_one_before_any_call(tmp_path, capsys, transport_calls,
                                                       command, line):
    preds = tmp_path / "predictions.jsonl"
    preds.write_bytes(fixture_records_with(line, at=3))
    config, gt, out = fixture_path("config.json"), fixture_path("gt.jsonl"), str(tmp_path / "o.jsonl")
    args = {
        "refine": ["--predictions", str(preds), "--config", config, "--out", out],
        "eval": ["--refined", str(preds), "--gt", gt],
        "ablate": ["--predictions", str(preds), "--config", config, "--gt", gt, "--out", out],
    }[command]
    assert main([command, "--vocab", fixture_path("vocab.txt"), *args]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1, captured.err
    assert err[0].startswith(f"error: {preds}:3: ")
    assert transport_calls == []
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("command", ["refine", "ablate"])
def test_refined_input_exits_one_before_any_call(tmp_path, capsys, transport_calls, command):
    # feeding refine its own output would add every agent term a second time
    code, refined = run_refine(tmp_path, "refined.jsonl")
    assert code == 0
    transport_calls.clear()
    capsys.readouterr()
    out = tmp_path / "o.jsonl"
    argv = [command, "--config", fixture_path("config.json"), "--predictions", str(refined),
            "--vocab", fixture_path("vocab.txt"), "--out", str(out)]
    if command == "ablate":
        argv += ["--gt", fixture_path("gt.jsonl")]
    assert main(argv) == 1
    assert_one_error_line(capsys, "video 'synthetic' is already refined (score_scale fused)")
    assert transport_calls == []
    assert not out.exists()


def set_first_provider(field, value):
    def edit(config):
        config["providers"][0][field] = value
    return edit


@pytest.mark.parametrize("command", ["refine", "ablate"])
@pytest.mark.parametrize("edit,field", [
    (lambda c: c.update(keyframe_interval=2.7), "keyframe_interval"),
    (lambda c: c.update(keyframe_interval="3"), "keyframe_interval"),
    (lambda c: c.update(batch_size=True), "batch_size"),
    (lambda c: c.update(candidate_floor="0.05"), "candidate_floor"),
    (lambda c: c.update(debate_mdoe="off"), "debate_mdoe"),
    (set_first_provider("max_concurrency", 2.5), "max_concurrency"),
    (set_first_provider("max_retries", False), "max_retries"),
    (set_first_provider("timeout", "30"), "timeout"),
    (set_first_provider("id", 5), "id must be a string"),
    (set_first_provider("model_name", 7), "model_name"),
    (set_first_provider("auth_header", 5), "auth_header"),
    (set_first_provider("rules_path", 5), "rules_path"),
    (lambda c: c["providers"][0].update(kind="http", endpoint="http://localhost:1/v1",
                                        api_key_env=3), "api_key_env"),
    (lambda c: c["weights"].update(lambda_s=math.nan), "NaN is not a JSON number"),
    (set_first_provider("timeout", 0), "timeout must be finite and > 0"),
    (set_first_provider("backoff_base", -1), "backoff_base must be finite and >= 0"),
    (lambda c: c["providers"][1].update(id=c["providers"][0]["id"]),
     "provider ids must be unique"),
    (lambda c: c.update(debate_mode="vote"), "debate_mode must be one of"),
    (lambda c: c.update(disagreement_delta=-0.1), "disagreement_delta must be >= 0"),
    (lambda c: c.update(batch_size=0), "batch_size must be >= 1"),
    (lambda c: c.update(candidate_floor=5), "candidate_floor must be in [0, 1]"),
    (lambda c: c.update(candidate_floor=-0.1), "candidate_floor must be in [0, 1]"),
    (lambda c: c.update(judge_provider="gamma"), "judge_provider 'gamma' is not configured"),
    (set_first_provider("kind", "grpc"), "unknown provider kind 'grpc'"),
    (set_first_provider("max_retries", -1), "max_retries must be >= 0"),
], ids=["float-interval", "string-interval", "bool-batch", "string-floor", "unknown-key",
        "float-concurrency", "bool-retries", "string-timeout", "number-id",
        "number-model-name", "number-auth-header", "number-rules-path", "number-api-key-env",
        "nan-weight", "zero-timeout", "negative-backoff", "duplicate-provider-id",
        "unknown-debate-mode", "negative-delta", "zero-batch", "large-floor", "negative-floor",
        "unconfigured-judge",
        "unknown-kind", "negative-retries"])
def test_malformed_config_exits_one_before_any_call(tmp_path, capsys, transport_calls,
                                                    command, edit, field):
    with open(fixture_path("config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    for provider in config["providers"]:
        provider["rules_path"] = fixture_path(provider["rules_path"])
    edit(config)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, *INPUT_FILES[command], "--vocab", fixture_path("vocab.txt"),
            "--config", str(cfg), "--out", str(tmp_path / "o.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert field in err and len(err.splitlines()) == 1, err
    assert transport_calls == []
    assert not (tmp_path / "o.jsonl").exists()


class TestRulesPath:
    """A relative ``rules_path`` is relative to the config file's directory."""

    def copy_rules(self, directory):
        directory.mkdir(parents=True)
        for pid in ("alpha", "beta"):
            shutil.copy(fixture_path(f"rules_{pid}.jsonl"), directory / f"{pid}.jsonl")

    def write_config(self, directory, rules_path):
        with open(fixture_path("config.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        for provider in config["providers"]:
            provider["rules_path"] = rules_path.format(id=provider["id"])
        directory.mkdir(parents=True, exist_ok=True)
        cfg = directory / "config.json"
        cfg.write_text(json.dumps(config))
        return cfg

    def refine(self, cfg, out):
        return main(["refine", "--config", str(cfg),
                     "--predictions", fixture_path("predictions.jsonl"),
                     "--vocab", fixture_path("vocab.txt"), "--out", str(out)])

    def test_resolves_beside_the_config(self, tmp_path):
        self.copy_rules(tmp_path / "rules")
        cfg = self.write_config(tmp_path, "rules/{id}.jsonl")
        specs = load_config(str(cfg)).providers
        assert [spec.rules_path for spec in specs] == [
            str(tmp_path / "rules" / "alpha.jsonl"), str(tmp_path / "rules" / "beta.jsonl")]
        assert self.refine(cfg, tmp_path / "o.jsonl") == 0
        _, fixture_out = run_refine(tmp_path, "fixture.jsonl")
        assert filecmp.cmp(tmp_path / "o.jsonl", fixture_out, shallow=False)

    def test_missing_beside_the_config_exits_one(self, tmp_path, monkeypatch, capsys):
        # the path exists under the working directory, but not beside the config
        self.copy_rules(tmp_path / "rules")
        cfg = self.write_config(tmp_path / "cfg", "rules/{id}.jsonl")
        monkeypatch.chdir(tmp_path)
        assert self.refine(cfg, tmp_path / "o.jsonl") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(tmp_path / "cfg" / "rules" / "alpha.jsonl") in err
        assert not (tmp_path / "o.jsonl").exists()


@pytest.fixture
def outage_calls(monkeypatch):
    """Prompts sent by the providers that ``refine`` and ``ablate`` build,
    each of which times out without a retry."""
    calls = []

    def timing_out_provider(spec):
        def transport(_spec, req):
            calls.append(req.prompt)
            raise ProviderTimeout("no answer")
        return Provider(dataclasses.replace(spec, max_retries=0), transport=transport)

    monkeypatch.setattr(pipeline, "Provider", timing_out_provider)
    return calls


@pytest.mark.parametrize("command", ["refine", "ablate"])
def test_total_outage_exits_two_without_output(tmp_path, capsys, outage_calls, command):
    out = tmp_path / "o.jsonl"
    argv = [command, *INPUT_FILES[command], "--vocab", fixture_path("vocab.txt"),
            "--out", str(out)]
    assert main(argv) == 2
    assert outage_calls
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "R@" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_video_without_candidates_exits_zero_in_an_outage(tmp_path, outage_calls):
    # every base score is under the candidate floor, so no agent is asked
    with open(fixture_path("predictions.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    predictions = tmp_path / "p.jsonl"
    predictions.write_text("".join(
        json.dumps(dict(rec, scores=[0.01] * len(rec["scores"]))) + "\n" for rec in records))
    out = tmp_path / "o.jsonl"
    assert main(["refine", "--config", fixture_path("config.json"),
                 "--predictions", str(predictions), "--vocab", fixture_path("vocab.txt"),
                 "--out", str(out)]) == 0
    assert outage_calls == []
    assert out.exists()


def test_summary_counts_debates_whose_judge_failed(tmp_path, capsys, monkeypatch):
    # the fixture's 36 debated candidates ask 10 distinct questions; every
    # judge call times out, yet each of those debates ran
    def judge_rejecting_provider(spec):
        rules, _ = load_rule_table(spec.rules_path)

        def transport(_spec, req):
            if req.prompt.startswith(JUDGE_PREAMBLE):
                raise ProviderTimeout("no answer")
            return match_rules(rules, req.prompt)
        return Provider(dataclasses.replace(spec, max_retries=0), transport=transport)

    monkeypatch.setattr(pipeline, "Provider", judge_rejecting_provider)
    code, _ = run_refine(tmp_path, "refined.jsonl")
    assert code == 0
    assert "debates run: 10\n" in capsys.readouterr().out


class ChatResponse:
    """The part of a ``requests`` response that the HTTP provider reads."""

    status_code, headers = 200, {}

    def __init__(self, content):
        self.body = {"choices": [{"message": {"content": content}}]}
        self.text = json.dumps(self.body)

    def json(self):
        return self.body


def test_null_content_drops_only_its_batches(tmp_path, capsys, monkeypatch):
    # http providers answer from the fixture rule tables, except that every
    # common-sense prompt gets an HTTP 200 whose content is null
    with open(fixture_path("config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    rules = {}
    for spec in config["providers"]:
        rules[spec["model_name"]], _ = load_rule_table(fixture_path(spec.pop("rules_path")))
        spec.update(kind="http", endpoint="http://localhost:9/v1/chat/completions",
                    api_key_env="HOIREFINE_TEST_KEY")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    answered = []

    def post(_url, **kw):
        model, prompt = kw["json"]["model"], kw["json"]["messages"][0]["content"]
        if prompt.startswith(COMMON_SENSE_INSTRUCTION):
            return ChatResponse(None)
        answered.append((model, prompt))
        return ChatResponse(match_rules(rules[model], prompt))

    monkeypatch.setenv("HOIREFINE_TEST_KEY", "key")
    monkeypatch.setattr(requests, "post", post)
    cache = tmp_path / "cache"
    code = main(["refine", "--config", str(cfg),
                 "--predictions", fixture_path("predictions.jsonl"),
                 "--vocab", fixture_path("vocab.txt"),
                 "--out", str(tmp_path / "o.jsonl"), "--cache-dir", str(cache)])
    assert code == 0
    assert "  cs coverage: 0.0% of candidates" in capsys.readouterr().out.splitlines()
    # one cache entry per answered prompt: none for a null answer, no .tmp. file
    providers = {p.spec.model_name: p for p in build_providers(load_config(str(cfg)))}
    assert sorted(entry.name for entry in cache.iterdir() if entry.is_file()) == sorted(
        {cache_key(providers[model], CompletionRequest(prompt)) for model, prompt in answered})


class TestEval:
    def test_baseline_recall_printed(self, capsys):
        code = main([
            "eval",
            "--refined", fixture_path("predictions.jsonl"),
            "--gt", fixture_path("gt.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "R@10" in out and "R@20" in out and "R@50" in out

    def test_custom_k_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "eval",
            "--refined", fixture_path("predictions.jsonl"),
            "--gt", fixture_path("gt.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--k", "5",
            "--report", str(report),
        ])
        assert code == 0
        data = json.loads(report.read_text())
        assert set(data["recall"]) == {"5"}
        assert data["threshold"] == 0.3

    def test_refined_fixture_report_bytes(self, tmp_path, capsys):
        code, refined = run_refine(tmp_path, "refined.jsonl")
        assert code == 0
        report = tmp_path / "report.json"
        assert main(["eval", "--refined", str(refined), "--gt", fixture_path("gt.jsonl"),
                     "--vocab", fixture_path("vocab.txt"), "--k", "1", "2", "3", "5", "10",
                     "--report", str(report)]) == 0
        assert report.read_bytes() == (
            b'{\n  "recall": {\n    "1": 5.0,\n    "10": 100.0,\n    "2": 5.0,\n'
            b'    "3": 5.0,\n    "5": 50.0\n  },\n  "threshold": 0.3\n}\n')

    def test_missing_gt_exits_one(self, tmp_path):
        code = main([
            "eval",
            "--refined", fixture_path("predictions.jsonl"),
            "--gt", str(tmp_path / "nope.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
        ])
        assert code == 1

    def test_failed_replace_leaves_no_partial_report(self, tmp_path, monkeypatch, capsys):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["eval", "--refined", fixture_path("predictions.jsonl"),
                     "--gt", fixture_path("gt.jsonl"), "--vocab", fixture_path("vocab.txt"),
                     "--report", str(tmp_path / "report.json")]) == 1
        assert_one_error_line(capsys, "replace failed")
        assert list(tmp_path.iterdir()) == []


class TestAblate:
    def test_grid_and_report(self, tmp_path, capsys):
        report = tmp_path / "ablation.jsonl"
        code = main([
            "ablate",
            "--config", fixture_path("config.json"),
            "--predictions", fixture_path("predictions.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--gt", fixture_path("gt.jsonl"),
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(report),
        ])
        assert code == 0
        rows = [json.loads(ln) for ln in report.read_text().splitlines()]
        # baseline plus every on/off combination of the four components
        assert len(rows) == 1 + 16
        assert rows[0]["label"] == "baseline"
        assert (tmp_path / "ablation.jsonl.txt").exists()
        stdout = capsys.readouterr().out
        assert "configuration" in stdout


    @pytest.mark.parametrize("failing", ["ablation.jsonl", "ablation.jsonl.txt"])
    def test_failed_replace_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys,
                                                   failing):
        # the JSON report is written first, then the text table
        replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == failing:
                raise OSError("replace failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["ablate", "--config", fixture_path("config.json"),
                     "--predictions", fixture_path("predictions.jsonl"),
                     "--vocab", fixture_path("vocab.txt"), "--gt", fixture_path("gt.jsonl"),
                     "--out", str(tmp_path / "ablation.jsonl")]) == 1
        assert_one_error_line(capsys, "replace failed")
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == (["ablation.jsonl"] if failing.endswith(".txt") else [])

    def test_empty_ground_truth_exits_one_before_any_call(self, tmp_path, capsys,
                                                          transport_calls):
        empty = tmp_path / "gt.jsonl"
        empty.write_text("")
        code = main([
            "ablate",
            "--config", fixture_path("config.json"),
            "--predictions", fixture_path("predictions.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
            "--gt", str(empty),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert transport_calls == []


class TestGradcheck:
    def test_fixture_batch_passes(self, capsys):
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl")])
        assert code == 0
        assert "gradient check passed" in capsys.readouterr().out

    def test_coarse_step_fails_the_check(self, capsys):
        # a step of 1.0 is far too coarse for a finite difference to match
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl"), "--h", "1.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "max relative gradient error: 5.524e-01" in captured.out
        assert captured.err.splitlines() == ["gradient check FAILED"]

    def test_bad_step_exits_one(self):
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl"),
                     "--h=-1e-5"])
        assert code == 1

    @pytest.mark.parametrize("h", ["nan", "inf", "0"])
    def test_non_finite_or_zero_step_exits_one(self, capsys, h):
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl"), "--h", h])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: step h must be finite and > 0, not {float(h)}"]

    @pytest.mark.parametrize("override", [[], ["--metric", "l1"]])
    def test_unknown_metric_in_header_exits_one_at_line_one(self, tmp_path, capsys, override):
        bad = tmp_path / "batch.jsonl"
        with open(fixture_path("embedding_batch.jsonl"), encoding="utf-8") as fh:
            header, *cells = fh.read().splitlines()
        bad.write_text("\n".join([json.dumps({**json.loads(header), "metric": "l2"}), *cells]))
        assert main(["gradcheck", "--batch", str(bad), *override]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")

    @pytest.mark.parametrize("text", ["1e400", "1" + "0" * 400], ids=["1e400", "401-digits"])
    def test_number_out_of_float_range_exits_one_at_its_line(self, tmp_path, capsys, text):
        bad = tmp_path / "batch.jsonl"
        with open(fixture_path("embedding_batch.jsonl"), encoding="utf-8") as fh:
            header, first, *cells = fh.read().splitlines()
        cell = json.loads(first)
        cell["f_human"][0] = 1234.5
        first = json.dumps(cell).replace("1234.5", text)
        bad.write_text("\n".join([header, first, *cells]) + "\n")
        assert main(["gradcheck", "--batch", str(bad)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1, captured.err
        assert err[0].startswith(f"error: {bad}:2: ") and "out of float range" in err[0]

    def test_batch_without_ground_truth_exits_one(self, tmp_path, capsys):
        # with no true cell the loss and every gradient are zero: nothing to compare
        bad = tmp_path / "batch.jsonl"
        with open(fixture_path("embedding_batch.jsonl"), encoding="utf-8") as fh:
            header, *cells = fh.read().splitlines()
        cells = [json.dumps({**json.loads(cell), "gt": False}) for cell in cells]
        bad.write_text("\n".join([header, *cells]) + "\n")
        assert main(["gradcheck", "--batch", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {bad}: no ground-truth cell, so no gradient to check"]

    def test_corrupt_batch_exits_one(self, tmp_path):
        bad = tmp_path / "batch.jsonl"
        bad.write_text("not json\n")
        code = main(["gradcheck", "--batch", str(bad)])
        assert code == 1
