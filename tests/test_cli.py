import filecmp
import json
import shutil

import pytest

from hoirefine import pipeline
from hoirefine.cli import main
from hoirefine.prompt import DEBATER_PREAMBLE
from hoirefine.provider import AuthError, Provider, load_rule_table, match_rules

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


class TestRefine:
    def test_exit_zero_and_output_written(self, tmp_path, capsys):
        code, out = run_refine(tmp_path, "refined.jsonl", tmp_path / "cache")
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "run summary:" in stdout
        assert "debates run:" in stdout

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
            rules = load_rule_table(spec.rules_path)

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


INPUT_FILES = {
    "refine": ["--config", fixture_path("config.json"),
               "--predictions", fixture_path("predictions.jsonl")],
    "eval": ["--refined", fixture_path("predictions.jsonl"), "--gt", fixture_path("gt.jsonl")],
    "ablate": ["--config", fixture_path("config.json"),
               "--predictions", fixture_path("predictions.jsonl"),
               "--gt", fixture_path("gt.jsonl")],
}


@pytest.mark.parametrize("command,bad", [
    ("refine", ["--threshold", "1.5"]),
    ("ablate", ["--threshold", "1.5"]),
    ("eval", ["--threshold", "1.5"]),
    ("eval", ["--k", "0"]),
    ("ablate", ["--k", "10", "0"]),
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
@pytest.mark.parametrize("rules", [None, b"not json\n", b"\xff\xfe{}\n"],
                         ids=["missing", "malformed", "not-utf8"])
def test_bad_rule_table_exits_one_before_any_call(tmp_path, capsys, command, rules):
    # alpha's rule table is fine; beta's is missing, not JSON or not UTF-8
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

    def test_missing_gt_exits_one(self, tmp_path):
        code = main([
            "eval",
            "--refined", fixture_path("predictions.jsonl"),
            "--gt", str(tmp_path / "nope.jsonl"),
            "--vocab", fixture_path("vocab.txt"),
        ])
        assert code == 1


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


    def test_empty_ground_truth_exits_one_before_any_call(self, tmp_path, capsys,
                                                          monkeypatch):
        calls = []

        def counting_provider(spec):
            rules = load_rule_table(spec.rules_path)

            def transport(_spec, req):
                calls.append(req.prompt)
                return match_rules(rules, req.prompt)
            return Provider(spec, transport=transport)

        monkeypatch.setattr(pipeline, "Provider", counting_provider)
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
        assert calls == []


class TestGradcheck:
    def test_fixture_batch_passes(self, capsys):
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl")])
        assert code == 0
        assert "gradient check passed" in capsys.readouterr().out

    def test_bad_step_exits_one(self):
        code = main(["gradcheck", "--batch", fixture_path("embedding_batch.jsonl"),
                     "--h=-1e-5"])
        assert code == 1

    def test_corrupt_batch_exits_one(self, tmp_path):
        bad = tmp_path / "batch.jsonl"
        bad.write_text("not json\n")
        code = main(["gradcheck", "--batch", str(bad)])
        assert code == 1
