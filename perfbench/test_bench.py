"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run.import_program()

import layertrace  # noqa: E402

RUN = os.path.join(run.HERE, "run.py")
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=600)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert sorted(m["name"] for m in SPEC["end_to_end"]) == sorted(run.E2E_COMMON)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layertrace.LAYER_METRICS


def test_short_run_of_every_workload_prints_every_metric():
    proc = _bench("--workload", "all", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    table = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[:-1]}
    for name, unit in run.E2E:
        assert table[name][1] == unit
        assert len(table[name]) >= 2 + len(run.WORKLOADS)
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for name in run.E2E_COMMON:
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = _bench("--workload", "rt_cold", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("--workload", "rt_cold", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    printed = proc.stdout
    for name, _, _ in layertrace.LAYER_METRICS:
        assert f"  {name} " in printed
    assert result["metrics"]["provider.requests"]["value"] > 0
    assert result["metrics"]["debate.selected"]["value"] > 0


def test_corrupted_refined_line_fails_the_digest_check(monkeypatch):
    from hoirefine import ingest

    write = ingest.write_predictions

    def corrupting_write(pred_set, fused, path):
        write(pred_set, fused, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        record = json.loads(lines[0])
        record["scores"][0] += 1e-9
        lines[0] = json.dumps(record, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    monkeypatch.setattr(ingest, "write_predictions", corrupting_write)
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        bench = run.Bench("rt_cold", work, [0], run.load_expected(), latency=False)
        bench.prepare()
        sample = bench.rep(0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert any("sha256" in p for p in sample["problems"])
    assert sample["failed"] >= 1


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rt_cold",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
