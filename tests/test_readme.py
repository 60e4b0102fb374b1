"""README's ``## Library`` example, run as written against the fixture, so
the API it documents cannot go stale."""

import os
import re

from hoirefine.ingest import load_predictions, load_vocabulary
from hoirefine.model import FusedScores

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def library_example() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    code = library_example()
    assert code.count('"/tmp/') == 2  # its cache and its output
    monkeypatch.chdir(ROOT)  # the example names the fixtures from the repository root
    namespace = {}
    exec(compile(code.replace('"/tmp/', f'"{tmp_path}/'), "README.md", "exec"), namespace)
    pred_set, outcome = namespace["pred_set"], namespace["outcome"]
    assert type(namespace["score"]) is float
    assert os.listdir(tmp_path / "hoirefine-cache")
    written = load_predictions(tmp_path / "refined.jsonl", load_vocabulary("fixtures/vocab.txt"))
    assert written.scores.ravel().tobytes() == outcome.fused.column.tobytes()
    assert set(namespace["recalls"]) == {10, 20, 50}
    assert isinstance(namespace["no_debate"], FusedScores)
    assert namespace["no_debate"].pred_set is pred_set
    assert namespace["no_debate"] != outcome.fused
