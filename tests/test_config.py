import json
import math
import re

import pytest

from hoirefine.config import ConfigError, RefinementConfig, load_config
from hoirefine.model import FusionWeights
from hoirefine.provider import ProviderSpec


def test_omitted_fields_take_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"providers": [{"id": "a"}, {"id": "b"}]}))
    # the judge defaults to the first provider
    assert load_config(str(cfg)) == RefinementConfig(
        providers=(ProviderSpec(id="a"), ProviderSpec(id="b")), judge_provider="a")


@pytest.mark.parametrize("make", [
    lambda: ProviderSpec(id="p", max_concurrency=True),
    lambda: ProviderSpec(id="p", max_retries=1.0),
    lambda: ProviderSpec(id="p", backoff_base=None),
    lambda: FusionWeights(threshold="0.3"),
    lambda: FusionWeights(lambda_s=True),
    lambda: RefinementConfig(providers=(ProviderSpec(id="p"),), judge_provider="p",
                             disagreement_delta=[0.3]),
    lambda: ProviderSpec(id=5),
    lambda: ProviderSpec(id="p", model_name=7),
    lambda: ProviderSpec(id="p", kind="http", endpoint="http://localhost:1/v1",
                         api_key_env=3),
    lambda: ProviderSpec(id="p", auth_header=5),
    lambda: ProviderSpec(id="p", auth_scheme=None),
    lambda: ProviderSpec(id="p", rules_path=True),
    lambda: ProviderSpec(id="p", timeout=0),
    lambda: ProviderSpec(id="p", timeout=math.inf),
    lambda: ProviderSpec(id="p", backoff_base=-1),
    lambda: ProviderSpec(id="p", backoff_base=math.nan),
], ids=["bool-concurrency", "float-retries", "none-backoff", "string-threshold",
        "bool-weight", "list-delta", "number-id", "number-model-name", "number-api-key-env",
        "number-auth-header", "null-auth-scheme", "bool-rules-path", "zero-timeout",
        "infinite-timeout", "negative-backoff", "nan-backoff"])
def test_wrongly_typed_field_is_rejected(make):
    with pytest.raises(ValueError, match="must be"):
        make()


def test_candidate_floor_is_in_the_unit_interval():
    def config(floor):
        return RefinementConfig(providers=(ProviderSpec(id="p"),), judge_provider="p",
                                candidate_floor=floor)

    for floor in (5, -0.1):
        with pytest.raises(ConfigError, match=r"^candidate_floor must be in \[0, 1\]$"):
            config(floor)
    assert [config(floor).candidate_floor for floor in (0.0, 1.0)] == [0.0, 1.0]


def test_optional_strings_may_be_null(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"providers": [
        {"id": "a", "endpoint": None, "api_key_env": None, "rules_path": None}]}))
    assert load_config(str(cfg)).providers == (ProviderSpec(id="a"),)


def test_string_typed_config_error_names_the_file(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"providers": [
        {"id": "a", "kind": "http", "endpoint": "http://localhost:1/v1", "api_key_env": 3}]}))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}: api_key_env must be a string"):
        load_config(str(cfg))


def test_integer_valued_floats_are_accepted():
    weights = FusionWeights(lambda_s=2, threshold=0.5)
    assert weights.lambda_s == 2


def test_non_object_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text("[]")
    with pytest.raises(ConfigError, match=str(cfg)):
        load_config(str(cfg))


@pytest.mark.parametrize("text,message", [
    *((f'{{"providers": [{{"id": "a"}}], "weights": {{"lambda_s": {number}}}}}', message)
      for number, message in [("NaN", "NaN is not a JSON number"),
                              ("Infinity", "Infinity is not a JSON number"),
                              ("-Infinity", "-Infinity is not a JSON number"),
                              ("1e400", "number 1e400 is out of float range"),
                              ("1" + "0" * 400, "number 1000.* is out of float range")]),
    ('{"providers": [{"id": "a"}], "batch_size": 1, "batch_size": 2}',
     "duplicate key 'batch_size'"),
    ('{"providers": [{"id": "a", "timeout": 5, "timeout": 6}]}', "duplicate key 'timeout'"),
], ids=["NaN", "Infinity", "-Infinity", "1e400", "401-digits", "duplicate-key",
        "duplicate-provider-key"])
def test_text_outside_the_json_number_and_key_rules_is_a_config_error(tmp_path, text,
                                                                      message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}: {message}$"):
        load_config(str(cfg))
