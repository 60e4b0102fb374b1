"""Run configuration: providers, fusion weights, keyframe interval, and
debate settings, loaded from a single JSON file. CLI flags override fields
so ablation scripts can tweak one knob at a time."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .ingest import _in_range, _no_constant, _unique_keys
from .model import FusionWeights, require_types
from .provider import ProviderSpec

DEBATE_MODES = ("disagreement", "always", "off")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RefinementConfig:
    providers: tuple[ProviderSpec, ...]
    judge_provider: str
    keyframe_interval: int = 1
    weights: FusionWeights = FusionWeights()
    debate_mode: str = "disagreement"
    disagreement_delta: float = 0.3
    candidate_floor: float = 0.05
    batch_size: int = 16

    def __post_init__(self):
        if not self.providers:
            raise ConfigError("at least one provider is required")
        require_types(self)
        check_provider_ids([p.id for p in self.providers], self.judge_provider)
        if self.keyframe_interval < 1:
            raise ConfigError("keyframe_interval must be >= 1")
        if self.debate_mode not in DEBATE_MODES:
            raise ConfigError(f"debate_mode must be one of {DEBATE_MODES}")
        if self.disagreement_delta < 0:
            raise ConfigError("disagreement_delta must be >= 0")
        if not 0 <= self.candidate_floor <= 1:
            raise ConfigError("candidate_floor must be in [0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def check_provider_ids(ids: list[str], judge: str) -> None:
    """Raise ConfigError unless the provider ``ids`` are distinct, each
    keying its own provider's stage-1 scores, and include the ``judge``'s."""
    if len(set(ids)) < len(ids):
        raise ConfigError(f"provider ids must be unique, not {ids}")
    if judge not in ids:
        raise ConfigError(f"judge_provider {judge!r} is not configured (provider ids {ids})")


def load_config(path: str) -> RefinementConfig:
    """The configuration in the JSON file at ``path``.

    Each top-level key is a ``RefinementConfig`` field, each provider's a
    ``ProviderSpec`` field and each of ``weights``' a ``FusionWeights``
    field; an unknown key, a key given twice in one object, a value of the
    wrong JSON type, or a number outside JSON and float range (``NaN``,
    ``Infinity``, ``1e400``) raises ConfigError. An omitted field takes the
    dataclass default, and an omitted ``judge_provider`` is the first
    provider. A relative ``rules_path`` is relative to the directory of that
    file, not to the working directory; an absolute one is kept. Whether the
    rule table exists is checked when the provider reads it."""
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_in_range(float), parse_int=_in_range(int),
                            parse_constant=_no_constant, object_pairs_hook=_unique_keys)
        fields = {**raw}
        specs = []
        for spec in raw["providers"]:
            spec = dict(spec)
            if spec.get("rules_path") and isinstance(spec["rules_path"], str):
                spec["rules_path"] = os.path.join(base_dir, spec["rules_path"])
            specs.append(ProviderSpec(**spec))
        fields["providers"] = tuple(specs)
        fields.setdefault("judge_provider", specs[0].id if specs else None)
        if "weights" in fields:
            fields["weights"] = FusionWeights(**fields["weights"])
        return RefinementConfig(**fields)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
