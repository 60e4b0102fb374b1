"""Score integration.

A fused score is the base confidence plus one sigmoid-squashed, weighted
term per agent. Absent agent scores contribute 0 for their whole term, so
unscored relations are never boosted. The fused value is deliberately not
clipped to [0,1]: ranking is what matters downstream, and boosts are meant
to push verified candidates past the positive-prediction threshold.
"""

from __future__ import annotations

import math
from typing import Optional

from .model import FusionWeights


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def fuse_scores(
    s_inter: float,
    s_cs: Optional[float] = None,
    s_spatial: Optional[float] = None,
    s_temporal: Optional[float] = None,
    s_debate: Optional[float] = None,
    weights: FusionWeights = FusionWeights(),
) -> float:
    """Base score plus weighted sigmoid of each present agent score."""
    total = s_inter
    if s_cs is not None:
        total += weights.lambda_cs * sigmoid(s_cs)
    if s_spatial is not None:
        total += weights.lambda_s * sigmoid(s_spatial)
    if s_temporal is not None:
        total += weights.lambda_t * sigmoid(s_temporal)
    if s_debate is not None:
        total += weights.lambda_debate * sigmoid(s_debate)
    return total

