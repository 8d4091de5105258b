#!/usr/bin/env python3
"""Library-level walkthrough: build one verified tower stage by hand.

Builds the fast full 2-shift example (unit roof, target one tenth of
log 2) and prints every verified window of the resulting stage.
"""

import math

from shiftflex import (
    MetricConfig,
    RoofFunction,
    StageParams,
    Target,
    build_stage,
    full_shift,
    normalized_entropy,
    parry_measure,
)
from shiftflex.construction import base_stage

base = full_shift(2)
target = Target(
    c=0.1 * math.log(2),
    rho=RoofFunction.constant(1.0, 2),
    base=base,
    base_measure=parry_measure(base),
)
params = StageParams(
    delta=0.11,
    kappa=0.5,
    word_length=10,
    overlap_length=1,
    metric=MetricConfig(2),
    radius=0.5,
    entropy_target=0.38,
)

stage, report = build_stage(base_stage(target), target, params)
print(f"stage {stage.index}: {len(stage.code)} code words of length {report.k}")
print(f"h_top = {report.h_top:.6f}, target window {report.entropy_window}")
print(f"normalized entropy = {normalized_entropy(stage, target.rho):.6f} "
      f"(target c = {target.c:.6f}, bracket {report.bracket})")
for item in report.items():
    print(f"  [{'ok' if item.ok else 'FAIL'}] {item.name}: {item.detail}")
