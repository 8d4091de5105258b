"""Flat sectioned key-value run configurations.

Matrices are written as rows of 0/1 digits, roof values as `word = value`
lines, and per-stage overrides live in `[stage N]` sections.  The parser
keeps line numbers for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .construction import (
    Target, next_params, plan_initial_params, require_irreducible, validate_schedule
)
from .errors import ConfigError, InfeasibleTargetError
from .measures import MetricConfig
from .spectral import RoofFunction, abramov, markov_entropy, parry_measure, roof_integral
from .words import VertexShift, from_forbidden_words, full_shift, label_language


@dataclass
class RunConfig:
    alphabet: int = None
    matrix_rows: tuple = None  # tuple of digit strings
    forbidden: tuple = None  # tuple of digit strings
    block: int = None
    roof_depth: int = 1
    roof_values: tuple = ()  # ((word_string, value), ...)
    roof_constant: float = None
    c: float = None
    c_fraction: float = None
    stages: int = 1
    seed: int = 0  # only perfbench's configs still set it; nothing reads it
    metric_depth: int = 2
    samples: int = 32  # only perfbench still passes it on, into RunSettings
    out: str = None
    stage_overrides: dict = field(default_factory=dict)  # stage index -> {key: value}

    def build_shift(self):
        """The base shift; ConfigError names the field a value fails in."""
        if self.alphabet is None:
            raise ConfigError("missing [shift] alphabet", field="alphabet")
        if self.alphabet < 1:
            raise ConfigError(f"alphabet must be >= 1, got {self.alphabet}", field="alphabet")
        if self.matrix_rows is None and self.forbidden is None:
            return full_shift(self.alphabet)
        field = "matrix" if self.matrix_rows is not None else "forbidden"
        try:
            if self.matrix_rows is None:
                words = [tuple(int(ch) for ch in w) for w in self.forbidden]
                return from_forbidden_words(self.alphabet, words, block=self.block)
            rows = [[int(ch) for ch in r] for r in self.matrix_rows]
            if len(rows) != self.alphabet or any(len(r) != self.alphabet for r in rows):
                raise ValueError(f"matrix must be {self.alphabet} rows of {self.alphabet} digits")
            return VertexShift(rows)
        except ValueError as exc:
            raise ConfigError(str(exc), field=field) from None

    def build_roof(self, shift):
        """The roof, with a value on every admissible word of its depth."""
        if self.roof_constant is None and not self.roof_values:
            raise ConfigError("roof needs `constant` or word values", field="roof")
        try:
            if self.roof_constant is not None:
                rho = RoofFunction.constant(self.roof_constant, shift.ambient_size)
            else:
                values = {tuple(int(ch) for ch in w): v for w, v in self.roof_values}
                rho = RoofFunction(self.roof_depth, values)
        except ValueError as exc:
            raise ConfigError(f"bad roof: {exc}", field="roof") from None
        missing = next((w for w in label_language(shift, rho.depth) if w not in rho.values), None)
        if missing is not None:
            raise ConfigError(
                f"roof has no value on the admissible word {''.join(map(str, missing))}",
                field="roof",
            )
        return rho

    def build_target(self):
        shift = self.build_shift()
        rho = self.build_roof(shift)
        require_irreducible(shift)  # before the Parry measure needs it
        mu = parry_measure(shift)
        hstar = abramov(markov_entropy(mu), roof_integral(mu, rho))
        if self.c is not None:
            c = self.c
        elif self.c_fraction is not None:
            if not (math.isfinite(self.c_fraction) and self.c_fraction >= 0):
                raise InfeasibleTargetError(
                    f"c_fraction must be finite and >= 0, got {self.c_fraction}"
                )
            c = self.c_fraction * hstar
        else:
            raise ConfigError("target needs `c` or `c_fraction`", field="target")
        return Target(c=c, rho=rho, base=shift, base_measure=mu)

    def build_schedule(self, target):
        """Parameters of stages 1..stages; ConfigError names a refused key."""
        if self.stages < 0:
            raise ConfigError(f"stages must be >= 0, got {self.stages}", field="stages")
        try:
            metric = MetricConfig(self.metric_depth)
        except ValueError as exc:
            raise ConfigError(f"{exc}, got {self.metric_depth}", field="metric_depth") from None
        schedule = []
        for i in range(1, self.stages + 1):
            if i == 1:
                params = plan_initial_params(target, metric=metric)
            else:
                params = next_params(schedule[-1])
            given = self.stage_overrides.get(i, {})
            late = [key for key in STAGE_ONE if key in given]
            if i > 1 and late:
                raise ConfigError(f"stage {i} {late[0]}: only stage 1 searches for Y; a later "
                                  "stage takes Y by rule from the code of its ambient")
            for key in [k for k in STAGE_KEYS if k in given]:
                try:
                    params = replace(params, **{key: given[key]})
                except ValueError as exc:
                    raise ConfigError(f"stage {i} {key}: {exc}, got {given[key]!r}") from None
            schedule.append(params)
        try:
            validate_schedule(schedule)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return schedule


# (section, key) -> (RunConfig field, kind) of every key but a roof word's
# value (a float) and the keys of a `[stage N]` section, `STAGE_KEYS`.  A
# kind is a type, or the plural noun of a list of digit strings.
KEYS = {
    ("shift", "alphabet"): ("alphabet", int),
    ("shift", "matrix"): ("matrix_rows", "matrix rows"),
    ("shift", "forbidden"): ("forbidden", "forbidden words"),
    ("shift", "block"): ("block", int),
    ("roof", "depth"): ("roof_depth", int),
    ("roof", "constant"): ("roof_constant", float),
    ("target", "c"): ("c", float),
    ("target", "c_fraction"): ("c_fraction", float),
    ("run", "stages"): ("stages", int),
    ("run", "seed"): ("seed", int),
    ("run", "metric_depth"): ("metric_depth", int),
    ("run", "samples"): ("samples", int),
    ("run", "out"): ("out", str),
}
# the StageParams fields a `[stage N]` section overrides, in the order
# `build_schedule` applies them; only stage 1's subset search reads STAGE_ONE
STAGE_KEYS = {
    "delta": float, "kappa": float, "radius": float, "entropy_target": float,
    "word_length": int, "overlap_length": int, "block_depth": int,
}
STAGE_ONE = ("block_depth", "entropy_target")


def _parse_value(value, kind, line, key):
    """`value` read as `kind` (see KEYS); ConfigError names its line and key."""
    if isinstance(kind, str):
        words = tuple(value.split())
        if not all(w.isdigit() for w in words):
            raise ConfigError(f"{kind} must be digit strings", line=line, field=key)
        return words
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", line=line, field=key) from None


def _refuse_conflicts(seen):
    """ConfigError for two keys of which the run would read only one, and
    for a `block` with nothing to recode."""
    word = next((key for section, key in seen if section == "roof" and key.isdigit()), None)
    for section, a, b in [("shift", "matrix", "forbidden"), ("target", "c", "c_fraction"),
                          ("roof", "constant", "depth"), ("roof", "constant", word)]:
        if (section, a) in seen and (section, b) in seen:
            raise ConfigError(f"[{section}] {a} and {b} exclude each other; give one",
                              line=max(seen[section, a], seen[section, b]))
    if ("shift", "block") in seen and ("shift", "forbidden") not in seen:
        raise ConfigError("block recodes a `forbidden` list, and there is none",
                          line=seen["shift", "block"], field="block")


def parse_config(text):
    """Parse the sectioned key-value format into a RunConfig."""
    rc = RunConfig()
    seen = {}  # (section, key) -> line
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=ln)
            section = line[1:-1].strip().lower()
            if section.startswith("stage"):
                parts = section.split()
                if len(parts) != 2 or not parts[1].isdigit():
                    raise ConfigError("stage sections are `[stage N]`", line=ln)
                idx = int(parts[1])
                if idx < 1:
                    raise ConfigError("stages count from 1: `[stage 0]` has no stage", line=ln)
                overrides = rc.stage_overrides.setdefault(idx, {})
                section = f"stage {idx}"
            elif section not in {s for s, _ in KEYS}:
                raise ConfigError(f"unknown section [{section}]", line=ln)
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", line=ln)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if section is None:
            raise ConfigError("key outside any section", line=ln, field=key)
        if seen.setdefault((section, key), ln) != ln:
            raise ConfigError(f"[{section}] {key} is also given on line {seen[section, key]}",
                              line=ln, field=key)
        if section.startswith("stage ") and key in STAGE_KEYS:
            overrides[key] = _parse_value(value, STAGE_KEYS[key], ln, key)
        elif (section, key) in KEYS:
            name, kind = KEYS[section, key]
            setattr(rc, name, _parse_value(value, kind, ln, key))
        elif section == "roof" and key.isdigit():
            rc.roof_values += ((key, _parse_value(value, float, ln, key)),)
        else:
            raise ConfigError(f"unknown {section.split()[0]} key {key!r}", line=ln, field=key)
    _refuse_conflicts(seen)
    return rc
