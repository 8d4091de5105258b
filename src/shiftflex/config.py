"""Flat sectioned key-value run configurations.

Matrices are written as rows of 0/1 digits, roof values as `word = value`
lines, and per-stage overrides live in `[stage N]` sections.  The parser
keeps line numbers for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .construction import (
    Target, next_params, plan_initial_params, require_irreducible, validate_schedule
)
from .errors import ConfigError
from .measures import MetricConfig
from .spectral import RoofFunction, abramov, markov_entropy, parry_measure, roof_integral
from .words import VertexShift, from_forbidden_words, full_shift, label_language


@dataclass
class StageOverride:
    index: int
    word_length: int = None
    overlap_length: int = None
    delta: float = None
    kappa: float = None
    radius: float = None
    block_depth: int = None
    entropy_target: float = None

    FLOATS = ("delta", "kappa", "radius", "entropy_target")
    INTS = ("word_length", "overlap_length", "block_depth")
    STAGE_ONE = ("block_depth", "entropy_target")  # keys of stage 1's subset search


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
    stage_overrides: tuple = ()

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

    def build_target(self, shift=None):
        shift = shift or self.build_shift()
        rho = self.build_roof(shift)
        require_irreducible(shift)  # before the Parry measure needs it
        mu = parry_measure(shift)
        hstar = abramov(markov_entropy(mu), roof_integral(mu, rho))
        if self.c is not None:
            c = self.c
        elif self.c_fraction is not None:
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
        overrides = {o.index: o for o in self.stage_overrides}
        schedule = []
        for i in range(1, self.stages + 1):
            if i == 1:
                params = plan_initial_params(target, metric=metric)
            else:
                params = next_params(schedule[-1])
            o = overrides.get(i, StageOverride(index=i))
            late = [name for name in StageOverride.STAGE_ONE if getattr(o, name) is not None]
            if i > 1 and late:
                raise ConfigError(f"stage {i} {late[0]}: only stage 1 searches for Y; a later "
                                  "stage takes Y by rule from the code of its ambient")
            for name in StageOverride.FLOATS + StageOverride.INTS:
                v = getattr(o, name)
                if v is None:
                    continue
                try:
                    params = replace(params, **{name: v})
                except ValueError as exc:
                    raise ConfigError(f"stage {i} {name}: {exc}, got {v!r}") from None
            schedule.append(params)
        try:
            validate_schedule(schedule)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return schedule


def _parse_scalar(value, kind, line, key):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", line=line, field=key)
    return value


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
    roof_values = []
    matrix_rows = None
    forbidden = None
    overrides = {}
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
                overrides.setdefault(idx, StageOverride(index=idx))
                section = f"stage {idx}"
            elif section not in ("shift", "roof", "target", "run"):
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
        if section == "shift":
            if key == "alphabet":
                rc.alphabet = _parse_scalar(value, int, ln, key)
            elif key == "matrix":
                matrix_rows = tuple(value.split())
                if any(not r.isdigit() for r in matrix_rows):
                    raise ConfigError("matrix rows must be digit strings", line=ln, field=key)
            elif key == "forbidden":
                forbidden = tuple(value.split())
                if any(not w.isdigit() for w in forbidden):
                    raise ConfigError("forbidden words must be digit strings", line=ln, field=key)
            elif key == "block":
                rc.block = _parse_scalar(value, int, ln, key)
            else:
                raise ConfigError(f"unknown shift key {key!r}", line=ln, field=key)
        elif section == "roof":
            if key == "depth":
                rc.roof_depth = _parse_scalar(value, int, ln, key)
            elif key == "constant":
                rc.roof_constant = _parse_scalar(value, float, ln, key)
            elif key.isdigit():
                roof_values.append((key, _parse_scalar(value, float, ln, key)))
            else:
                raise ConfigError(f"unknown roof key {key!r}", line=ln, field=key)
        elif section == "target":
            if key == "c":
                rc.c = _parse_scalar(value, float, ln, key)
            elif key == "c_fraction":
                rc.c_fraction = _parse_scalar(value, float, ln, key)
            else:
                raise ConfigError(f"unknown target key {key!r}", line=ln, field=key)
        elif section == "run":
            if key == "stages":
                rc.stages = _parse_scalar(value, int, ln, key)
            elif key == "seed":
                rc.seed = _parse_scalar(value, int, ln, key)
            elif key == "metric_depth":
                rc.metric_depth = _parse_scalar(value, int, ln, key)
            elif key == "samples":
                rc.samples = _parse_scalar(value, int, ln, key)
            elif key == "out":
                rc.out = value
            else:
                raise ConfigError(f"unknown run key {key!r}", line=ln, field=key)
        else:  # stage N
            idx = int(section.split()[1])
            o = overrides[idx]
            if key in StageOverride.INTS:
                setattr(o, key, _parse_scalar(value, int, ln, key))
            elif key in StageOverride.FLOATS:
                setattr(o, key, _parse_scalar(value, float, ln, key))
            else:
                raise ConfigError(f"unknown stage key {key!r}", line=ln, field=key)
    _refuse_conflicts(seen)
    rc.matrix_rows = matrix_rows
    rc.forbidden = forbidden
    rc.roof_values = tuple(roof_values)
    rc.stage_overrides = tuple(overrides[i] for i in sorted(overrides))
    return rc

