"""Every way a command ends: its exit code and its stderr line.

The CLI maps each library error to one stderr prefix and one exit code;
these cases pin the whole line of each outcome, and the full text of each
refusal the config parser generates from its key tables.
"""

from pathlib import Path

import pytest

from shiftflex.cli import main
from shiftflex.config import parse_config
from shiftflex.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

FULL2 = """\
[shift]
alphabet = 2
matrix = 11 11

[roof]
constant = 1.0

[target]
c_fraction = 0.1

[run]
stages = 1

[stage 1]
word_length = 12
delta = 0.11
kappa = 0.5
radius = 0.5
block_depth = 2
"""

# a depth-16 roof on the full 3-shift: build_roof lists 3^16 label words
DEEP_ROOF = """\
[shift]
alphabet = 3
matrix = 111 111 111

[roof]
depth = 16
0000000000000000 = 1.0

[target]
c_fraction = 0.5
"""

ONE_SYMBOL = """\
[shift]
alphabet = 1
matrix = 1

[roof]
constant = 1.0

[target]
c_fraction = 0.5
"""

OUTCOMES = [
    ("entropy-ok", ["entropy", "--config", "{configs}/golden_mean.cfg"], 0, ""),
    ("construct-ok", ["construct", "--config", "{configs}/full2_small.cfg"], 0, ""),
    ("entropy-reducible", ["entropy", "--config", "{configs}/reducible.cfg"], 1,
     "error: reducible transition matrix\n"),
    ("parry-reducible", ["parry", "--config", "{configs}/reducible.cfg"], 1,
     "error: reducible transition matrix\n"),
    ("missing-config", ["entropy", "--config", "{tmp}/missing.cfg"], 1,
     "config error: cannot read config: [Errno 2] No such file or directory: '{tmp}/missing.cfg'\n"),
    ("unknown-key", ["construct", "--config", "{tmp}/case.cfg"], 1,
     "config error: line 4: field 'colour': unknown shift key 'colour'\n"),
    ("ud-check-no-words", ["ud-check"], 1, "error: no code words given\n"),
    ("ud-check-bad-word", ["ud-check", "0", "1x"], 1,
     "config error: code words are digit strings, got '1x'\n"),
    ("find-word-not-found", ["find-word", "--config", "{tmp}/one.cfg", "-l", "8"], 1,
     "not found: no admissible word of length 8 has self-overlap below 2\n"),
    ("report-missing", ["report", "--out", "{tmp}/nothing"], 1,
     "error: [Errno 2] No such file or directory: '{tmp}/nothing/summary.txt'\n"),
    ("infeasible-target", ["construct", "--config", "{tmp}/far.cfg"], 2,
     "infeasible-target: target c=1.03972 is not below h*=0.693147\n"),
    ("target-c-nan", ["construct", "--config", "{tmp}/nan_c.cfg"], 2,
     "infeasible-target: target entropy must be finite and >= 0, got nan\n"),
    ("target-c-fraction-nan", ["construct", "--config", "{tmp}/nan_fraction.cfg"], 2,
     "infeasible-target: target entropy must be finite and >= 0, got nan\n"),
    ("target-c-inf", ["construct", "--config", "{tmp}/inf_c.cfg"], 2,
     "infeasible-target: target entropy must be finite and >= 0, got inf\n"),
    ("stage-failure", ["construct", "--config", "{tmp}/full2.cfg"], 3,
     "stage failure: stage 1 failed verification: entropy_window, bracket\n"),
    ("unsupported-ambient", ["construct", "--config", "{configs}/full2_tower.cfg", "--stages", "3"], 3,
     "stage failure: stage 2 is a structured permutation-class stage; "
     "it cannot serve as the ambient of a further stage\n"),
    ("capacity", ["construct", "--config", "{tmp}/deep.cfg"], 4,
     "capacity: enumeration of 43046721 label words exceeds budget 16777216\n"),
    ("subsystem-search", ["construct", "--config", "{configs}/golden_mean.cfg"], 5,
     "subsystem-search: no (Y, Z) pair met the entropy/measure/disjointness constraints; "
     "raise the block depth or relax kappa; block_2_y_candidates: 0; block_3_y_candidates: 0\n"),
    ("word-length", ["construct", "--config", "{configs}/full2_small.cfg", "--stages", "2"], 6,
     "word-length: word_length 10 cannot reach the entropy window: γ must run whole passes "
     "through the t = 11 code words of Y (length k1 = 29), so n = q*319; the least admissible "
     "word_length is 7656; least_word_length: 7656\n"),
    ("word-length-none", ["construct", "--config", "{configs}/full3_roof_first.cfg", "--stages", "2"], 6,
     "word-length: word_length 6 cannot reach the entropy window: γ must run whole passes "
     "through the t = 2 code words of Y (length k1 = 20), so n = q*40; no word_length up to "
     "163840 reaches the lower edge (stage 1 has too few code words: Y holds t = 2, all but "
     "Z's two, and log t/k1 = 0.0346574 against the edge 0.0593487); the least word_length "
     "of the form q*40 is 40; least_word_length: None\n"),
]


@pytest.mark.parametrize("argv, code, err", [o[1:] for o in OUTCOMES], ids=[o[0] for o in OUTCOMES])
def test_each_outcome_has_its_exit_code_and_stderr_line(argv, code, err, tmp_path, capsys):
    (tmp_path / "case.cfg").write_text(FULL2.replace("matrix = 11 11", "matrix = 11 11\ncolour = 1"))
    (tmp_path / "full2.cfg").write_text(FULL2)
    (tmp_path / "far.cfg").write_text(FULL2.replace("c_fraction = 0.1", "c_fraction = 1.5"))
    (tmp_path / "nan_c.cfg").write_text(FULL2.replace("c_fraction = 0.1", "c = nan"))
    (tmp_path / "nan_fraction.cfg").write_text(FULL2.replace("c_fraction = 0.1", "c_fraction = nan"))
    (tmp_path / "inf_c.cfg").write_text(FULL2.replace("c_fraction = 0.1", "c = inf"))
    (tmp_path / "deep.cfg").write_text(DEEP_ROOF)
    (tmp_path / "one.cfg").write_text(ONE_SYMBOL)
    argv = [a.format(tmp=tmp_path, configs=CONFIGS) for a in argv]
    if argv[0] == "construct":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert capsys.readouterr().err == err.format(tmp=tmp_path)


def test_usage_errors_exit_1(capsys):
    assert main(["entropy"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "shiftflex entropy: error: the following arguments are required: --config"
    )
    assert main(["no-such-command"]) == 1
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


SHIFT = "[shift]\nalphabet = 2\n"

REFUSALS = [
    ("unknown-shift-key", SHIFT + "colour = red\n",
     "line 3: field 'colour': unknown shift key 'colour'"),
    ("unknown-roof-key", "[roof]\nheight = 2\n", "line 2: field 'height': unknown roof key 'height'"),
    ("unknown-target-key", "[target]\nd = 0.1\n", "line 2: field 'd': unknown target key 'd'"),
    ("unknown-run-key", "[run]\nthreads = 2\n", "line 2: field 'threads': unknown run key 'threads'"),
    ("unknown-stage-key", "[stage 2]\nlength = 3\n", "line 2: field 'length': unknown stage key 'length'"),
    ("not-an-int", "[shift]\nalphabet = three\n", "line 2: field 'alphabet': expected int, got 'three'"),
    ("not-an-int-in-a-stage", "[stage 1]\nword_length = 1.5\n",
     "line 2: field 'word_length': expected int, got '1.5'"),
    ("not-a-float", "[target]\nc = small\n", "line 2: field 'c': expected float, got 'small'"),
    ("not-a-float-in-a-stage", "[stage 1]\nkappa = half\n",
     "line 2: field 'kappa': expected float, got 'half'"),
    ("not-a-float-roof-value", "[roof]\n01 = x\n", "line 2: field '01': expected float, got 'x'"),
    ("matrix-rows", SHIFT + "matrix = 11 1a\n",
     "line 3: field 'matrix': matrix rows must be digit strings"),
    ("forbidden-words", SHIFT + "forbidden = 11 -1\n",
     "line 3: field 'forbidden': forbidden words must be digit strings"),
    ("unknown-section", SHIFT + "[params]\n", "line 3: unknown section [params]"),
    ("stage-section", "[stage one]\n", "line 1: stage sections are `[stage N]`"),
    ("unterminated-section", "[shift\n", "line 1: unterminated section header"),
    ("no-equals", "[shift]\nalphabet 2\n", "line 2: expected `key = value`"),
    ("outside-a-section", "alphabet = 2\n", "line 1: field 'alphabet': key outside any section"),
]


@pytest.mark.parametrize("text, error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_each_parser_refusal_has_its_message(text, error):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == error
