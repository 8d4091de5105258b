import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from shiftflex import VertexShift, find_low_overlap_word, label_word, max_self_overlap
from shiftflex.cli import main
from shiftflex.config import parse_config
from shiftflex.errors import ConfigError
from shiftflex.spectral import parry_measure
from tests.conftest import dense_perron

SMALL = """\
[shift]
alphabet = 2
matrix = 11 11

[roof]
constant = 1.0

[target]
c_fraction = 0.1

[run]
stages = 1
seed = 0
metric_depth = 2
samples = 32

[stage 1]
word_length = 10
overlap_length = 1
delta = 0.11
kappa = 0.5
radius = 0.5
entropy_target = 0.38
block_depth = 2
"""

GOLDEN = """\
[shift]
alphabet = 2
matrix = 11 10

[roof]
constant = 1.0

[target]
c_fraction = 0.5

[run]
stages = 1
"""

FULL3 = """\
[shift]
alphabet = 3
matrix = 111 111 111

[roof]
constant = 1.0

[target]
c_fraction = 0.5

[run]
stages = 1
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL)
    return str(p)


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError) as exc:
        parse_config("[shift]\nalphabet == 3\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("[shift]\nalphabet = three\n")
    assert "line 2" in str(exc.value) and "alphabet" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config("alphabet = 3\n")  # key outside a section


def test_forbidden_word_shift():
    rc = parse_config(
        "[shift]\nalphabet = 2\nforbidden = 11\n\n[roof]\nconstant = 1.0\n"
        "\n[target]\nc_fraction = 0.5\n"
    )
    shift = rc.build_shift()
    from shiftflex import golden_mean_shift, topological_entropy

    assert abs(
        topological_entropy(shift) - topological_entropy(golden_mean_shift())
    ) < 1e-12


def test_cmd_entropy_outputs(tmp_path, capsys):
    p = tmp_path / "full3.cfg"
    p.write_text(FULL3)
    assert main(["entropy", "--config", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1.098612288668"
    g = tmp_path / "golden.cfg"
    g.write_text(GOLDEN)
    assert main(["entropy", "--config", str(g)]) == 0
    assert capsys.readouterr().out.strip() == "0.481211825060"


def test_cmd_entropy_reducible(tmp_path, capsys):
    p = tmp_path / "red.cfg"
    p.write_text(GOLDEN.replace("11 10", "11 01"))
    assert main(["entropy", "--config", str(p)]) == 1
    assert "reducible transition matrix" in capsys.readouterr().err


def test_cmd_entropy_refuses_an_empty_shift_like_a_reducible_one(tmp_path, capsys):
    # every 3-word forbidden: the presentation has no states
    empty = tmp_path / "empty.cfg"
    words = " ".join(f"{i:03b}" for i in range(8))
    empty.write_text(GOLDEN.replace("matrix = 11 10", f"forbidden = {words}"))
    reducible = os.path.join(os.path.dirname(__file__), "..", "configs", "reducible.cfg")
    outcomes = []
    for path in (str(empty), reducible):
        code = main(["entropy", "--config", path])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1] == (1, "error: reducible transition matrix\n")


def test_cmd_entropy_on_a_forbidden_list_with_a_stranded_block(tmp_path, capsys):
    # 11 can never occur once 011 and 111 are forbidden: the golden-mean shift
    p = tmp_path / "gm.cfg"
    p.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 011 111"))
    assert main(["entropy", "--config", str(p)]) == 0
    assert capsys.readouterr().out == "0.481211825060\n"


def test_cmd_parry(tmp_path, capsys):
    g = tmp_path / "golden.cfg"
    g.write_text(GOLDEN)
    assert main(["parry", "--config", str(g)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pi = 0.723606797750 0.276393202250")
    assert "P[1] = 1.000000000000 0.000000000000" in out


def test_cmd_entropy_and_parry_on_a_block_presentation(tmp_path, capsys):
    # a `forbidden` base recoded past its longest word: both commands answer
    # from the lifted Perron data, which must match numpy's dense eig
    cfg = tmp_path / "block.cfg"
    cfg.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 111 0000\nblock = 7"))
    shift = parse_config(cfg.read_text()).build_shift()
    value, right, left = dense_perron(shift)
    pi = left * right / (left * right).sum()
    P = shift.dense() * right[None, :] / (value * right[:, None])
    assert main(["entropy", "--config", str(cfg)]) == 0
    assert abs(float(capsys.readouterr().out) - np.log(value)) <= 1e-10
    assert main(["parry", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == shift.num_states + 1
    assert np.allclose([float(x) for x in lines[0].split()[2:]], pi, rtol=0, atol=1e-11)
    for i, line in enumerate(lines[1:]):
        assert np.allclose([float(x) for x in line.split()[2:]], P[i], rtol=0, atol=1e-11)


def test_cmd_parry_prints_rows_without_the_dense_matrix(tmp_path, capsys):
    # the rows read as the dense matrix would print them, byte for byte ...
    cfg = tmp_path / "block.cfg"
    cfg.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 111 0000\nblock = 7"))
    assert main(["parry", "--config", str(cfg)]) == 0
    dense = parry_measure(parse_config(cfg.read_text()).build_shift()).P.toarray()
    rows = [f"P[{i}] = " + " ".join(f"{x:.12f}" for x in row) for i, row in enumerate(dense)]
    assert capsys.readouterr().out.splitlines()[1:] == rows
    # ... and at block 12 (987 states) take under a tenth of its memory
    cfg.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 111 0000\nblock = 12"))
    n = parse_config(cfg.read_text()).build_shift().num_states
    assert n == 987
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["parry", "--config", str(cfg)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < n * n * 8 / 10


def test_cmd_ud_check(capsys):
    assert main(["ud-check", "0", "01", "11"]) == 0
    assert capsys.readouterr().out.strip() == "uniquely decipherable"
    assert main(["ud-check", "0", "01", "10"]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "NOT uniquely decipherable: 010 = 0·10 = 01·0"
    )
    assert main(["ud-check", "00", "01", "10", "11"]) == 0
    assert capsys.readouterr().out.strip() == "uniquely decipherable"


def test_cmd_find_word(tmp_path, capsys):
    f = tmp_path / "full2.cfg"
    f.write_text(GOLDEN.replace("11 10", "11 11"))
    assert main(["find-word", "--config", str(f), "-l", "8"]) == 0
    assert capsys.readouterr().out.strip() == "00000001  max overlap 0 < 2"
    one = tmp_path / "one.cfg"
    one.write_text(GOLDEN.replace("alphabet = 2", "alphabet = 1").replace("matrix = 11 10", "matrix = 1"))
    assert main(["find-word", "--config", str(one), "-l", "8"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cmd_find_word_on_a_block_presentation(tmp_path, capsys):
    # the word is found on the presentation's root and mapped back: it must
    # be the word the scan of the presentation itself finds
    cfg = tmp_path / "block.cfg"
    cfg.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 111 0000\nblock = 7"))
    h = parse_config(cfg.read_text()).build_shift()
    assert h._lift is not None
    fresh = VertexShift(h.matrix, h.label_array, h.ambient_size)
    word = label_word(fresh, find_low_overlap_word(fresh, 24))
    assert word == tuple(map(int, "000100010001000100010010"))
    assert main(["find-word", "--config", str(cfg), "-l", "24"]) == 0
    out = "".join(map(str, word)) + f"  max overlap {max_self_overlap(word)} < 6\n"
    assert capsys.readouterr().out == out
    # 0101... alone: zero entropy, so no word qualifies
    zero = tmp_path / "zero.cfg"
    zero.write_text(GOLDEN.replace("matrix = 11 10", "forbidden = 00 11\nblock = 4"))
    assert parse_config(zero.read_text()).build_shift()._lift is not None
    assert main(["find-word", "--config", str(zero), "-l", "24"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "not found: no admissible word of length 24 has self-overlap below 6\n"


def test_cmd_ud_check_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["ud-check", "--file", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read code words: [Errno 2] No such file or directory")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("length", ["0", "-3"])
def test_cmd_find_word_refuses_a_length_below_one(length, tmp_path, capsys):
    f = tmp_path / "golden.cfg"
    f.write_text(GOLDEN)
    assert main(["find-word", "--config", str(f), "-l", length]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: word length must be >= 1, got {length}\n"


def test_cmd_construct_small(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["construct", "--config", small_cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "pass" in text
    csv = open(os.path.join(out, "stages.csv")).read().splitlines()
    assert csv[0] == (
        "stage,k,gamma,h_top,roof_integral,normalized_entropy,"
        "bracket_lower,bracket_upper,dist_prev,ud_pass,sync_depth"
    )
    assert len(csv) == 3  # header + base + stage 1
    assert csv[2].split(",")[:3] == ["1", "29", "13"]
    assert csv[2].split(",")[9] == "pass"
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "stage-1.report"))


def test_cmd_construct_deterministic(small_cfg, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["construct", "--config", small_cfg, "--out", out1]) == 0
    assert main(["construct", "--config", small_cfg, "--out", out2]) == 0
    capsys.readouterr()
    a = open(os.path.join(out1, "stages.csv"), "rb").read()
    b = open(os.path.join(out2, "stages.csv"), "rb").read()
    assert a == b


def test_cmd_construct_infeasible(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL.replace("c_fraction = 0.1", "c_fraction = 1.5"))
    assert main(["construct", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "infeasible-target" in capsys.readouterr().err


def test_cmd_construct_zero_stages(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["construct", "--config", small_cfg, "--out", out, "--stages", "0"]) == 0
    capsys.readouterr()
    csv = open(os.path.join(out, "stages.csv")).read().splitlines()
    assert len(csv) == 2  # header + base row only
    assert csv[1].startswith("0,")


def test_cmd_report(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    main(["construct", "--config", small_cfg, "--out", out])
    capsys.readouterr()
    assert main(["report", "--out", out]) == 0
    assert "verdict" in capsys.readouterr().out


FULL3_ROOF = FULL3.replace("constant = 1.0", "{roof}")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_construct(config, tmp_path, *args):
    """`python -m shiftflex construct` on a config, as a subprocess."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "shiftflex", "construct", "--config", config,
         "--out", str(tmp_path / "o"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "roof, why",
    [
        ("depth = 1\n0 = 1.0\n1 = 1.5", "no value on the admissible word 2"),
        ("depth = 1\n00 = 1.0\n1 = 1.5\n2 = 2.0", "declared depth"),
    ],
)
def test_cmd_construct_bad_roof_is_a_config_error(roof, why, tmp_path):
    cfg = tmp_path / "roof.cfg"
    cfg.write_text(FULL3_ROOF.format(roof=roof))
    run = run_construct(str(cfg), tmp_path)
    assert run.returncode == 1
    assert run.stderr.startswith("config error: field 'roof': ")
    assert why in run.stderr
    assert "Traceback" not in run.stderr


def test_cmd_construct_reducible_base_is_infeasible(tmp_path, capsys):
    p = tmp_path / "red.cfg"
    p.write_text(GOLDEN.replace("11 10", "11 01"))
    assert main(["construct", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "infeasible-target: base shift must be irreducible\n"


def test_cmd_construct_subsystem_search_exit_code(tmp_path):
    run = run_construct(os.path.join(ROOT, "configs", "golden_mean.cfg"), tmp_path)
    assert run.returncode == 5
    assert run.stderr.startswith("subsystem-search: no (Y, Z) pair met ")
    assert "; block_2_y_candidates: 0; block_3_y_candidates: 0" in run.stderr
    assert "Traceback" not in run.stderr


def test_cmd_construct_word_length_exit_code(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SMALL.replace("word_length = 10", "word_length = 2"))
    run = run_construct(str(cfg), tmp_path)
    assert run.returncode == 6
    assert run.stderr.startswith("word-length: word_length 2 cannot reach the entropy window")
    assert run.stderr.endswith("; least_word_length: 3\n")


def test_cmd_construct_refuses_a_y_that_holds_every_word(tmp_path):
    """Stage 1 of the config has four code words, and Y already holds the
    two that Z leaves: the refusal names that, not a higher entropy target."""
    cfg = tmp_path / "two.cfg"
    text = open(os.path.join(ROOT, "configs", "full3_roof_first.cfg")).read()
    cfg.write_text(text.replace("stages = 1", "stages = 2"))
    run = run_construct(str(cfg), tmp_path)
    assert run.returncode == 6
    assert "stage 1 has too few code words: Y holds t = 2, all but Z's two, " in run.stderr
    assert "and log t/k1 = 0.0346574 against the edge 0.0593487)" in run.stderr
    assert "raise entropy_target" not in run.stderr


def test_cmd_construct_refusal_names_a_verifying_word_length(tmp_path):
    """On a renewal ambient the refusal counts the class it would build, so
    the n it names verifies: full2_tower is full2_small with stage 2 at
    that n, and its golden outputs pass every check."""
    small = os.path.join(ROOT, "configs", "full2_small.cfg")
    run = run_construct(small, tmp_path, "--stages", "2")
    assert run.returncode == 6
    assert run.stderr.endswith("; least_word_length: 7656\n")
    with open(small) as fh:
        text = fh.read().replace("stages = 1", "stages = 2")
    with open(os.path.join(ROOT, "configs", "full2_tower.cfg")) as fh:
        tower = parse_config(fh.read())
    assert tower == parse_config(text + "\n[stage 2]\nword_length = 7656\n")


TWO_STAGES = SMALL.replace("stages = 1", "stages = 2") + "\n[stage 2]\n{key} = {value}\n"


@pytest.mark.parametrize(
    "text, args, error",
    [
        (SMALL, ["--metric-depth", "0"],
         "field 'metric_depth': metric depth must be >= 1, got 0"),
        (SMALL.replace("metric_depth = 2", "metric_depth = 0"), [],
         "field 'metric_depth': metric depth must be >= 1, got 0"),
        (SMALL.replace("word_length = 10", "word_length = 0"), [],
         "stage 1 word_length: word lengths must be >= 1, got 0"),
        (SMALL.replace("delta = 0.11", "delta = 1.5"), [],
         "stage 1 delta: delta must lie in (0, 1), got 1.5"),
        (TWO_STAGES.format(key="delta", value=0.3), [],
         "stage 2 delta: (1+0.3)^2 must stay below 1+0.11"),
        (TWO_STAGES.format(key="kappa", value=0.4), [],
         "stage 2 kappa: must at least halve, 0.4 vs 0.5"),
        (TWO_STAGES.format(key="entropy_target", value=0.08), [],
         "stage 2 entropy_target: only stage 1 searches for Y; "
         "a later stage takes Y by rule from the code of its ambient"),
        (TWO_STAGES.format(key="block_depth", value=2), [],
         "stage 2 block_depth: only stage 1 searches for Y; "
         "a later stage takes Y by rule from the code of its ambient"),
        (SMALL, ["--stages", "-1"], "field 'stages': stages must be >= 0, got -1"),
    ],
    ids=["metric-depth-flag", "metric-depth-key", "word-length", "delta",
         "delta-decay", "kappa-decay", "stage-2-entropy-target", "stage-2-block-depth",
         "negative-stages"],
)
def test_cmd_construct_refused_values_are_config_errors(text, args, error, tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["construct", "--config", str(cfg), "--out", str(out), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("matrix = 11 11", "matrix = 12 11",
         "field 'matrix': transition matrix entries must be 0 or 1"),
        ("matrix = 11 11", "forbidden = 1x",
         "line 3: field 'forbidden': forbidden words must be digit strings"),
        ("matrix = 11 11", "forbidden = 12",
         "field 'forbidden': forbidden word (1, 2) outside alphabet"),
        ("alphabet = 2\nmatrix = 11 11", "alphabet = 0",
         "field 'alphabet': alphabet must be >= 1, got 0"),
        ("[stage 1]", "[stage 0]\ndelta = 0.2\n\n[stage 1]",
         "line 17: stages count from 1: `[stage 0]` has no stage"),
        ("matrix = 11 11", "matrix = 11 11\nforbidden = 11",
         "line 4: [shift] matrix and forbidden exclude each other; give one"),
        ("matrix = 11 11", "matrix = 11 11\nblock = 2",
         "line 4: field 'block': block recodes a `forbidden` list, and there is none"),
        ("c_fraction = 0.1", "c = 0.05\nc_fraction = 0.1",
         "line 10: [target] c and c_fraction exclude each other; give one"),
        ("constant = 1.0", "depth = 2\nconstant = 1.0",
         "line 7: [roof] constant and depth exclude each other; give one"),
        ("constant = 1.0", "constant = 1.0\n0 = 1.0\n1 = 1.5",
         "line 7: [roof] constant and 0 exclude each other; give one"),
        ("alphabet = 2", "alphabet = 2\nalphabet = 3",
         "line 3: field 'alphabet': [shift] alphabet is also given on line 2"),
        ("kappa = 0.5", "kappa = 0.5\nkappa = 0.4",
         "line 22: field 'kappa': [stage 1] kappa is also given on line 21"),
        ("block_depth = 2", "block_depth = 2\n\n[stage 01]\ndelta = 0.2",
         "line 27: field 'delta': [stage 1] delta is also given on line 20"),
    ],
    ids=["matrix-entry", "forbidden-token", "forbidden-symbol", "alphabet-zero", "stage-zero",
         "matrix-and-forbidden", "block-without-forbidden", "c-and-c-fraction",
         "roof-constant-and-depth", "roof-constant-and-values", "repeated-alphabet",
         "repeated-stage-key", "repeated-key-across-sections"],
)
def test_cmd_construct_malformed_values_are_config_errors(old, new, error, tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SMALL.replace(old, new))
    out = tmp_path / "o"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == "" and not out.exists()
