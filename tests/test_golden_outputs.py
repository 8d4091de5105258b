"""`construct` output stays byte-identical to the recorded outputs.

`tests/data/golden/<config>/` holds the `stages.csv`, `summary.txt` and
`stage-<n>.report` files that `construct` wrote for
`configs/<config>.cfg`; a change that alters any digit of them fails here.
The reports print M, K1, l and the window values of every check.
"""

from pathlib import Path

import pytest

from shiftflex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"


@pytest.mark.parametrize(
    "config", ["full2_small", "full2_tower", "full3_acceptance", "full3_roof_first"]
)
def test_construct_outputs_match_golden(config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["construct", "--config", str(ROOT / "configs" / f"{config}.cfg"), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (GOLDEN / config).iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert {"stages.csv", "summary.txt", "stage-1.report"} <= set(names)
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / config / name).read_bytes(), name
