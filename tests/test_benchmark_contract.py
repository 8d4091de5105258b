"""The benchmark's contract with the package.

`perfbench/tracing.py` wraps the package's functions by name,
`perfbench/run.py --self-test` drives small real runs through them, and
the workloads call the package through the attributes of `sf`; a rename
or deletion in `src/` that breaks any of them fails here, also on a
workload path the self-test does not run.  The perfbench files are only
read: they are parsed or executed from their source text, and the
self-test runs with bytecode writing off.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def traced_names():
    path = PERFBENCH / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module, attr in names:
        obj = importlib.import_module(f"shiftflex.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"shiftflex.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"shiftflex.{module}.{attr}"


def _chain(node):
    """The dotted names of an attribute chain `a.b.c`, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def perfbench_reads():
    """(file, line, names, call) for each package attribute perfbench reads:
    `sf.X`, `sf.mod.X`, and `alias.X` for an alias bound to `sf.mod`
    (`words, spectral, codes = sf.words, sf.spectral, sf.codes`).  `call`
    is the ast.Call when the attribute is called, else None."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {"sf": []}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            pairs = [(node.targets[0], node.value)]
            if all(isinstance(n, ast.Tuple) for n in pairs[0]):
                pairs = zip(node.targets[0].elts, node.value.elts)
            for name, value in pairs:
                chain = _chain(value)
                if isinstance(name, ast.Name) and chain and chain[0] == "sf":
                    aliases[name.id] = chain[1:]
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in aliases:
                names = aliases[chain[0]] + chain[1:]
                yield path.name, node.lineno, names, calls.get(id(node))


def test_every_perfbench_read_resolves():
    import shiftflex
    import shiftflex.config  # noqa: F401  (perfbench imports it too)

    seen = set()
    for file, line, names, call in perfbench_reads():
        where = f"perfbench/{file}:{line}: sf.{'.'.join(names)}"
        obj = shiftflex
        for part in names:
            assert hasattr(obj, part), where
            obj = getattr(obj, part)
        seen.add(".".join(names))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(obj).bind(*[None] * len(call.args), **keywords)
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
    # the workloads' own calls, which --self-test does not all make
    assert {"build_stage", "verify_stage", "RunSettings", "construction.base_stage",
            "words.higher_block", "words.label_language", "spectral.topological_entropy",
            "codes.find_low_overlap_word"} <= seen


def test_perfbench_self_test_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test: every check can fail" in run.stdout


def test_acceptance_tower_round_passes_the_benchmark_checks(monkeypatch):
    """One round of the benchmark's acceptance-tower workload, in this
    process: stage 1, stage 2 and the repeats of stage 2, each checked by
    `perfbench/checks.check_stage` as the benchmark checks it.  The
    perfbench modules are loaded from their source, with bytecode writing
    off, and the BLAS thread pins of `perfbench/common.py` are undone."""
    import importlib.util

    import shiftflex

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(ROOT)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    result, timing = run.measure(shiftflex, run.Tower(), 1, 0.0, 0.0)
    assert result == dict(correct=True, attempted=1 + run.LAST_STAGE_BUILDS, failed=0)
    assert sorted(timing["times"]) == ["stage1", "stage2", "stage2-again"]
