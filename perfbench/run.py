#!/usr/bin/env python3
"""Benchmark of shiftflex: the acceptance tower, a flexibility sweep and SFT queries.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --self-test             # each check rejects a corrupted value

A run sets up its inputs from the seed, then runs whole rounds of
operations until S seconds have passed and, for flex-sweep and
sft-queries, at least MIN_OPS of their main operations (builds, queries)
have run.  Every output is
checked (perfbench/checks.py) outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The exit
code is 0 only when every operation succeeded and passed its checks.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common  # pins BLAS threads before numpy loads
import checks
import sft as sftlib
import tracing

WORKLOADS = ("acceptance-tower", "flex-sweep", "sft-queries")
MIN_OPS = 40
TAIL = 0.75  # with MIN_OPS operations, ten lie beyond this percentile
SETUP_REPEATS = 5
IMPORT_PROBES = 4  # fresh interpreters timing the package's import
IMPORT_REPEATS = 5  # imports in each
LAST_STAGE_BUILDS = 3  # acceptance-tower: builds of stage 2 per round
TOWER_CONFIG = "configs/full3_acceptance.cfg"
OUT_DIR = Path(".perfbench-out")

IMPORT_PROBE = (
    f"import json, sys; sys.path.insert(0, {str(common.HERE)!r}); import common; "
    f"print(json.dumps(common.import_shiftflex({IMPORT_REPEATS})[1]))"
)


class Op:
    """One timed operation.  `run()` returns its output and the seconds of
    its phases (a tuple of one or two); `check(output)` raises
    checks.CheckFailed on a wrong output.  `tag` names the kind of
    operation, which the workload's metrics are taken from."""

    def __init__(self, tag, run, check):
        self.tag, self.run, self.check = tag, run, check


def durations(times, tag):
    """Whole-operation seconds of every successful operation with the tag."""
    return [sum(phases) for phases in times.get(tag, ())]


# --- workloads ------------------------------------------------------------------


class Tower:
    """The two-stage acceptance tower, stage by stage as `iterate` builds it.

    A round is one tower (tags stage1 and stage2), then the last stage built
    again LAST_STAGE_BUILDS - 1 times on the same previous stage (tag
    stage2-again), which a build leaves as it found it: no cache on it
    fills, so the repeats are the same work and stage2_s is their median.
    """

    min_ops = 1
    chained = True  # stage 2 needs stage 1: a failed stage ends the round
    wall_tags = ("stage1", "stage2")

    def setup(self, sf, seed):
        with open(TOWER_CONFIG, encoding="utf-8") as fh:
            rc = sf.config.parse_config(fh.read())
        target = rc.build_target()
        if target.rho.depth != 1:
            raise ValueError("the closed-form roof integrals need a depth-1 roof")
        schedule = rc.build_schedule(target)[: rc.stages]
        if len(schedule) != 2:
            raise ValueError(f"{TOWER_CONFIG} should have two stages, not {len(schedule)}")
        sf.construction.validate_schedule(schedule)
        settings = sf.RunSettings(seed=seed, samples=rc.samples)
        return target, schedule, settings

    def round(self, sf, inputs):
        target, schedule, settings = inputs
        stages = [sf.construction.base_stage(target)]
        yield self._stage_op(sf, "stage1", stages, 0, target, schedule[0], settings)
        yield self._stage_op(sf, "stage2", stages, 1, target, schedule[1], settings)
        for _ in range(LAST_STAGE_BUILDS - 1):
            yield self._stage_op(sf, "stage2-again", stages, 1, target, schedule[1], settings)

    def _stage_op(self, sf, tag, stages, i, target, params, settings):
        """Build stage i + 1 on stages[i]; the first build of it is kept."""

        def run():
            t0 = time.perf_counter()
            stage, report = sf.build_stage(stages[i], target, params, settings=settings)
            dt = time.perf_counter() - t0
            if len(stages) == i + 1:
                stages.append(stage)
            return (stages[i], stage, report), (dt,)

        def check(out):
            prev, stage, report = out
            checks.check_stage(prev, stage, report, target.c, params.delta, target.rho.values)

        return Op(tag, run, check)

    def stage_samples(self, times):
        return durations(times, "stage1"), durations(times, "stage2") + durations(times, "stage2-again")


class FlexSweep:
    """Verified first stages on small bases across targets c.

    For each entry a round builds the verified first stage (tag build),
    then verifies that stage again by a separate `verify_stage` call (tag
    reverify).
    """

    min_ops = MIN_OPS
    chained = False
    wall_tags = ("build",)

    def setup(self, sf, seed):
        out = []
        for i, entry in enumerate(common.load_entries()):
            rc = sf.config.parse_config(common.entry_config(entry))
            target = rc.build_target()
            if target.rho.depth != 1:
                raise ValueError("the closed-form roof integrals need a depth-1 roof")
            params = rc.build_schedule(target)[0]
            out.append((target, params, sf.RunSettings(seed=seed * 64 + i, samples=rc.samples)))
        return out

    def round(self, sf, inputs):
        for target, params, settings in inputs:
            base = sf.construction.base_stage(target)
            built = {}
            yield self._build(sf, base, target, params, settings, built)
            if built:  # nothing to verify again after a failed build
                yield self._reverify(sf, base, target, params, settings, built)

    def _build(self, sf, base, target, params, settings, built):
        def run():
            t0 = time.perf_counter()
            stage, report = sf.build_stage(base, target, params, settings=settings)
            dt = time.perf_counter() - t0
            built.update(stage=stage, report=report)
            return (stage, report), (dt,)

        def check(out):
            stage, report = out
            checks.check_stage(base, stage, report, target.c, params.delta, target.rho.values)

        return Op("build", run, check)

    def _reverify(self, sf, base, target, params, settings, built):
        def run():
            stage, report = built.pop("stage"), built.pop("report")
            overlap = {k: report.overlap[k] for k in ("l", "border", "M", "K1", "disjoint")}
            t0 = time.perf_counter()
            again = sf.verify_stage(base, stage, target, params, settings, overlap_data=overlap)
            return (stage, report.h_top, again), (time.perf_counter() - t0,)

        def check(out):
            stage, h_top, again = out
            ri = checks.stage_roof_integral(stage, target.rho.values)
            checks.check_report(again, target.c, params.delta, h_top, ri)

        return Op("reverify", run, check)

    def stage_samples(self, times):
        return durations(times, "build"), durations(times, "reverify")


class SftQueries:
    """Analysis queries on seeded SFTs recoded to thousands of states.

    The inputs are the benchmark's own forbidden-word lists, drawn once per
    run before set-up; a query starts from the list, so the program has no
    set-up beyond its import.  A query has two phases: recoding and
    spectral (phase 1), language queries (phase 2).
    """

    min_ops = MIN_OPS
    chained = False
    wall_tags = ("query",)

    def __init__(self, seed):
        rng = sftlib.np.random.default_rng(seed)
        self.shifts = [sftlib.generate(rng, slot) for _ in range(sftlib.REPEATS) for slot in sftlib.SLOTS]
        self.refs = {}  # shift index -> reference values of its checks

    def setup(self, sf, seed):
        return self.shifts

    def round(self, sf, inputs):
        for i, s in enumerate(inputs):
            yield self._op(sf, i, s)

    def _op(self, sf, i, s):
        words, spectral, codes = sf.words, sf.spectral, sf.codes
        a = s.slot.alphabet

        def run():
            t0 = time.perf_counter()
            if s.slot.recode == "forbidden":
                shift = words.from_forbidden_words(a, s.forbidden, block=s.block)
            else:
                shift = words.higher_block(words.from_forbidden_words(a, s.forbidden), s.higher)
            h = spectral.topological_entropy(shift)
            parry = spectral.parry_measure(shift)
            t1 = time.perf_counter()
            lang = words.label_language(shift, s.depth)
            window = words.longest_window_avoiding(shift, s.pattern)
            word = codes.find_low_overlap_word(shift, s.overlap_length)
            t2 = time.perf_counter()
            return (shift, h, parry, lang, window, word), (t1 - t0, t2 - t1)

        def check(out):
            shift, h, parry, lang, window, word = out
            if i not in self.refs:  # once per shift
                self.refs[i] = (
                    sftlib.brute_force_count(a, s.forbidden, s.depth),
                    words.longest_window_avoiding(words.from_forbidden_words(a, s.forbidden), s.pattern),
                )
            count_ref, window_ref = self.refs[i]
            checks.check_entropy(h, s.entropy)  # eigvals on the benchmark's presentation
            checks.check_parry(parry.pi, parry.P, h)
            checks.check_count(f"label words of length {s.depth}", len(lang), count_ref)
            checks.check_count("longest window between recodings", window, window_ref)
            checks.check_path(shift.matrix, word)
            checks.check_low_overlap(words.label_word(shift, word), s.forbidden, s.overlap_length)

        return Op("query", run, check)

    def stage_samples(self, times):
        queries = times.get("query", ())
        return [p[0] for p in queries], [p[1] for p in queries]


# --- measuring ---------------------------------------------------------------------


def import_seconds():
    """Median time of the package's own import (see common.import_shiftflex),
    pooled over IMPORT_PROBES fresh interpreters: the imports of one process
    share its speed, which differs from process to process."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True
        )
        times += json.loads(out.stdout.strip().splitlines()[-1])
    return statistics.median(times)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def measure(sf, workload, seed, seconds, import_s, tracer=None):
    """Set up, then run whole rounds until `seconds` have passed and the
    workload's least number of operations has been attempted."""
    if tracer is None:
        build = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(sf, seed)
            build.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build)
    else:
        inputs = workload.setup(sf, seed)
        setup_s = None
    setup_spans = len(tracer.spans) if tracer else 0

    times, rounds = {}, []  # times: tag -> phase tuples of successful operations
    attempted = failed = main_ops = 0
    correct = True
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for op in workload.round(sf, inputs):
            attempted += 1
            main_ops += op.tag in workload.wall_tags
            gc.collect()
            try:
                out, phases = op.run()
            except sf.ShiftflexError as exc:
                failed += 1
                print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                if workload.chained:
                    break
                continue
            if tracer is not None:
                tracer.on = False
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                failed += 1
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
                continue
            finally:
                del out
                if tracer is not None:
                    tracer.on = True
            times.setdefault(op.tag, []).append(phases)
            if op.tag in workload.wall_tags:
                round_s += sum(phases)
        rounds.append(round_s)
        if time.perf_counter() - start >= seconds and main_ops >= workload.min_ops:
            break
    result = dict(correct=correct, attempted=attempted, failed=failed)
    timing = dict(setup_s=setup_s, setup_spans=setup_spans, rounds=rounds, times=times)
    return result, timing


def e2e_metrics(workload, t):
    """The end-to-end metrics of an untraced run (see the README)."""
    med = statistics.median
    ops = [d for tag in workload.wall_tags for d in durations(t["times"], tag)]
    stage1, stage2 = workload.stage_samples(t["times"])
    tail = percentile(ops, TAIL) if len(ops) >= MIN_OPS else max(ops)
    values = (
        ("setup_s", t["setup_s"], "s"),
        ("wall_s", med(t["rounds"]), "s"),
        ("stage1_s", med(stage1), "s"),
        ("stage2_s", med(stage2), "s"),
        ("op_p50_ms", 1000 * med(ops), "ms"),
        ("op_tail_ms", 1000 * tail, "ms"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    )
    return {n: {"value": v, "unit": u} for n, v, u in values}


def layer_metrics(tracer, setup_spans, n_rounds):
    """Per-layer values for one set-up plus one round (rounds averaged)."""
    n = len(tracer.spans)
    setup = tracer.totals(range(setup_spans))
    rounds = tracer.totals(range(setup_spans, n))
    out = {}
    for name, unit in tracing.metric_units():
        value = setup.get(name, 0) + rounds.get(name, 0) / n_rounds
        out[name] = {"value": value, "unit": unit}
    q = out["measures.katok_separated_set.qualifying"]["value"]
    e = out["measures.katok_separated_set.enumerated"]["value"]
    out["measures.katok_separated_set.useful_share"]["value"] = q / e if e else 0.0
    return out


def coverage(tracer, setup_spans, per_stage):
    """The share of the top-level build_stage spans that the traced layers
    below them cover (the rest is build_stage's own self time): per build
    if `per_stage`, else summed over the run."""
    below = {}
    for name, s, e, parent in tracer.spans[setup_spans:]:
        below[parent] = below.get(parent, 0.0) + e - s
    stages = [
        (e - s, below.get(i, 0.0))
        for i, (name, s, e, parent) in enumerate(tracer.spans[setup_spans:], setup_spans)
        if name == "construction.build_stage" and parent == -1
    ]
    if stages and not per_stage:
        stages = [tuple(map(sum, zip(*stages)))]
    return [f"build_stage {d:.3f} s: traced layers below it cover {b / d:.1%}" for d, b in stages]


# --- entry points -----------------------------------------------------------------------


def run_one(args):
    sf, _ = common.import_shiftflex()
    import_s = None if args.trace else import_seconds()
    if args.workload == "sft-queries":
        workload = SftQueries(args.seed)
    else:
        workload = {"acceptance-tower": Tower, "flex-sweep": FlexSweep}[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, sf)
    t0 = time.perf_counter()
    result, t = measure(sf, workload, args.seed, args.seconds, import_s, tracer)
    if result["attempted"] == result["failed"]:
        print("no operation succeeded", file=sys.stderr)
        return 1
    if tracer is None:
        try:
            result["metrics"] = e2e_metrics(workload, t)
        except ValueError:  # every operation of some tag failed: nothing to take a median of
            result["metrics"] = {}
    else:
        result["metrics"] = layer_metrics(tracer, t["setup_spans"], len(t["rounds"]))
        print(f"traced run: {len(t['rounds'])} rounds, median round {statistics.median(t['rounds']):.3f} s "
              f"(traced wall_s), {len(tracer.spans)} spans, {time.perf_counter() - t0:.1f} s in all")
        for line in coverage(tracer, t["setup_spans"], isinstance(workload, Tower)):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", workload=args.workload,
                    seed=args.seed, setup_spans=t["setup_spans"], rounds=len(t["rounds"]))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run_all(args):
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        code = code or proc.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
