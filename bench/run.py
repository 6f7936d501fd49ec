#!/usr/bin/env python3
"""Benchmark for yamabe: one workload, one caller, closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload certify-grid --seed 0 --seconds 25
    python3 bench/run.py --workload all --seed 0 --seconds 25


Workloads: certify-grid, thm15-build, geodesic-probe (see workloads.py and
README.md). With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced replay of the last
measured cycle. Times are in reference seconds: wall time scaled by the
calibration kernel timed around it (see calibrate.py), which takes out the
shared host's changes of speed. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run completed, whatever its verdicts.
``--workload all`` runs every workload in turn, each in its own process.
"""

import os

# one thread everywhere: pinned before numpy loads a BLAS, and inherited by
# the set-up interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7          # fresh interpreters per run for setup_s
TRACE_SETUP_REPEATS = 3    # fresh interpreters under -X importtime
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


# --- set-up in fresh interpreters -------------------------------------------

def setup_child(workload: str, seed: int, importtime: bool = False):
    """Run setup_child.py once; (its start and end on time.perf_counter,
    its JSON, its stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "setup_child.py"), "--workload", workload,
            "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return (t0, t1), json.loads(proc.stdout.strip().splitlines()[-1]), \
        proc.stderr


def import_split(importtime_log: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy (the package and
    scipy.integrate) and yamabe's own modules, from ``-X importtime``.

    The log is post-order (a module's line follows its imports), so it is
    read backwards to see each module's ancestors. A package's cost is the
    cumulative time of its lines that no numpy or scipy line encloses (the
    numpy submodules that scipy pulls in count as scipy's)."""
    totals = {"numpy": 0.0, "scipy": 0.0, "yamabe": 0.0}
    stack: list[tuple[int, str]] = []
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, field = line.split("|")
        level = (len(field) - len(field.lstrip()) - 1) // 2
        top = field.strip().split(".")[0]
        while stack and stack[-1][0] >= level:
            stack.pop()
        enclosing = {pkg for _, pkg in stack}
        if top in totals and not enclosing & {top, "numpy", "scipy"}:
            totals[top] += int(cumulative) / 1e6
        stack.append((level, top))
    return {"setup.import_numpy_s": totals["numpy"],
            "setup.import_scipy_integrate_s": totals["scipy"],
            "setup.import_yamabe_own_s":
                totals["yamabe"] - totals["numpy"] - totals["scipy"]}


# --- the measured loop -----------------------------------------------------

class Run:
    """Operations, outcomes and times of whole cycles."""

    def __init__(self):
        # per cycle: [(op, outcome, wall seconds, reference seconds)]
        self.cycles: list[list] = []
        self.elapsed = 0.0

    @property
    def records(self):
        return [rec for cyc in self.cycles for rec in cyc]


def timed(workloads, ops) -> list:
    """Run the operations one after another: [(op, outcome, start, end)]
    on time.perf_counter."""
    records = []
    for op in ops:
        t = time.perf_counter()
        outcome = workloads.run_op(op)
        records.append((op, outcome, t, time.perf_counter()))
    return records


def in_reference(meter, records) -> list:
    """[(op, outcome, wall seconds, reference seconds)]; see calibrate.py."""
    return [(op, outcome) + meter.span(t0, t1)
            for op, outcome, t0, t1 in records]


def measure(workloads, workload: str, inputs, seed: int,
            seconds: float) -> Run:
    run = Run()
    cycles = []
    with calibrate.Meter() as meter:
        t0 = time.perf_counter()
        while not cycles or time.perf_counter() - t0 < seconds:
            cycles.append(timed(workloads, workloads.cycle(
                workload, inputs, len(cycles), seed)))
        run.elapsed = time.perf_counter() - t0
    run.cycles = [in_reference(meter, cyc) for cyc in cycles]
    return run


def judge(records):
    """(failed, unexpected): failures by the oracle, and those among them
    that are not documented defects."""
    failed, unexpected = [], []
    for op, outcome, _, _ in records:
        err = op.check(outcome)
        if err is not None:
            failed.append((op.label, err))
            if not op.known_defect:
                unexpected.append((op.label, err))
    return failed, unexpected


def typical(records) -> dict[str, float]:
    """Each distinct operation's median time over its repetitions in the
    run, in reference seconds."""
    times: dict[str, list[float]] = {}
    for op, _, _, ref in records:
        times.setdefault(op.label, []).append(ref)
    return {label: statistics.median(v) for label, v in times.items()}


def end_to_end(run: Run, setup_times: list[float]) -> dict[str, float]:
    """Every time is in reference seconds (see calibrate.py), which takes
    out the shared host's changes of speed. Each distinct operation counts
    once, with its median over its repetitions, so how many cycles fit in
    the run does not change the mix. ops_per_s is the number of distinct
    operations over the time of one pass through them all, plus what the
    very first operation took beyond its own median: cold-start work, such
    as a lazy import, stays visible. The p90 interpolates between the
    distinct operations' medians and never reaches beyond the slowest."""
    records = run.records
    per_op = typical(records)
    lat_ms = sorted(1e3 * t for t in per_op.values())
    first_op, _, _, first_ref = records[0]
    cold = max(0.0, first_ref - per_op[first_op.label])
    return {"setup_s": statistics.median(setup_times),
            "ops_per_s": len(per_op) / (sum(per_op.values()) + cold),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10,
                                              method="inclusive")[8],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# --- the traced replay -------------------------------------------------------

def traced_replay(workloads, spans, workload: str, seed: int, run: Run):
    """Replay the last measured cycle with every layer wrapped. Inputs are
    rebuilt inside the traced block so compiled closures are wrapped too."""
    log = spans.SpanLog()
    k = len(run.cycles) - 1
    with calibrate.Meter() as meter, spans.traced(log):
        inputs = workloads.load(workload, seed)
        load_totals = log.totals()
        records = timed(workloads, workloads.cycle(workload, inputs, k, seed))
    return log, load_totals, in_reference(meter, records)


# (span name, report calls, report self time), in the order of the report
LAYERS = (
    ("expressions.eval", True, True),
    ("profiles.jet", True, True),
    ("soliton.point_eval", True, True),
    ("soliton.reduced_residuals", True, True),
    ("soliton.full_tensor_residual", True, True),
    ("soliton.classify", False, True),
    ("soliton.certify", False, True),
    ("lambertw.lambert_w", True, True),
    ("numerics.adaptive_simpson", True, True),
    ("numerics.invert_monotone", True, True),
    ("numerics.antiderivative", True, False),
    ("families.family_thm15", False, True),
    ("families.phase_portrait", False, True),
    ("geodesics.rhs", True, True),
    ("geodesics.event", True, False),
    ("scipy.solve_ivp", True, True),
)


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order. Counts and
    self times are per operation of the traced cycle."""
    units = {}
    for layer, calls, self_time in LAYERS:
        if calls:
            units[f"{layer}.calls"] = "count/op"
        if self_time:
            units[f"{layer}.self_ms"] = "ms/op"
    units.update({
        "soliton.point_eval.per_grid_point": "count",
        "numerics.antiderivative.hit_ratio": "ratio",
        "geodesics.rhs.us_per_call": "us",
        "geodesics.completed_ratio.full": "ratio",
        "geodesics.completed_ratio.paper-reduced": "ratio",
        "setup.import_numpy_s": "s",
        "setup.import_scipy_integrate_s": "s",
        "setup.import_yamabe_own_s": "s",
        "setup.load_inputs_s": "s",
        "specio.load_document.self_ms": "ms",
        "trace.overhead_frac": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workloads, log, load_totals, replay, setup: dict,
                  run: Run) -> dict[str, float]:
    totals = log.totals()

    def stat(name: str, key: str) -> float:
        """Total over the replayed cycle, without the input loading."""
        return (totals.get(name, {}).get(key, 0.0)
                - load_totals.get(name, {}).get(key, 0.0))

    ops = len(replay)
    m = {}
    for layer, calls, self_time in LAYERS:
        if calls:
            m[f"{layer}.calls"] = stat(layer, "calls") / ops
        if self_time:
            m[f"{layer}.self_ms"] = stat(layer, "self_ms") / ops
    m["soliton.point_eval.per_grid_point"] = _ratio(
        stat("soliton.point_eval", "calls"), log.grid_points)
    m["numerics.antiderivative.hit_ratio"] = _ratio(
        log.childless("numerics.antiderivative", "numerics.adaptive_simpson"),
        stat("numerics.antiderivative", "calls"))
    m["geodesics.rhs.us_per_call"] = _ratio(
        1e3 * stat("geodesics.rhs", "incl_ms"), stat("geodesics.rhs", "calls"))
    for mode in ("full", "paper-reduced"):
        m[f"geodesics.completed_ratio.{mode}"] = _ratio(
            *workloads.completed_count(run.records, mode))
    m.update(setup)
    m["specio.load_document.self_ms"] = load_totals.get(
        "specio.load_document", {}).get("self_ms", 0.0)
    untraced = sum(ref for _, _, _, ref in run.cycles[-1])
    traced = sum(ref for _, _, _, ref in replay)
    m["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: m[name] for name in layer_units()}


# --- main --------------------------------------------------------------------

def machine_facts() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="certify-grid, thm15-build, geodesic-probe or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "yamabe", "__init__.py")):
        print(f"error: no yamabe sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import yamabe
    if not os.path.abspath(yamabe.__file__).startswith(SRC + os.sep):
        print(f"error: imported yamabe from {yamabe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload == "all":
        code = 0
        for workload in workloads.WORKLOADS:
            code = max(code, subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode)
        return code
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    inputs = workloads.load(args.workload, args.seed)
    labels = workloads.describe(args.workload, inputs)
    problems = []

    # set-up in fresh interpreters; a traced run asks for the import split
    setup_times, splits = [], []
    with calibrate.Meter() as meter:
        children = [setup_child(args.workload, args.seed,
                                importtime=bool(args.trace))
                    for _ in range(TRACE_SETUP_REPEATS if args.trace
                                   else SETUP_REPEATS)]
    for (t0, t1), info, log_text in children:
        setup_times.append(meter.span(t0, t1)[1])
        if info["inputs"] != labels:
            problems.append("set-up interpreter loaded other inputs")
        if args.trace:
            splits.append({**import_split(log_text),
                           "setup.load_inputs_s": info["load_inputs_s"]})

    run = measure(workloads, args.workload, inputs, args.seed, args.seconds)
    failed, unexpected = judge(run.records)
    problems += [f"{label}: {err}" for label, err in unexpected]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(run.cycles)} cycles, {len(run.records)} operations in "
          f"{run.elapsed:.2f} s  (closed loop, one caller, one thread)")
    kinds: dict[str, tuple[list, list]] = {}
    for op, _, wall, ref in run.records:
        walls, refs = kinds.setdefault(op.label.split("[")[0], ([], []))
        walls.append(1e3 * wall)
        refs.append(1e3 * ref)
    print("  median latency per kind of operation, wall / reference (ms): "
          + ", ".join(f"{kind} {statistics.median(walls):.1f} / "
                      f"{statistics.median(refs):.1f}"
                      for kind, (walls, refs) in sorted(kinds.items())))
    if args.trace:
        log, load_totals, replay = traced_replay(workloads, spans,
                                                 args.workload, args.seed, run)
        last = [outcome for _, outcome, _, _ in run.cycles[-1]]
        if [outcome for _, outcome, _, _ in replay] != last:
            problems.append("traced replay changed an output")
        setup = {key: statistics.median(split[key] for split in splits)
                 for key in splits[0]}
        metrics = layer_metrics(workloads, log, load_totals, replay, setup,
                                run)
        os.makedirs(OUT_DIR, exist_ok=True)
        log.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        print(f"traced replay of cycle {len(run.cycles) - 1}: {len(replay)} "
              f"operations, {len(log)} spans -> .bench_out/"
              f"spans-{args.workload}.npz")
        units = layer_units()
    else:
        metrics = end_to_end(run, setup_times)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units.get(name, '')}".rstrip())
    attempted = len(run.records)
    print(f"  {'fail_frac':<44} {len(failed) / attempted:.6g} frac "
          f"({len(failed)} of {attempted}; "
          f"{len(failed) - len(unexpected)} are documented open defects)")
    for label, err in failed[:8]:
        print(f"    failed {label}: {err}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
