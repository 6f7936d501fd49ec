"""Tests of the benchmark itself (not of yamabe).

    python3 -m pytest bench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from yamabe import (expressions, families, geodesics, numerics,  # noqa: E402
                    profiles, soliton, specio)


def _certify_case(label):
    return next(case for case in workloads.load("certify-grid", 0)
                if case.label == label)


def test_oracle_flags_a_flipped_verdict():
    case = _certify_case("example-2")
    outcome = workloads._certify_outcome(case)
    assert workloads.check_certify("certified", outcome) is None
    flipped = ((outcome[0][0], "rejected") + outcome[0][2:],) + outcome[1:]
    assert "verdict rejected" in workloads.check_certify("certified", flipped)
    # a twin that certifies is as wrong as a solution that is rejected
    assert workloads.check_certify("rejected", outcome) is not None


def test_oracle_flags_a_certified_verdict_above_tolerance():
    outcome = ((200, "certified", 1e-8, (("h-ode", 2e-8),)),)
    assert "above tolerance" in workloads.check_certify("certified", outcome)


def test_oracle_expects_the_named_exception():
    raised = ("raised", "FamilyConstructionError", "could not bracket phi")
    assert workloads.check_thm15("FamilyConstructionError", raised) is None
    assert workloads.check_thm15(None, raised) is not None
    built = ("built", "certified", 1e-8, (("h-ode", 1e-15),))
    assert workloads.check_thm15(None, built) is None
    assert workloads.check_thm15("FamilyConstructionError", built) is not None


def test_probe_oracle_uses_reference_and_invariants():
    outcome = (("full", ("forward", "blowup", 12.5),
                ("backward", "completed", 1e3)),
               ("paper-reduced", ("forward", "completed", 1e3),
                ("backward", "completed", 1e3)))
    statuses = [["blowup", "completed"], ["completed", "completed"]]
    assert workloads.check_probe(None, outcome) is None
    assert workloads.check_probe(statuses, outcome) is None
    other = [["completed", "completed"], ["completed", "completed"]]
    assert "reference" in workloads.check_probe(other, outcome)
    reduced_stop = outcome[:1] + (("paper-reduced",
                                   ("forward", "blowup", 3.0),
                                   ("backward", "completed", 1e3)),)
    assert "paper-reduced" in workloads.check_probe(None, reduced_stop)
    # a batch is judged sample by sample, trajectory by trajectory
    portrait = ("traced", "ok", 3, (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), 0.0)
    batch = ((outcome,), (portrait,))
    assert workloads.check_batch([statuses], ["ok"], batch) is None
    assert "probe sample 0" in workloads.check_batch([other], ["ok"], batch)
    assert "portrait trajectory 0" in workloads.check_batch(
        [statuses], ["blowup"], batch)
    assert "wrong number" in workloads.check_batch([statuses, statuses],
                                                   ["ok"], batch)


def test_portrait_first_integral_catches_a_wrong_trajectory():
    params = workloads.portrait_defaults()
    traj = families.phase_portrait([(1.0, 0.3)], params["xi_span"],
                                   k1=params["k1"], k2=params["k2"],
                                   lambda_f=params["lambda_f"])[0]
    assert workloads.first_integral_drift(params, traj.rows) < 1e-8
    bent = traj.rows.copy()
    bent[-1, 2] *= 1.001
    assert workloads.first_integral_drift(params, bent) > 1e-6


def test_same_seed_same_inputs():
    a = workloads.probe_samples(3, 16)
    b = workloads.probe_samples(3, 8)
    for x, y in zip(a, b):
        for u, v in zip(x, y):
            assert np.array_equal(u, v)
    c = workloads.probe_samples(4, 16)
    assert not np.array_equal(a[0][0], c[0][0])
    assert (workloads.portrait_initials(3, 8)
            == workloads.portrait_initials(3, 16)[:8])
    order = [op.label for op in workloads.cycle(
        "thm15-build", workloads.load("thm15-build", 5), 2, 5)]
    assert order == [op.label for op in workloads.cycle(
        "thm15-build", workloads.load("thm15-build", 5), 2, 5)]


def _attributes():
    owners = (expressions, families, geodesics, numerics, profiles, soliton,
              specio, profiles.Profile)
    return {(owner.__name__, key): value
            for owner in owners for key, value in vars(owner).items()}


def test_traced_run_leaves_no_patched_attribute():
    before = _attributes()
    case = workloads.THM15_CASES[6]   # k3 = 0, the closed form
    untraced = workloads.run_op(workloads._thm15_op(case))
    log = spans.SpanLog()
    with spans.traced(log):
        assert families.solve_ivp is not before[("yamabe.families",
                                                  "solve_ivp")]
        traced = workloads.run_op(workloads._thm15_op(case))
        probe_spec = workloads.example5_spec(workloads.PROBE_RATE)
        sample = workloads.probe_samples(0, 1)[0]
        workloads._probe_outcome(probe_spec, [sample])
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert traced == untraced
    totals = log.totals()
    assert totals["families.family_thm15"]["calls"] == 1
    assert totals["soliton.point_eval"]["calls"] == 3 * (120 + 200)
    assert totals["geodesics.rhs"]["calls"] > 0
    assert totals["geodesics.event"]["calls"] > 0


def test_traced_block_restores_on_error():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.SpanLog()):
            1 / 0
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children():
    log = spans.SpanLog()
    inner = log.wrap("inner", lambda: sum(range(20000)))
    outer = log.wrap("outer", lambda: inner() + inner())
    outer()
    totals = log.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["incl_ms"] == pytest.approx(
        totals["outer"]["self_ms"] + totals["inner"]["incl_ms"])
    assert log.childless("outer", "inner") == 0
    assert log.childless("inner", "outer") == 2


def test_import_split_reads_the_importtime_tree():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |           numpy.linalg",
        "import time:        20 |         30 |         scipy._lib",
        "import time:        40 |         70 |       scipy.integrate",
        "import time:         5 |          5 |       scipy",
        "import time:        30 |        105 |     yamabe.families",
        "import time:         7 |        262 |   yamabe",
    ])
    split = run.import_split(log)
    assert split["setup.import_numpy_s"] == pytest.approx(150e-6)
    assert split["setup.import_scipy_integrate_s"] == pytest.approx(75e-6)
    assert split["setup.import_yamabe_own_s"] == pytest.approx(37e-6)


def test_end_to_end_counts_medians_and_cold_start():
    a = workloads.Op("a", None, None)
    b = workloads.Op("b", None, None)
    result = run.Run()
    # records: (op, outcome, wall seconds, reference seconds). The first
    # call of "a" pays 0.5 s of cold start; "b" has a slow repeat
    result.cycles = [[(a, None, 1.2, 0.6), (b, None, 0.4, 0.2)],
                     [(a, None, 0.2, 0.1), (b, None, 0.8, 0.4)],
                     [(a, None, 0.2, 0.1), (b, None, 0.4, 0.2)]]
    result.elapsed = 3.2
    m = run.end_to_end(result, [1.0, 3.0, 2.0])
    assert m["setup_s"] == 2.0
    assert m["op_p50_ms"] == pytest.approx(150.0)
    # two distinct operations over one pass of medians (0.1 + 0.2 s) plus
    # the 0.5 s cold excess
    assert m["ops_per_s"] == pytest.approx(2 / 0.8)


def test_reference_time_follows_the_calibration_kernel():
    ref = calibrate.REFERENCE_S
    meter = calibrate.Meter()
    # ticks every 0.1 s, each taking 1 ms; the host halves its speed at 0.2
    meter.starts = [0.0, 0.1, 0.2, 0.3]
    meter.kernel = [ref, ref, 2 * ref, 2 * ref]
    meter.spent = [1e-3] * 4
    wall, reference = meter.span(0.05, 0.15)
    assert wall == pytest.approx(0.099)
    assert reference == pytest.approx(0.099)
    wall, reference = meter.span(0.25, 0.35)
    assert wall == pytest.approx(0.099)
    assert reference == pytest.approx(0.0495)


def test_meter_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Meter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.15:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.kernel) >= 3
    wall, reference = meter.span(t0, t1)
    assert 0 < wall < t1 - t0 and reference > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "thm15-build",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
