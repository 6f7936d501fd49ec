"""The benchmark's tracer (bench/spans.py) against the package it patches.

The tracer wraps package attributes by name; this runs it around one
Lambert-family build and one certify, and around one operation of each kind
the benchmark's workloads (bench/workloads.py) time, so renaming or
deleting a name it patches, or a change that only a traced run trips on,
fails here and not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from yamabe import families, soliton

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _originals(spans):
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _ in spans._patch_targets(spans.SpanLog())]


def _not_restored(originals):
    return [f"{owner.__name__}.{attr}" for owner, attr, original
            in originals if owner.__dict__[attr] is not original]


def test_traced_thm15_build_and_certify_records_and_restores():
    spans = _load("spans")
    originals = _originals(spans)

    log = spans.SpanLog()
    with spans.traced(log):
        spec = families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                                     xi_range=(-0.3, 0.4), n=3, d=3,
                                     run_certify=False)
        report = soliton.certify(spec, grid_size=50)

    assert report.verdict == "certified"
    totals = log.totals()
    assert totals["soliton.certify"]["calls"] == 1
    assert totals["families.family_thm15"]["calls"] == 1
    assert log.grid_points == 50
    assert _not_restored(originals) == []


def _replay(workloads, workload):
    """(label, outcome, oracle's verdict) of every operation of the
    workload's first cycle at seed 0, but one batch of geodesic-probe. The
    inputs are loaded here, so inside ``traced`` their closures are
    wrapped too, as in the benchmark's traced replay."""
    inputs = workloads.load(workload, 0)
    ops = workloads.cycle(workload, inputs, 0, 0)
    if workload == "geodesic-probe":
        ops = ops[:1]
    out = []
    for op in ops:
        outcome = workloads.run_op(op)
        out.append((op.label, outcome,
                    op.check(outcome) is None or op.known_defect))
    return out


def test_traced_workload_operations_keep_their_outcomes():
    """Every thm15-build case (the ode construction and the q=proof error
    included, each certified as built), one certify-grid cycle and one
    geodesic-probe batch (both probe modes and a phase portrait) give the
    same outcomes traced as untraced, each one the oracle accepts, and the
    tracer puts every attribute back."""
    spans, workloads = _load("spans"), _load("workloads")
    originals = _originals(spans)
    untraced = {name: _replay(workloads, name)
                for name in workloads.WORKLOADS}

    log = spans.SpanLog()
    with spans.traced(log):
        traced = {name: _replay(workloads, name)
                  for name in workloads.WORKLOADS}

    assert _not_restored(originals) == []
    assert traced == untraced
    for name, replay in traced.items():
        assert replay and all(accepted for _, _, accepted in replay), name
    labels = [label for label, _, _ in untraced["thm15-build"]]
    assert sorted(labels) == sorted(c[0] for c in workloads.THM15_CASES)
    totals = log.totals()
    assert totals["families.family_thm15"]["calls"] == len(labels)
    assert totals["families.phase_portrait"]["calls"] == 1
    assert totals["soliton.certify"]["calls"] > 0
