"""The benchmark's tracer (bench/spans.py) against the package it patches.

The tracer wraps package attributes by name; this runs it around one
Lambert-family build and one certify, so renaming or deleting a name it
patches fails here and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from yamabe import families, soliton

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_thm15_build_and_certify_records_and_restores():
    spans = _load_spans()
    targets = spans._patch_targets(spans.SpanLog())
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets]

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
    restored = [f"{owner.__name__}.{attr}" for owner, attr, original
                in originals if owner.__dict__[attr] is not original]
    assert restored == []
