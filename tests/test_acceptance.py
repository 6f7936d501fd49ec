"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line so the whole
contract can be audited from the pytest output. The checks here are
intentionally redundant with the unit tests: they re-derive every expected
value from scratch (closed forms, finite differences, independent grids)
instead of importing helpers from the other test modules.
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import random_polynomial_spec
from oracles import (base_point_for_xi, conformal_metric_sampler,
                     fd_curvature_oracle, fd_hessian_oracle,
                     fd_laplacian_oracle, profile_field)

from yamabe import families
from yamabe.catalog import build_example, catalog, example5_spec
from yamabe.geodesics import (compare_probe_modes, energy, integrate_geodesic)
from yamabe.geometry import TranslationDirection
from yamabe.lambertw import lambert_w
from yamabe.profiles import Interval, Profile, grid_points
from yamabe.soliton import (Terms, WarpedSolitonSpec, certify, classify,
                            point_eval, reduced_residuals)
from yamabe.geometry import SignatureSpec

REDUCED_KEYS = ("h-ode", "diag-1", "diag-2", "lightlike")
TENSOR_KEYS = ("tensor-base", "tensor-fiber")


@contextlib.contextmanager
def acceptance(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_example_catalog():
    """Every bundled example certifies with all residuals <= 1e-8 inside 5 s."""
    with acceptance("example-catalog"):
        t0 = time.perf_counter()
        for key, entry in catalog().items():
            if entry.kind != "soliton":
                continue
            spec = entry.build()
            report = certify(spec, tolerance=1e-8,
                             interval=Interval(*entry.certify_interval))
            assert report.verdict == "certified", (key, report.verdict)
            worst = max(st.max_abs_residual
                        for st in report.equations.values())
            assert worst <= 1e-8, (key, worst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, elapsed


def _route_verdicts(spec, reduced_tol, tensor_tol, interval=None):
    report = certify(spec, grid_size=60, tolerance=1e-300, interval=interval)
    red = max(st.max_abs_residual for k, st in report.equations.items()
              if k in REDUCED_KEYS)
    ten = max(st.max_abs_residual for k, st in report.equations.items()
              if k in TENSOR_KEYS)
    return red <= reduced_tol, ten <= tensor_tol


def test_tensor_reduced_equivalence():
    """Reduced-system verdict == full-tensor verdict on 50 randomized family
    members and 50 randomized non-solutions (tolerances 1e-7 vs 1e-6)."""
    with acceptance("tensor-reduced-equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1234)

        solutions = []
        for _ in range(20):
            solutions.append(families.family_thm16(
                rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                xi_range=(1.0, 30.0), run_certify=False))
        for _ in range(10):
            solutions.append(families.family_thm16(
                rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                k3=rng.uniform(0.01, 0.1), xi_range=(1.0, 10.0),
                run_certify=False))
        for _ in range(10):
            a = rng.uniform(-0.3, 0.3)
            c0, c1 = rng.uniform(1.5, 3.0), rng.uniform(-0.5, 0.5)
            phi = Profile.from_expression(f"exp({a!r}*xi)", Interval(-2, 2))
            f = Profile.from_expression(f"{c0!r} + {c1!r}*sin(xi)",
                                        Interval(-2, 2))
            solutions.append(families.family_thm18(
                phi, f, rng.uniform(0.3, 2.0), xi_range=(-2.0, 2.0),
                run_certify=False))
        for _ in range(5):
            solutions.append(families.family_thm15(
                1.0, rng.uniform(0.8, 1.5), rng.uniform(-0.3, -0.05),
                lambda_f=-0.5, xi_range=(-0.3, 0.4), run_certify=False))
        for _ in range(5):
            a = rng.uniform(-0.2, 0.2)
            phi = Profile.from_expression(f"exp({a!r}*xi)", Interval(-2, 2))
            f = Profile.from_expression("2 + sin(xi)/2", Interval(-2, 2))
            solutions.append(families.almost_soliton_lightlike(
                phi, f, rng.uniform(0.3, 1.0), -2.0, xi_range=(-2.0, 2.0),
                run_certify=False))
        assert len(solutions) == 50

        non_solutions = [random_polynomial_spec(rng, lightlike=(i % 3 == 0),
                                                bounded=True)
                         for i in range(30)]
        for i in range(20):
            src = solutions[i]
            if i % 2 == 0:
                non_solutions.append(dataclasses.replace(src, rho=1e-3))
            else:
                bump = Profile.from_expression("0.01*sin(xi)", src.domain)
                non_solutions.append(dataclasses.replace(src,
                                                         h=src.h.plus(bump)))
        assert len(non_solutions) == 50

        for spec in solutions:
            red, ten = _route_verdicts(spec, 1e-7, 1e-6)
            assert red and ten, spec.label
        for spec in non_solutions:
            red, ten = _route_verdicts(spec, 1e-7, 1e-6)
            assert red == ten, spec.label
            assert not red, spec.label
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed


def test_oracle_equivalence():
    """Closed-form curvature, Hessian, and Laplacian, as certify computes
    them (soliton.Terms), against the finite-difference tensor oracle:
    100 profiles x 10 points, relative error <= 1e-5."""
    with acceptance("oracle-equivalence"):
        rng = np.random.default_rng(321)

        def richardson(fn, step):
            return (4.0 * fn(step / 2.0) - fn(step)) / 3.0

        for _ in range(100):
            spec = random_polynomial_spec(rng, bounded=True)
            sampler = conformal_metric_sampler(spec.phi, spec.direction,
                                               spec.sig)
            h_field = profile_field(spec.h, spec.direction)
            f_field = profile_field(spec.f, spec.direction)

            for xi in grid_points(spec.domain, 10):
                pt = base_point_for_xi(spec.direction, xi)
                terms = Terms(spec, point_eval(spec, xi))

                s_closed = terms.s_base
                s_fd = richardson(
                    lambda h: fd_curvature_oracle(sampler, pt, h)[1], 1e-3)
                assert abs(s_closed - s_fd) <= 1e-5 * max(1.0, abs(s_closed))

                hess = terms.hessian()
                hess_fd = richardson(
                    lambda h: fd_hessian_oracle(h_field, sampler, pt, h),
                    1e-3)
                scale = max(1.0, float(np.max(np.abs(hess))))
                assert np.max(np.abs(hess - hess_fd)) <= 1e-5 * scale

                lap = terms.lap_f
                lap_fd = richardson(
                    lambda h: fd_laplacian_oracle(f_field, sampler, pt, h),
                    1e-3)
                assert abs(lap - lap_fd) <= 1e-5 * max(1.0, abs(lap))


def test_explicit_family_closed_forms():
    """k1=k2=1, k3=0 gives phi = sqrt(xi/20), f = sqrt(20/xi),
    h - h(xi0) = 20 ln(xi/xi0) on [1, 100]; k3 = -1/20 gives
    phi^2 = tan(xi/20); both pointwise to 1e-9."""
    with acceptance("explicit-family-closed-forms"):
        spec = families.family_thm16(1.0, 1.0, xi_range=(1.0, 100.0),
                                     run_certify=False)
        xi0 = 1.0
        h0 = spec.h.value(xi0)
        for xi in np.linspace(1.0, 100.0, 331):
            xi = float(xi)
            assert abs(spec.phi.value(xi) - math.sqrt(xi / 20.0)) <= 1e-9
            assert abs(spec.f.value(xi) - math.sqrt(20.0 / xi)) <= 1e-9
            assert abs((spec.h.value(xi) - h0)
                       - 20.0 * math.log(xi / xi0)) <= 1e-9

        # tangent branch: validity window is (0, 10 pi)
        spec = families.family_thm16(1.0, 1.0, k3=-1.0 / 20.0,
                                     xi_range=(1.0, 31.0), run_certify=False)
        for xi in np.linspace(1.0, 31.0, 301):
            xi = float(xi)
            assert abs(spec.phi.value(xi) ** 2 - math.tan(xi / 20.0)) <= 1e-9


def test_riccati_example():
    """z = -1/2 solves the Riccati equation for phi = sec(xi), n=4, d=3 to
    1e-12 at 50 points; the warping built from it certifies and equals
    (2 sec(xi) e^xi)^(1/2) up to one global constant, rel err <= 1e-8."""
    with acceptance("riccati-example"):
        dom = Interval(-1.5, 1.5)
        phi = Profile.from_expression("sec(xi)", dom)
        z_p = Profile.from_expression("-1/2", dom)
        for xi in np.linspace(-1.45, 1.45, 50):
            assert abs(families.riccati_residual(z_p, phi, 4, 3,
                                                 float(xi))) <= 1e-12

        spec = families.family_thm17(phi, z_p, 1.0, xi_range=(-1.5, 1.5),
                                     n=4, d=3, run_certify=False)
        report = certify(spec)
        assert report.verdict == "certified"

        xis = np.linspace(-1.45, 1.45, 50)
        targets = [math.sqrt(2.0 * math.exp(x) / math.cos(x))
                   for x in map(float, xis)]
        ratios = [spec.f.value(float(x)) / t for x, t in zip(xis, targets)]
        scale = ratios[0]
        assert all(abs(r / scale - 1.0) <= 1e-8 for r in ratios)


def test_lambert_round_trip():
    """|W(x) e^W(x) - x| <= 1e-12 max(1, |x|) on 1000 log-spaced points per
    real branch."""
    with acceptance("lambert-round-trip"):
        for x in np.geomspace(1e-15, 1e15, 1000):
            x = float(x)
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        top = (1.0 / math.e) * (1.0 - 1e-12)
        for mag in np.geomspace(1e-15, top, 1000):
            x = -float(mag)
            for branch in ("principal", "lower"):
                w = lambert_w(x, branch=branch)
                assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_geodesics_example():
    """The paper-reduced system reproduces the closed-form geodesics of the
    exponential lightlike example to 1e-6 on s in [0, 10]; full-mode energy
    drift <= 1e-6 over [0, 100]; the completeness probe (100 unit-speed
    states, s_max = 1e3) completes 100% in the paper-reduced system, and a
    full-mode disagreement, if any, is logged."""
    with acceptance("geodesics-example"):
        k = 0.2
        spec = example5_spec(k=k)
        alpha = np.asarray(spec.direction.alpha)
        eps = np.asarray(spec.sig.epsilon, dtype=float)
        y0 = np.array([0.1, -0.2, 0.3, 0.0])
        v0 = np.array([0.05, 0.05, 0.1, -0.2])
        yf0 = np.array([0.0, 0.4])
        vf0 = np.array([0.3, -0.1])

        res = integrate_geodesic(spec, y0, v0, yf0, vf0, s_span=(0.0, 10.0),
                                 mode="paper-reduced", samples=101)
        assert res.status == "completed"
        c = float(alpha @ v0)
        xi0 = float(alpha @ y0)
        force = k * float(vf0 @ vf0) * math.exp(4.0 * k * xi0)
        for row in res.rows:
            s = row[0]
            y = y0 + v0 * s + eps * alpha * force * s * s / 2.0
            v = v0 + eps * alpha * force * s
            decay = math.exp(-2.0 * k * c * s)
            yf = yf0 + vf0 * (1.0 - decay) / (2.0 * k * c)
            vf = vf0 * decay
            expected = np.concatenate([y, v, yf, vf])
            assert np.max(np.abs(row[1:] - expected)) <= 1e-6, s

        # energy conservation of the genuine dynamics on a long run
        y0_l = np.array([-0.1, 0.0, 0.3, 0.0])
        v0_l = np.array([-0.05, -0.05, 0.1, -0.2])
        state0 = np.concatenate([y0_l, v0_l, yf0, vf0])
        res = integrate_geodesic(spec, y0_l, v0_l, yf0, vf0,
                                 s_span=(0.0, 100.0))
        assert res.status == "completed"
        drift = abs(energy(spec, res.final_state()) - energy(spec, state0))
        assert drift <= 1e-6, drift

        # completeness probe; the slow-exponential member keeps the reduced
        # trajectories under the escape threshold at s_max = 1e3
        probe_spec = example5_spec(k=0.005)
        full, reduced, notes = compare_probe_modes(probe_spec, 100, 1e3,
                                                   seed=0)
        print(f"\ncompleteness probe: paper-reduced "
              f"{reduced.completed}/{reduced.count}, full "
              f"{full.completed}/{full.count}")
        assert reduced.completed == reduced.count == 100
        if full.completed != reduced.completed:
            assert notes and "dynamics modes disagree" in notes[0]
            print(f"logged: {notes[0]}")


def test_lightlike_guards():
    """Lightlike direction with lambda_F > 0 and rho <= 0 is rejected with
    the no-go message; lambda_F != 0 with compatible rho forces constant
    f = sqrt(lambda_F / rho)."""
    with acceptance("lightlike-guards"):
        dom = Interval(-2.0, 2.0)
        sig = SignatureSpec((-1, 1, 1, 1))
        direction = TranslationDirection((1.0, 1.0, 0.0, 0.0), sig)

        def spec_with(rho, lambda_f):
            return WarpedSolitonSpec(
                sig, direction, 2, rho, lambda_f,
                Profile.from_expression("exp(xi/5)", dom),
                Profile.from_expression("2 + sin(xi)", dom),
                Profile.from_expression("xi", dom), dom)

        for rho in (0.0, -1.0):
            cls = classify(spec_with(rho, 1.0))
            assert cls.rejected
            assert any("no steady or expanding soliton" in g
                       for g in cls.guards)
            assert certify(spec_with(rho, 1.0)).verdict == "rejected"

        cls = classify(spec_with(4.0, 1.0))
        assert not cls.rejected
        assert cls.forced_f == pytest.approx(0.5, abs=0.0)
        assert any("forces the constant warping" in g for g in cls.guards)


def test_invariance_suite():
    """On 100 randomized specs: residuals are invariant under h -> h + const
    (bitwise) and under f -> c f when lambda_F = 0; curvature terms scale by
    exactly c^2 under alpha -> c alpha."""
    with acceptance("invariance-suite"):
        rng = np.random.default_rng(77)
        for i in range(100):
            spec = random_polynomial_spec(rng, lightlike=(i % 4 == 0),
                                          bounded=True)
            c = float(rng.uniform(0.3, 3.0))
            sample_xis = [float(x) for x in np.linspace(-1.8, 1.8, 5)]

            shift = Profile.from_expression(repr(c), spec.domain)
            shifted = dataclasses.replace(spec, h=spec.h.plus(shift))
            for xi in sample_xis:
                assert reduced_residuals(spec, xi) == \
                    reduced_residuals(shifted, xi)

            base = dataclasses.replace(spec, lambda_f=0.0)
            scaled = dataclasses.replace(base, f=base.f.scaled(c))
            for xi in sample_xis:
                ra = reduced_residuals(base, xi)
                rb = reduced_residuals(scaled, xi)
                for key in ra:
                    assert abs(ra[key] - rb[key]) <= \
                        1e-9 * max(1.0, abs(ra[key])), key

            stretched = dataclasses.replace(
                spec, direction=TranslationDirection(
                    tuple(c * a for a in spec.direction.alpha), spec.sig))
            for xi in sample_xis:
                t1 = Terms(spec, point_eval(spec, xi))
                t2 = Terms(stretched, point_eval(stretched, xi))
                s1, s2 = t1.s_base, t2.s_base
                assert abs(s2 - c * c * s1) <= 1e-12 * max(1.0, abs(s1))
                h1, h2 = t1.hessian(), t2.hessian()
                scale = 1e-12 * max(1.0, float(np.max(np.abs(h1))))
                assert np.max(np.abs(h2 - c * c * h1)) <= scale
                l1 = (t1.lap_f, t1.pair, t1.grad2_f)
                l2 = (t2.lap_f, t2.pair, t2.grad2_f)
                for u, v in zip(l1, l2):
                    assert abs(v - c * c * u) <= 1e-12 * max(1.0, abs(u))


def test_cli_contract():
    """Exit codes 0/2/3/1 for certified/rejected/inconclusive/invalid, and
    byte-identical CSV output for seeded portrait runs."""
    with acceptance("cli-contract"):
        import io
        import json
        import tempfile
        import os
        from yamabe.cli import main

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            return code, buf.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            with open(good, "w", encoding="utf-8") as fh:
                json.dump({
                    "n": 5, "d": 1, "alpha": [1, 0, 0, 0, 0],
                    "domain": [1.0, 40.0],
                    "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)",
                                 "h": "20*ln(xi)"},
                }, fh)
            assert run(["verify", good])[0] == 0

            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump({
                    "n": 5, "d": 1, "alpha": [1, 0, 0, 0, 0],
                    "rho": 0.001, "domain": [1.0, 40.0],
                    "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)",
                                 "h": "20*ln(xi)"},
                }, fh)
            assert run(["verify", bad])[0] == 2

            sing = os.path.join(tmp, "sing.json")
            with open(sing, "w", encoding="utf-8") as fh:
                json.dump({
                    "n": 3, "d": 1, "alpha": [1, 0, 0],
                    "domain": [-2.0, 2.0],
                    "profiles": {"phi": "sqrt(xi)", "f": "1", "h": "xi"},
                }, fh)
            assert run(["verify", sing])[0] == 3

            assert run(["verify", os.path.join(tmp, "missing.json")])[0] == 1
            assert run(["family", "thm15", "--range", "-0.2", "0.2",
                        "--lambda-f", "-0.5", "--n", "4", "--d", "3"])[0] == 1

            argv = ["portrait", "--samples", "4", "--seed", "11",
                    "--xi-range", "-0.3", "0.3", "--lambda-f", "0",
                    "--points", "25"]
            a = os.path.join(tmp, "a.csv")
            b = os.path.join(tmp, "b.csv")
            assert run(argv + ["--out", a])[0] == 0
            assert run(argv + ["--out", b])[0] == 0
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()
