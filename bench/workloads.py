"""The benchmark's three workloads: inputs made from a seed, operations, and
the oracle that judges each operation's output.

A workload is a sequence of cycles; a cycle is a list of operations. The
runner times operations one at a time (closed loop, one caller) and always
finishes the cycle it started, so every run measures whole cycles.

* certify-grid: the same eleven documents every cycle (catalog examples 2-5,
  a non-solution twin of each, the three hostile documents of ROADMAP item
  4), in an order drawn from the seed.
* thm15-build: the same eight Lambert-family cases every cycle, in an order
  drawn from the seed.
* geodesic-probe: a pool of POOL probe samples and POOL portrait initials
  drawn from the seed, cut into BATCHES batches of BATCH consecutive
  entries; one operation is a completeness probe of one batch of samples
  in both modes followed by a phase portrait of the same batch of
  initials. Every cycle runs every batch, in an order drawn from the seed.

Every operation therefore runs several times in a run, which lets the
runner take each operation's median over its repetitions (see run.py).

Importing this module imports yamabe, so callers put the repository's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Callable, Optional

import numpy as np

from yamabe import catalog, families, geodesics, soliton, specio
from yamabe.catalog import example5_spec, portrait_defaults
from yamabe.profiles import Interval

HERE = os.path.dirname(os.path.abspath(__file__))
INPUT_DIR = os.path.join(HERE, "inputs")
REFERENCE_PATH = os.path.join(HERE, "reference_seed0.json")

WORKLOADS = ("certify-grid", "thm15-build", "geodesic-probe")
REFERENCE_SEED = 0

# certify-grid
CATALOG_KEYS = ("example-2", "example-3", "example-4", "example-5")
TWIN_RHO_SHIFT = 1e-3
HOSTILE_DOCS = ("lightlike-pole-f", "lightlike-zero-phi", "spacelike-pole-f2")
GRIDS = (200, 2000)

# thm15-build: n = 3, d = 3 over (-0.3, 0.4), k1 = k2 = 1, lambda_F = -0.5
# unless a case overrides it
THM15_COMMON = dict(k1=1.0, k2=1.0, lambda_f=-0.5, xi_range=(-0.3, 0.4),
                    n=3, d=3)
THM15_CASES = (
    ("k3=-0.2", {"k3": -0.2}, None),
    ("k3=-0.1", {"k3": -0.1}, None),
    ("k3=+0.2", {"k3": 0.2}, None),
    ("k3=-0.2,lower", {"k3": -0.2, "w_branch": "lower"}, None),
    ("lambda_f=+0.5", {"k3": -0.2, "lambda_f": 0.5}, None),
    ("k3=-0.2,ode", {"k3": -0.2, "construction": "ode"}, None),
    ("k3=0", {"k3": 0.0}, None),
    ("k3=-0.2,q=proof", {"k3": -0.2, "q_variant": "proof"},
     "FamilyConstructionError"),
)

# geodesic-probe
PROBE_RATE = 0.005          # example5_spec(k): phi = f = exp(k xi)
S_MAX = 1e3
BATCH = 8                   # probe samples and portrait initials per op
BATCHES = 8
POOL = BATCH * BATCHES
PROBE_STATUSES = ("completed", "left-domain", "blowup", "positivity-loss")
PORTRAIT_STATUSES = ("ok", "blowup", "positivity-loss", "stationary")
PORTRAIT_PHI0 = (0.2, 2.5)
PORTRAIT_DPHI0 = (-1.0, 1.0)
FIRST_INTEGRAL_TOL = 1e-6
FIRST_INTEGRAL_MIN_PHI = 0.05


@dataclass(frozen=True)
class Op:
    """One timed call into yamabe, and what its output must be."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]   # None when the output is right
    known_defect: bool = False               # a documented open defect


def run_op(op: Op) -> Any:
    """Call the operation; an exception becomes part of its outcome."""
    try:
        return op.run()
    except Exception as exc:  # the oracle decides whether it was expected
        return ("raised", type(exc).__name__, str(exc))


# --- certify-grid ---------------------------------------------------------

@dataclass(frozen=True)
class CertifyCase:
    label: str
    spec: soliton.WarpedSolitonSpec
    interval: Optional[Interval]
    expected: str
    known_defect: bool = False


def _load_certify_grid() -> list[CertifyCase]:
    cases = []
    twins = []
    entries = catalog()
    for key in CATALOG_KEYS:
        entry = entries[key]
        spec = entry.build()
        interval = Interval(*entry.certify_interval)
        cases.append(CertifyCase(key, spec, interval, "certified"))
        twin = dataclasses.replace(spec, rho=spec.rho + TWIN_RHO_SHIFT,
                                   label=f"{key}+rho")
        twins.append(CertifyCase(f"{key}+rho", twin, interval, "rejected"))
    # ROADMAP item 4: a pole or zero of phi or f inside the interval must
    # give 'inconclusive'; the grid steps over it today
    hostile = [CertifyCase(name, specio.load_document(
                   os.path.join(INPUT_DIR, f"{name}.json"))[0], None,
                   "inconclusive", known_defect=True)
               for name in HOSTILE_DOCS]
    return cases + twins + hostile


def _certify_outcome(case: CertifyCase) -> tuple:
    out = []
    for grid in GRIDS:
        report = soliton.certify(case.spec, grid_size=grid,
                                 interval=case.interval)
        maxima = tuple(sorted((key, st.max_abs_residual)
                              for key, st in report.equations.items()))
        out.append((grid, report.verdict, report.tolerance, maxima))
    return tuple(out)


def check_certify(expected: str, outcome) -> Optional[str]:
    if outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}"
    for grid, verdict, tolerance, maxima in outcome:
        if verdict != expected:
            return f"grid {grid}: verdict {verdict}, expected {expected}"
        worst = max((value for _, value in maxima), default=math.inf)
        if expected == "certified" and not worst <= tolerance:
            return (f"grid {grid}: certified with worst residual "
                    f"{worst:.3e} above tolerance {tolerance:g}")
    return None


def _certify_op(case: CertifyCase) -> Op:
    return Op(case.label, lambda: _certify_outcome(case),
              lambda out: check_certify(case.expected, out),
              case.known_defect)


# --- thm15-build ----------------------------------------------------------

def _thm15_outcome(params: dict) -> tuple:
    spec = families.family_thm15(**{**THM15_COMMON, **params})
    report = soliton.certify(spec, grid_size=200)
    maxima = tuple(sorted((key, st.max_abs_residual)
                          for key, st in report.equations.items()))
    return ("built", report.verdict, report.tolerance, maxima)


def check_thm15(expected_error: Optional[str], outcome) -> Optional[str]:
    if outcome[0] == "raised":
        if outcome[1] == expected_error:
            return None
        return f"raised {outcome[1]}: {outcome[2]}"
    if expected_error is not None:
        return f"built a spec, expected {expected_error}"
    _, verdict, tolerance, maxima = outcome
    if verdict != "certified":
        return f"verdict {verdict}, expected certified"
    worst = max((value for _, value in maxima), default=math.inf)
    if not worst <= tolerance:
        return f"worst residual {worst:.3e} above tolerance {tolerance:g}"
    return None


def _thm15_op(case) -> Op:
    label, params, expected_error = case
    return Op(label, lambda: _thm15_outcome(params),
              lambda out: check_thm15(expected_error, out))


# --- geodesic-probe -------------------------------------------------------

def _rd_alpha(dim: int) -> np.ndarray:
    """Step of the R_d additive recurrence (Roberts): powers of 1/g, where
    g is the positive root of x^(dim+1) = x + 1."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return (1.0 / g) ** np.arange(1, dim + 1)


def low_discrepancy(seed: int, salt: int, dim: int, count: int) -> np.ndarray:
    """The first count points of a randomly shifted R_d sequence in
    [0, 1)^dim; the shift comes from the seed. The points cover the cube
    evenly, so the pool's cost varies far less from seed to seed than with
    independent draws."""
    shift = np.random.default_rng([seed, salt]).uniform(size=dim)
    i = np.arange(1, count + 1, dtype=float)[:, None]
    return np.mod(shift + i * _rd_alpha(dim), 1.0)


_NORMAL = NormalDist()


def probe_samples(seed: int, count: int, n: int = 4, d: int = 2):
    """Start points in the shape of yamabe's default probe sampler:
    y in [-1, 1]^n, yf in [-1, 1]^d, unit (v, vf) in a uniform direction."""
    u = low_discrepancy(seed, 1, 2 * n + 2 * d, count)
    out = []
    for row in u:
        y = 2.0 * row[:n] - 1.0
        yf = 2.0 * row[n:n + d] - 1.0
        w = np.array([_NORMAL.inv_cdf(min(max(p, 1e-12), 1.0 - 1e-12))
                      for p in row[n + d:]])
        w /= np.linalg.norm(w)
        out.append((y, w[:n], yf, w[n:]))
    return out


def portrait_initials(seed: int, count: int):
    u = low_discrepancy(seed, 2, 2, count)
    lo, hi = PORTRAIT_PHI0
    dlo, dhi = PORTRAIT_DPHI0
    return [(float(lo + (hi - lo) * a), float(dlo + (dhi - dlo) * b))
            for a, b in u]


@dataclass(frozen=True)
class GeodesicInputs:
    spec: soliton.WarpedSolitonSpec
    portrait_params: dict
    samples: list
    initials: list
    reference: Optional[dict]


def _probe_outcome(spec, samples) -> tuple:
    """Probe the samples in every mode; per sample, one entry per mode:
    (mode, (direction, status, s reached) forward, the same backward)."""
    per_mode = []
    for mode in geodesics.MODES:
        feed = iter(samples)
        summary = geodesics.completeness_probe(spec, len(samples), S_MAX,
                                               mode=mode,
                                               sampler=lambda: next(feed))
        stops = {(i, direction): (status, s)
                 for i, direction, status, s in summary.failures}
        per_mode.append([(mode,) + tuple(
            (direction,) + stops.get((i, direction), ("completed", S_MAX))
            for direction in ("forward", "backward"))
            for i in range(len(samples))])
    return tuple(zip(*per_mode))


def probe_statuses(outcome) -> list[list[str]]:
    return [[status for _, status, _ in legs] for _, *legs in outcome]


def check_probe(reference: Optional[list], outcome) -> Optional[str]:
    if outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}"
    statuses = probe_statuses(outcome)
    for (mode, *_), legs in zip(outcome, statuses):
        bad = [s for s in legs if s not in PROBE_STATUSES]
        if bad:
            return f"{mode}: unknown status {bad[0]}"
        if mode == "paper-reduced" and legs != ["completed", "completed"]:
            return f"paper-reduced stopped early: {legs}"
    if reference is not None and statuses != reference:
        return f"statuses {statuses}, reference {reference}"
    return None


def _portrait_outcome(params: dict, initials) -> tuple:
    """One phase portrait of all the initials; per trajectory its status,
    row count, first and last rows and first-integral drift."""
    trajs = families.phase_portrait(list(initials), params["xi_span"],
                                    k1=params["k1"], k2=params["k2"],
                                    lambda_f=params["lambda_f"])
    return tuple(("traced", traj.status, traj.rows.shape[0],
                  tuple(float(x) for x in traj.rows[0]),
                  tuple(float(x) for x in traj.rows[-1]),
                  first_integral_drift(params, traj.rows))
                 for traj in trajs)


def first_integral_drift(params: dict, rows: np.ndarray) -> float:
    """Largest change of log|K| along the rows, where

        K = W e^W exp(p^2 / (4 q phi^4)),  W = -(p/q) phi'/phi^3 - 1

    is constant on every solution of the profile ODE (it is the Lambert-W
    relation of the family solved for k3). Rows where phi has come close to
    zero are left out: K is ill-conditioned there."""
    p = params["k1"] / 10.0
    q = params["lambda_f"] / (10.0 * params["k2"] ** 2 * params["alpha_norm"])
    phi, dphi = rows[:, 1], rows[:, 2]
    keep = phi >= FIRST_INTEGRAL_MIN_PHI
    phi, dphi = phi[keep], dphi[keep]
    with np.errstate(all="ignore"):
        w = -(p / q) * dphi / phi ** 3 - 1.0
        log_k = np.log(np.abs(w)) + w + p * p / (4.0 * q * phi ** 4)
    finite = np.isfinite(log_k)
    if finite.sum() < 2 or len(set(np.sign(w[finite]))) != 1:
        return math.inf
    log_k = log_k[finite]
    return float(np.max(log_k) - np.min(log_k))


def check_portrait(reference: Optional[str], outcome) -> Optional[str]:
    if outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}"
    _, status, _, first, last, drift = outcome
    if status not in PORTRAIT_STATUSES:
        return f"unknown status {status}"
    if not all(math.isfinite(x) for x in first + last):
        return "non-finite trajectory row"
    if status != "stationary" and not drift <= FIRST_INTEGRAL_TOL:
        return f"first integral drifted by {drift:.3e}"
    if reference is not None and status != reference:
        return f"status {status}, reference {reference}"
    return None


def _reference_at(inputs: GeodesicInputs, key: str, index: int):
    return None if inputs.reference is None else inputs.reference[key][index]


def load_reference(seed: int) -> Optional[dict]:
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_geodesic_probe(seed: int, reference: Optional[dict]
                        ) -> GeodesicInputs:
    return GeodesicInputs(example5_spec(PROBE_RATE), portrait_defaults(),
                          probe_samples(seed, POOL),
                          portrait_initials(seed, POOL), reference)


def check_batch(probe_refs: list, portrait_refs: list, outcome
                ) -> Optional[str]:
    if outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}"
    probes, portraits = outcome
    if len(probes) != len(probe_refs) or len(portraits) != len(portrait_refs):
        return "wrong number of samples or trajectories"
    for j, (probe, ref) in enumerate(zip(probes, probe_refs)):
        err = check_probe(ref, probe)
        if err is not None:
            return f"probe sample {j}: {err}"
    for j, (portrait, ref) in enumerate(zip(portraits, portrait_refs)):
        err = check_portrait(ref, portrait)
        if err is not None:
            return f"portrait trajectory {j}: {err}"
    return None


def _geodesic_ops(inputs: GeodesicInputs) -> list[Op]:
    ops = []
    for b in range(BATCHES):
        part = range(b * BATCH, (b + 1) * BATCH)
        samples = [inputs.samples[i] for i in part]
        initials = [inputs.initials[i] for i in part]
        probe_refs = [_reference_at(inputs, "probe", i) for i in part]
        portrait_refs = [_reference_at(inputs, "portrait", i) for i in part]
        ops.append(Op(
            f"batch[{b}]",
            lambda s=samples, i=initials: (
                _probe_outcome(inputs.spec, s),
                _portrait_outcome(inputs.portrait_params, i)),
            lambda out, p=probe_refs, r=portrait_refs: check_batch(p, r, out)))
    return ops


# --- dispatch -------------------------------------------------------------

def load(workload: str, seed: int):
    """Everything a workload needs before its first operation."""
    if workload == "certify-grid":
        return _load_certify_grid()
    if workload == "thm15-build":
        return list(THM15_CASES)
    if workload == "geodesic-probe":
        return load_geodesic_probe(seed, load_reference(seed))
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload: str, inputs) -> list[str]:
    """Labels of the loaded inputs, to check that two loads agree."""
    if workload == "certify-grid":
        return [case.label for case in inputs]
    if workload == "thm15-build":
        return [label for label, _, _ in inputs]
    return [inputs.spec.label, repr(inputs.initials),
            repr([s[1] for s in inputs.samples])]


def cycle(workload: str, inputs, k: int, seed: int) -> list[Op]:
    """Operations of cycle k: every operation of the workload, in an order
    drawn from the seed and k."""
    if workload == "geodesic-probe":
        ops = _geodesic_ops(inputs)
    elif workload == "certify-grid":
        ops = [_certify_op(case) for case in inputs]
    else:
        ops = [_thm15_op(case) for case in inputs]
    order = np.random.default_rng([seed, k]).permutation(len(ops))
    return [ops[i] for i in order]


def completed_count(records, mode: str) -> tuple[int, int]:
    """(probe samples that ran to +-S_MAX in both directions, probe samples)
    in one dynamics mode, over the runner's records."""
    done = total = 0
    for op, outcome, _, _ in records:
        if not op.label.startswith("batch[") or outcome[0] == "raised":
            continue
        for probe in outcome[0]:
            for (m, *_), legs in zip(probe, probe_statuses(probe)):
                if m == mode:
                    total += 1
                    done += legs == ["completed", "completed"]
    return done, total
