"""JSON problem documents and CSV output.

A problem document describes one warped-product configuration:

    {
      "n": 5, "d": 1,
      "signature": [1, 1, 1, 1, 1],          # optional, default all +1
      "alpha": [1, 0, 0, 0, 0],
      "rho": 0.0, "lambda_f": 0.0,           # optional, default 0
      "domain": [0.0, 40.0],                 # null endpoint = unbounded
      "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)", "h": "20*ln(xi)"},
      "tolerance": 1e-8, "grid": 200,        # optional check settings
      "label": "example-2"                   # optional
    }

Exactly one of "profiles" and "family" must be present. The family form
carries a constructor id and its parameters, e.g.

    "family": {"id": "thm16", "k1": 1.0, "k2": 1.0, "k3": -0.05}

and is the round-trippable representation for profiles defined through
quadrature, which have no expression form. Family documents need a finite
domain (it doubles as the construction range and supplies the quadrature
anchor point).

Floats are serialized with repr via the json module, so values survive a
dump/load round trip bit-for-bit.
"""

from __future__ import annotations

import json
import math
from typing import IO, Optional, Sequence, Union

import numpy as np

from . import families
from .errors import SpecValidationError, YamabeError
from .geometry import SignatureSpec, TranslationDirection
from .profiles import Interval, Profile, grid_points
from .soliton import ResidualReport, WarpedSolitonSpec

__all__ = [
    "load_document", "loads_document", "document_from_spec",
    "family_document", "write_profile_csv", "write_portrait_csv",
    "write_geodesic_csv", "report_json",
]

FAMILY_IDS = ("thm15", "thm16", "thm17", "thm18", "almost-lightlike")


def _require(doc: dict, key: str, types, *, default=None,
             required: bool = False):
    if key not in doc:
        if required:
            raise SpecValidationError(key, "missing required field")
        return default
    value = doc[key]
    if types is not None and (not isinstance(value, types)
                              or (types is int and isinstance(value, bool))):
        raise SpecValidationError(
            key, f"expected {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}")
    return value


def _float_field(doc: dict, key: str, default: Optional[float] = None,
                 required: bool = False) -> Optional[float]:
    if key not in doc:
        if required:
            raise SpecValidationError(key, "missing required field")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(key, f"expected a number, got {value!r}")
    return float(value)


def _parse_domain(raw) -> Interval:
    if raw is None:
        return Interval(-math.inf, math.inf)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise SpecValidationError(
            "domain", "expected a two-element list [lo, hi] "
            "(null endpoint = unbounded)")
    lo = -math.inf if raw[0] is None else float(raw[0])
    hi = math.inf if raw[1] is None else float(raw[1])
    try:
        return Interval(lo, hi)
    except YamabeError as exc:
        raise SpecValidationError("domain", str(exc)) from exc


def loads_document(text: str) -> tuple[WarpedSolitonSpec, dict]:
    return load_document(json.loads(text))


def load_document(doc: Union[dict, str, IO]) -> tuple[WarpedSolitonSpec, dict]:
    """Build a WarpedSolitonSpec from a problem document.

    Accepts a parsed dict, a path, or an open file. Returns the spec plus
    the check settings ({"tolerance": ..., "grid": ...}, entries present
    only if given in the document).
    """
    if hasattr(doc, "read"):
        doc = json.load(doc)
    elif isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SpecValidationError("<root>", "document must be a JSON object")

    n = _require(doc, "n", int, required=True)
    if n < 3:
        raise SpecValidationError("n", f"base dimension must be >= 3, got {n}")
    d = _require(doc, "d", int, required=True)
    if d < 1:
        raise SpecValidationError("d", f"fiber dimension must be >= 1, got {d}")

    raw_sig = _require(doc, "signature", list, default=[1] * n)
    if len(raw_sig) != n or any(s not in (1, -1) for s in raw_sig):
        raise SpecValidationError(
            "signature", f"expected a list of n={n} entries from {{-1, +1}}")
    sig = SignatureSpec(tuple(raw_sig))

    raw_alpha = _require(doc, "alpha", list, required=True)
    if len(raw_alpha) != n:
        raise SpecValidationError("alpha", f"expected n={n} components")
    try:
        direction = TranslationDirection(tuple(float(a) for a in raw_alpha), sig)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("alpha", str(exc)) from exc
    except YamabeError as exc:
        raise SpecValidationError("alpha", str(exc)) from exc

    rho = _float_field(doc, "rho", 0.0)
    lambda_f = _float_field(doc, "lambda_f", 0.0)
    domain = _parse_domain(doc.get("domain"))
    label = _require(doc, "label", str, default="")

    has_profiles = "profiles" in doc
    has_family = "family" in doc
    if has_profiles == has_family:
        raise SpecValidationError(
            "profiles", "exactly one of 'profiles' and 'family' must be given")

    meta = {}
    tol = _float_field(doc, "tolerance")
    if tol is not None:
        if tol <= 0.0:
            raise SpecValidationError("tolerance", "must be positive")
        meta["tolerance"] = tol
    grid = _require(doc, "grid", int)
    if grid is not None:
        if grid < 2:
            raise SpecValidationError("grid", "need at least 2 grid points")
        meta["grid"] = grid

    if has_profiles:
        spec = _spec_from_profiles(doc["profiles"], sig, direction, d,
                                   rho, lambda_f, domain, label)
    else:
        spec = _spec_from_family(doc["family"], sig, direction, n, d,
                                 rho, lambda_f, domain, label)
    return spec, meta


def _expression_profile(profiles: dict, key: str, domain: Interval) -> Profile:
    if key not in profiles:
        raise SpecValidationError(f"profiles.{key}", "missing required field")
    text = profiles[key]
    if not isinstance(text, str):
        raise SpecValidationError(f"profiles.{key}",
                                  f"expected an expression string, got {text!r}")
    try:
        return Profile.from_expression(text, domain)
    except YamabeError as exc:
        raise SpecValidationError(f"profiles.{key}", str(exc)) from exc


def _spec_from_profiles(profiles, sig, direction, d, rho, lambda_f,
                        domain, label) -> WarpedSolitonSpec:
    if not isinstance(profiles, dict):
        raise SpecValidationError("profiles", "expected an object")
    phi = _expression_profile(profiles, "phi", domain)
    f = _expression_profile(profiles, "f", domain)
    h = _expression_profile(profiles, "h", domain)
    return WarpedSolitonSpec(sig, direction, d, rho, lambda_f,
                             phi, f, h, domain, label=label)


def _spec_from_family(fam, sig, direction, n, d, rho, lambda_f,
                      domain, label) -> WarpedSolitonSpec:
    if not isinstance(fam, dict):
        raise SpecValidationError("family", "expected an object")
    fid = fam.get("id")
    if fid not in FAMILY_IDS:
        raise SpecValidationError("family.id",
                                  f"expected one of {FAMILY_IDS}, got {fid!r}")
    if not (math.isfinite(domain.lo) and math.isfinite(domain.hi)):
        raise SpecValidationError(
            "domain", "family documents need a finite domain (it is the "
            "construction range and quadrature anchor)")
    if rho != 0.0:
        raise SpecValidationError(
            "rho", "family documents describe steady constructions; rho "
            "must be 0 (the almost-lightlike family derives its own rho)")
    if fid in ("thm16", "thm18") and lambda_f != 0.0:
        raise SpecValidationError(
            "lambda_f", f"the {fid} family has a scalar-flat fiber; lambda_f "
            "must be 0")
    xi_range = domain.as_tuple()
    alpha = direction.alpha

    def fnum(key, default=None, required=False):
        return _float_field(fam, f"{key}", default, required)

    try:
        if fid == "thm15":
            return families.family_thm15(
                fnum("k1", required=True), fnum("k2", required=True),
                fnum("k3", required=True), fnum("k4", 0.0),
                lambda_f=lambda_f, xi_range=xi_range, n=n, d=d,
                sig=sig, alpha=alpha,
                q_variant=fam.get("q_variant", "statement"),
                w_branch=fam.get("w_branch", "principal"),
                construction=fam.get("construction", "quadrature"),
                phi0=fnum("phi0", 1.0), run_certify=False)
        if fid == "thm16":
            return families.family_thm16(
                fnum("k1", required=True), fnum("k2", required=True),
                fnum("k3", 0.0), fnum("k4", 0.0),
                xi_range=xi_range, n=n, d=d, sig=sig, alpha=alpha,
                branch=fam.get("branch", "inner"), run_certify=False)
        if fid == "thm17":
            phi = _expression_profile(fam, "phi", Interval(*xi_range))
            z_p = _expression_profile(fam, "z_p", Interval(*xi_range))
            return families.family_thm17(
                phi, z_p, fnum("C", required=True), xi_range=xi_range,
                n=n, d=d, lambda_f=lambda_f, sig=sig, alpha=alpha,
                run_certify=False)
        if fid == "thm18":
            phi = _expression_profile(fam, "phi", Interval(*xi_range))
            f = _expression_profile(fam, "f", Interval(*xi_range))
            return families.family_thm18(
                phi, f, fnum("k1", required=True), xi_range=xi_range,
                n=n, d=d, sig=sig, alpha=alpha, run_certify=False)
        phi = _expression_profile(fam, "phi", Interval(*xi_range))
        f = _expression_profile(fam, "f", Interval(*xi_range))
        return families.almost_soliton_lightlike(
            phi, f, fnum("k1", required=True), lambda_f,
            xi_range=xi_range, n=n, d=d, sig=sig, alpha=alpha,
            run_certify=False)
    except SpecValidationError:
        raise
    except YamabeError as exc:
        raise SpecValidationError("family", str(exc)) from exc


def family_document(fid: str, params: dict, *, n: int, d: int,
                    sig: SignatureSpec, alpha: Sequence[float],
                    lambda_f: float, domain: tuple[float, float],
                    label: str = "") -> dict:
    """Assemble the JSON document for a family construction (the
    round-trippable form: load_document rebuilds the same spec)."""
    doc = {
        "n": n, "d": d,
        "signature": list(sig.epsilon),
        "alpha": [float(a) for a in alpha],
        "rho": 0.0,
        "lambda_f": lambda_f,
        "domain": [domain[0], domain[1]],
        "family": {"id": fid, **params},
    }
    if label:
        doc["label"] = label
    return doc


def document_from_spec(spec: WarpedSolitonSpec, profiles: dict[str, str]
                       ) -> dict:
    """Document for a spec whose profiles have expression forms (the caller
    supplies the expression strings; quadrature profiles have none). An
    almost soliton's rho profile has no such form: its document is the
    almost-lightlike family document."""
    if spec.is_almost:
        raise SpecValidationError(
            "rho", "an almost soliton's rho is a profile, which only a "
                   "family document can carry")
    lo, hi = spec.domain.as_tuple()
    return {
        "n": spec.n, "d": spec.d,
        "signature": list(spec.sig.epsilon),
        "alpha": [float(a) for a in spec.direction.alpha],
        "rho": float(spec.rho),
        "lambda_f": spec.lambda_f,
        "domain": [None if math.isinf(lo) else lo,
                   None if math.isinf(hi) else hi],
        "profiles": dict(profiles),
        "label": spec.label,
    }


# --- CSV ------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_profile_csv(spec: WarpedSolitonSpec, out: IO, grid: int = 200,
                      interval: Optional[Interval] = None) -> None:
    """Samples of (phi, f, h) on the margin-clipped grid, one jet per
    profile. Header: xi,phi,f,h. A row with a non-finite sample is
    evaluated again through the scalar values, which raise where the
    profile cannot be evaluated."""
    where = (interval or spec.domain).clipped(spec.domain)
    xs = grid_points(where, grid)
    profiles = (spec.phi, spec.f, spec.h)
    columns = [profile.jet(xs, d2=False)[0].tolist() for profile in profiles]
    out.write("xi,phi,f,h\n")
    for xi, *row in zip(xs, *columns):
        if not all(map(math.isfinite, row)):
            row = [profile.value(xi) for profile in profiles]
        out.write(",".join(map(_fmt, [xi] + row)))
        out.write("\n")


def write_portrait_csv(trajectories, out: IO) -> None:
    """One header line, then one block per trajectory separated by a blank
    line. Header: xi,phi,dphi,status."""
    out.write("xi,phi,dphi,status\n")
    for k, traj in enumerate(trajectories):
        if k:
            out.write("\n")
        for xi, phi, dphi in traj.rows:
            out.write(",".join([_fmt(xi), _fmt(phi), _fmt(dphi),
                                traj.status]))
            out.write("\n")


def write_geodesic_csv(result, n: int, d: int, out: IO) -> None:
    """Header: s,y_1..y_n,v_1..v_n,yf_1..yf_d,vf_1..vf_d,status."""
    cols = (["s"] + [f"y_{i}" for i in range(1, n + 1)]
            + [f"v_{i}" for i in range(1, n + 1)]
            + [f"yf_{j}" for j in range(1, d + 1)]
            + [f"vf_{j}" for j in range(1, d + 1)] + ["status"])
    out.write(",".join(cols) + "\n")
    for row in result.rows:
        out.write(",".join([_fmt(x) for x in row] + [result.status]))
        out.write("\n")


def report_json(report: ResidualReport, extra: Optional[dict] = None) -> str:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)
