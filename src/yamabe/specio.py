"""JSON problem documents and CSV output.

A problem document describes one warped-product configuration, and
``load_document`` is the one way the package turns one into a spec (the
example catalog included):

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
anchor point). Each family's keys, required | optional (FAMILY_TABLE):

    thm15             k1 k2 k3 | k4 phi0 q_variant w_branch
    thm16             k1 k2 | k3 k4 branch     (scalar-flat: lambda_f = 0)
    thm17             phi z_p C                (scalar-flat)
    thm18             phi f k1                 (scalar-flat)
    almost-lightlike  phi f k1

phi, f and z_p are expressions; an optional key left out takes the
constructor's default. Equal expression texts in one document, in either
block, load as one Profile, so a spec with phi = f reads it once where a
reader dedupes by identity (the geodesic RHS does). The document's label,
if any, replaces the constructor's. Any other key is an error naming
"<key>" at the top level (whose keys the example shows), "profiles.<key>"
or "family.<key>"; every family parameter error names "family.<key>".

Floats are serialized with repr via the json module, so values survive a
dump/load round trip bit-for-bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from typing import IO, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import families
from .errors import EvaluationError, SpecValidationError, YamabeError
from .geometry import SignatureSpec, TranslationDirection
from .profiles import Interval, Profile, grid_points
from .soliton import ResidualReport, WarpedSolitonSpec

__all__ = [
    "load_document", "family_document", "write_profile_csv",
    "write_portrait_csv", "write_geodesic_csv", "report_json",
]


class FamilyEntry(NamedTuple):
    """A family's document keys, required and optional (left out: the
    constructor's default), the frame `yamabe family` builds it in unless
    told otherwise (n, d, and the default lightlike or spacelike direction)
    and whether lambda_f must be 0 (not passed)."""
    build: Callable[..., WarpedSolitonSpec]
    required: tuple[str, ...]
    optional: tuple[str, ...]
    n: int
    d: int
    lightlike: bool = False
    scalar_flat: bool = False


# `yamabe family` writes each family's keys in this order
FAMILY_TABLE = {
    "thm15": FamilyEntry(families.family_thm15, ("k1", "k2", "k3"),
                         ("k4", "phi0", "q_variant", "w_branch"), n=3, d=3),
    "thm16": FamilyEntry(families.family_thm16, ("k1", "k2"),
                         ("k3", "k4", "branch"), n=5, d=1, scalar_flat=True),
    "thm17": FamilyEntry(families.family_thm17, ("phi", "z_p", "C"), (),
                         n=4, d=3, scalar_flat=True),
    "thm18": FamilyEntry(families.family_thm18, ("phi", "f", "k1"), (),
                         n=4, d=2, lightlike=True, scalar_flat=True),
    "almost-lightlike": FamilyEntry(families.almost_soliton_lightlike,
                                    ("phi", "f", "k1"), (), n=4, d=2,
                                    lightlike=True),
}
FAMILY_IDS = tuple(FAMILY_TABLE)
_EXPRESSION_KEYS = ("phi", "f", "z_p")
_CHOICE_KEYS = ("q_variant", "w_branch", "branch")
_DOCUMENT_KEYS = ("n", "d", "signature", "alpha", "rho", "lambda_f", "domain",
                  "profiles", "family", "tolerance", "grid", "label")


def _require(doc: dict, key: str, types, *, default=None):
    if key not in doc:
        return default
    value = doc[key]
    if types is not None and (not isinstance(value, types)
                              or (types is int and isinstance(value, bool))):
        raise SpecValidationError(
            key, f"expected {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}")
    return value


def _number(key: str, value) -> float:
    """A finite JSON number as a float. A bool, a string, NaN, +-Infinity
    (which the json module reads) and an integer beyond float range are
    rejected."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise SpecValidationError(key, f"expected a finite number, got {value!r}")


def _float_field(doc: dict, key: str,
                 default: Optional[float] = None) -> Optional[float]:
    if key not in doc:
        return default
    return _number(key, doc[key])


def _check_keys(block: dict, prefix: str, required: Sequence[str],
                optional: Sequence[str] = ()) -> None:
    """Raise SpecValidationError naming prefix + key for a key of block
    outside required and optional, then for a missing required key."""
    for key in block:
        if key not in required and key not in optional:
            raise SpecValidationError(f"{prefix}{key}", "unknown field")
    for key in required:
        if key not in block:
            raise SpecValidationError(f"{prefix}{key}",
                                      "missing required field")


def _parse_domain(raw) -> Interval:
    if raw is None:
        return Interval(-math.inf, math.inf)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise SpecValidationError(
            "domain", "expected a two-element list [lo, hi] "
            "(null endpoint = unbounded)")
    lo, hi = (bound if end is None else _number("domain", end)
              for end, bound in zip(raw, (-math.inf, math.inf)))
    try:
        return Interval(lo, hi)
    except YamabeError as exc:
        raise SpecValidationError("domain", str(exc)) from exc


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
    _check_keys(doc, "", ("n", "d", "alpha"), _DOCUMENT_KEYS)

    n = _require(doc, "n", int)
    if n < 3:
        raise SpecValidationError("n", f"base dimension must be >= 3, got {n}")
    d = _require(doc, "d", int)
    if d < 1:
        raise SpecValidationError("d", f"fiber dimension must be >= 1, got {d}")

    raw_sig = _require(doc, "signature", list, default=[1] * n)
    if len(raw_sig) != n or any(s not in (1, -1) for s in raw_sig):
        raise SpecValidationError(
            "signature", f"expected a list of n={n} entries from {{-1, +1}}")
    sig = SignatureSpec(tuple(raw_sig))

    raw_alpha = _require(doc, "alpha", list)
    if len(raw_alpha) != n:
        raise SpecValidationError("alpha", f"expected n={n} components")
    alpha = tuple(_number("alpha", a) for a in raw_alpha)
    try:
        direction = TranslationDirection(alpha, sig)
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


def _expression_profile(key: str, text, domain: Interval,
                        made: dict[str, Profile]) -> Profile:
    """The profile of an expression text on domain; a text already in made
    gives the profile made for it, so equal texts are one profile."""
    if not isinstance(text, str):
        raise SpecValidationError(key,
                                  f"expected an expression string, got {text!r}")
    if text not in made:
        try:
            made[text] = Profile.from_expression(text, domain)
        except YamabeError as exc:
            raise SpecValidationError(key, str(exc)) from exc
    return made[text]


def _spec_from_profiles(profiles, sig, direction, d, rho, lambda_f,
                        domain, label) -> WarpedSolitonSpec:
    if not isinstance(profiles, dict):
        raise SpecValidationError("profiles", "expected an object")
    keys = ("phi", "f", "h")
    _check_keys(profiles, "profiles.", keys)
    made = {}
    phi, f, h = (_expression_profile(f"profiles.{key}", profiles[key], domain,
                                     made) for key in keys)
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
    entry = FAMILY_TABLE[fid]
    _check_keys(fam, "family.", entry.required, ("id",) + entry.optional)
    if not (math.isfinite(domain.lo) and math.isfinite(domain.hi)):
        raise SpecValidationError(
            "domain", "family documents need a finite domain (it is the "
            "construction range and quadrature anchor)")
    if rho != 0.0:
        raise SpecValidationError(
            "rho", "family documents describe steady constructions; rho "
            "must be 0 (the almost-lightlike family derives its own rho)")
    if entry.scalar_flat and lambda_f != 0.0:
        raise SpecValidationError(
            "lambda_f", f"the {fid} family has a scalar-flat fiber; lambda_f "
            "must be 0")
    kwargs = {} if entry.scalar_flat else {"lambda_f": lambda_f}
    made = {}
    for key, value in fam.items():
        if key in _EXPRESSION_KEYS:
            kwargs[key] = _expression_profile(f"family.{key}", value, domain,
                                              made)
        elif key in _CHOICE_KEYS:
            kwargs[key] = value
        elif key != "id":
            kwargs[key] = _number(f"family.{key}", value)
    try:
        spec = entry.build(xi_range=domain.as_tuple(), n=n, d=d, sig=sig,
                           alpha=direction.alpha, run_certify=False, **kwargs)
    except YamabeError as exc:
        raise SpecValidationError("family", str(exc)) from exc
    return dataclasses.replace(spec, label=label) if label else spec


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


# --- CSV ------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_profile_csv(spec: WarpedSolitonSpec, out: IO, grid: int = 200,
                      interval: Optional[Interval] = None) -> None:
    """Samples of (phi, f, h) on the margin-clipped grid, one jet per
    profile. Header: xi,phi,f,h. A row with a non-finite sample raises
    EvaluationError naming the profile and the point."""
    where = (interval or spec.domain).clipped(spec.domain)
    xs = grid_points(where, grid)
    profiles = (spec.phi, spec.f, spec.h)
    with np.errstate(all="ignore"):
        columns = [profile.jet(xs, True, False, False)[0].tolist()
                   for profile in profiles]
    out.write("xi,phi,f,h\n")
    for xi, *row in zip(xs.tolist(), *columns):
        for name, v in zip(("phi", "f", "h"), row):
            if not math.isfinite(v):
                raise EvaluationError(f"non-finite {name} at xi={xi!r}")
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


def report_json(report: ResidualReport) -> str:
    return json.dumps(report.to_dict(), indent=2)
