"""Command-line interface.

Subcommands:

  verify FILE        residual-certify a problem document
  family ID          build one of the explicit families and certify it
  portrait           sample trajectories of the profile phase portrait
  geodesic FILE      integrate geodesics / run a completeness probe
  examples           run the bundled example catalog

Exit codes: 0 = certified / ran to completion, 2 = rejected by the checks,
3 = inconclusive (non-finite evaluations), 1 = malformed input or violated
construction hypotheses, or standard output closed by its reader. Set
YAMABE_LOG=debug (or info, warning) to see solver progress on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import families, geodesics, specio
from .catalog import catalog as example_catalog, portrait_defaults
from .errors import YamabeError
from .geometry import SignatureSpec
from .profiles import Interval
from .soliton import certify

__all__ = ["main"]

log = logging.getLogger("yamabe.cli")

_VERDICT_EXIT = {"certified": 0, "rejected": 2, "inconclusive": 3}

# `yamabe family`: the flags of the expression keys
_EXPRESSION_FLAGS = {"phi": "--phi", "f": "--f", "z_p": "--zp"}


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # error type so input problems uniformly exit 1
    def error(self, message):
        raise _CliInputError(message)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _CliInputError(f"expected comma-separated numbers, got {text!r}") \
            from exc


def _checked(kind, test, what: str):
    """An argparse type: text read by kind whose value must pass test."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda x: math.isfinite(x) and x > 0.0,
                     "a positive finite number")
_COUNT = _checked(int, lambda n: n >= 0, "a non-negative integer")
_POSITIVE_COUNT = _checked(int, lambda n: n > 0, "a positive integer")
_GRID = _checked(int, lambda n: n >= 2, "an integer >= 2")


def _finite_components(flag: str, text: str) -> tuple[float, ...]:
    values = _floats(text)
    if not all(map(math.isfinite, values)):
        raise _CliInputError(f"{flag} components must be finite, got {text!r}")
    return values


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _CliInputError(f"expected comma-separated integers, got {text!r}") \
            from exc


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The file at path, opened for writing and closed on exit, or stdout
    (left open) for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out


def _emit(text: str, path: Optional[str]) -> None:
    with _output(path) as out:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="yamabe",
                     description="residual checks, explicit families, and "
                                 "geodesics for conformally-based warped "
                                 "product solitons")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[], help="certify a document")
    p_verify.add_argument("document", help="path to a problem JSON document")
    p_verify.add_argument("--tol", type=_POSITIVE, default=None,
                          help="residual tolerance (default: the document's "
                          "tolerance, else 1e-8)")
    p_verify.add_argument("--grid", type=_GRID, default=None,
                          help="number of grid points (default 200)")
    p_verify.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"),
                          help="check subinterval (default: document domain)")
    p_verify.add_argument("--sign-variant", choices=("minus", "plus"),
                          default="minus",
                          help="sign convention of the warped scalar "
                               "curvature cross term")
    p_verify.add_argument("--out", default=None,
                          help="write the report JSON here instead of stdout")

    p_family = sub.add_parser("family", help="build an explicit family member")
    p_family.add_argument("id", choices=specio.FAMILY_IDS)
    p_family.add_argument("--range", nargs=2, type=float, required=True,
                          metavar=("LO", "HI"), dest="xi_range")
    p_family.add_argument("--n", type=int, default=None)
    p_family.add_argument("--d", type=int, default=None)
    p_family.add_argument("--signature", type=str, default=None,
                          help="comma-separated +-1 entries")
    p_family.add_argument("--alpha", type=str, default=None,
                          help="comma-separated direction components")
    p_family.add_argument("--k1", type=float, default=1.0)
    p_family.add_argument("--k2", type=float, default=1.0)
    p_family.add_argument("--k3", type=float, default=0.0)
    p_family.add_argument("--k4", type=float, default=0.0)
    p_family.add_argument("--lambda-f", type=float, default=0.0,
                          dest="lambda_f")
    p_family.add_argument("--phi0", type=float, default=1.0)
    p_family.add_argument("--q-variant", choices=("statement", "proof"),
                          default="statement", dest="q_variant")
    p_family.add_argument("--w-branch", choices=("principal", "lower"),
                          default="principal", dest="w_branch")
    p_family.add_argument("--construction", choices=("quadrature", "ode"),
                          default="quadrature")
    p_family.add_argument("--branch", choices=("inner", "outer"),
                          default="inner")
    p_family.add_argument("--phi", type=str, default=None,
                          help="phi expression (thm17/thm18/almost-lightlike)")
    p_family.add_argument("--f", type=str, default=None,
                          help="f expression (thm18/almost-lightlike)")
    p_family.add_argument("--zp", type=str, default=None, dest="z_p",
                          help="Riccati solution expression (thm17)")
    p_family.add_argument("--c-const", type=float, default=1.0, dest="C",
                          help="integration constant C (thm17)")
    p_family.add_argument("--tol", type=_POSITIVE, default=None)
    p_family.add_argument("--grid", type=_GRID, default=None)
    p_family.add_argument("--out-doc", default=None,
                          help="write the round-trippable document JSON here")
    p_family.add_argument("--out-csv", default=None,
                          help="write profile samples (xi,phi,f,h) here")

    p_portrait = sub.add_parser("portrait",
                                help="trajectories of the profile equation")
    p_portrait.add_argument("--initial", action="append", default=[],
                            metavar="PHI,DPHI",
                            help="initial (phi, phi'); repeatable")
    p_portrait.add_argument("--samples", type=_COUNT, default=0,
                            help="additionally sample this many random "
                                 "initial conditions")
    p_portrait.add_argument("--seed", type=_COUNT, default=0)
    p_portrait.add_argument("--xi-range", nargs=2, type=_FINITE,
                            default=(-1.0, 1.0), metavar=("LO", "HI"))
    p_portrait.add_argument("--start-xi", type=_FINITE, default=None)
    p_portrait.add_argument("--k1", type=_FINITE, default=1.0)
    p_portrait.add_argument("--k2", type=_FINITE, default=1.0)
    p_portrait.add_argument("--lambda-f", type=_FINITE, default=-6.0,
                            dest="lambda_f")
    p_portrait.add_argument("--q-variant", choices=("statement", "proof"),
                            default="statement", dest="q_variant")
    p_portrait.add_argument("--points", type=_COUNT, default=120,
                            help="sample points per integration direction")
    p_portrait.add_argument("--out", default=None)

    p_geo = sub.add_parser("geodesic", help="integrate geodesics")
    p_geo.add_argument("document", help="path to a problem JSON document")
    p_geo.add_argument("--mode", choices=geodesics.MODES, default="full")
    p_geo.add_argument("--y", type=str, default=None,
                       help="base position components")
    p_geo.add_argument("--v", type=str, default=None,
                       help="base velocity components")
    p_geo.add_argument("--yf", type=str, default=None,
                       help="fiber position components (default 0)")
    p_geo.add_argument("--vf", type=str, default=None,
                       help="fiber velocity components (default 0)")
    p_geo.add_argument("--s-span", nargs=2, type=_FINITE, default=(0.0, 10.0),
                       metavar=("A", "B"))
    p_geo.add_argument("--samples", type=_POSITIVE_COUNT, default=201)
    p_geo.add_argument("--rtol", type=_POSITIVE, default=1e-10)
    p_geo.add_argument("--atol", type=_POSITIVE, default=1e-12)
    p_geo.add_argument("--probe", type=_COUNT, default=0, metavar="COUNT",
                       help="run a completeness probe instead of a single "
                            "geodesic")
    p_geo.add_argument("--compare-modes", action="store_true",
                       help="probe both dynamics modes and report both")
    p_geo.add_argument("--s-max", type=_POSITIVE, default=1e3)
    p_geo.add_argument("--seed", type=_COUNT, default=0)
    p_geo.add_argument("--out", default=None)

    p_examples = sub.add_parser("examples", help="run the bundled catalog")
    p_examples.add_argument("--out-dir", default=None,
                            help="write per-example profile CSVs here")
    p_examples.add_argument("--grid", type=_GRID, default=None)
    return parser


# --- subcommand drivers -----------------------------------------------------

def _cmd_verify(args) -> int:
    spec, meta = specio.load_document(args.document)
    tol = args.tol if args.tol is not None else meta.get("tolerance")
    grid = args.grid if args.grid is not None else meta.get("grid", 200)
    interval = Interval(*args.interval) if args.interval else None
    report = certify(spec, grid_size=grid, tolerance=tol, interval=interval,
                     sign_variant=args.sign_variant)
    _emit(specio.report_json(report), args.out)
    if args.out:
        print(f"{spec.label or args.document}: {report.verdict}")
    return _VERDICT_EXIT[report.verdict]


def _family_params(args) -> dict:
    entry = specio.FAMILY_TABLE[args.id]
    missing = [_EXPRESSION_FLAGS[key] for key in entry.required
               if key in _EXPRESSION_FLAGS and not getattr(args, key)]
    if missing:
        raise _CliInputError(
            f"{args.id} needs {' and '.join(missing)} expressions")
    return {key: getattr(args, key) for key in entry.required + entry.optional}


def _family_frame(args) -> tuple[int, int, SignatureSpec, tuple[float, ...]]:
    entry = specio.FAMILY_TABLE[args.id]
    n = args.n if args.n is not None else entry.n
    d = args.d if args.d is not None else entry.d
    if args.signature is None or args.alpha is None:
        default_sig, default_direction = (
            families.default_lightlike_frame if entry.lightlike
            else families.default_spacelike_frame)(n)
    sig = (SignatureSpec(_ints(args.signature)) if args.signature is not None
           else default_sig)
    alpha = (_floats(args.alpha) if args.alpha is not None
             else default_direction.alpha)
    return n, d, sig, alpha


def _cmd_family(args) -> int:
    n, d, sig, alpha = _family_frame(args)
    params = _family_params(args)
    doc = specio.family_document(args.id, params, n=n, d=d, sig=sig,
                                 alpha=alpha, lambda_f=args.lambda_f,
                                 domain=tuple(args.xi_range),
                                 label=f"family-{args.id}")
    spec, _ = specio.load_document(doc)
    report = certify(spec, grid_size=args.grid or 200, tolerance=args.tol)
    if args.out_doc:
        _emit(json.dumps(doc, indent=2), args.out_doc)
    if args.out_csv:
        with _output(args.out_csv) as out:
            specio.write_profile_csv(spec, out, grid=args.grid or 200)
    payload = {"document": doc, "report": report.to_dict()}
    print(json.dumps(payload, indent=2))
    return _VERDICT_EXIT[report.verdict]


def _cmd_portrait(args) -> int:
    initials = []
    for text in args.initial:
        pair = _finite_components("--initial", text)
        if len(pair) != 2:
            raise _CliInputError(
                f"--initial expects PHI,DPHI; got {text!r}")
        initials.append(pair)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.samples):
            initials.append((float(rng.uniform(0.2, 2.5)),
                             float(rng.uniform(-1.0, 1.0))))
    if not initials:
        initials = portrait_defaults()["initials"]
    trajectories = families.phase_portrait(
        initials, tuple(args.xi_range), k1=args.k1, k2=args.k2,
        lambda_f=args.lambda_f, q_variant=args.q_variant,
        start_xi=args.start_xi, points_per_side=args.points)
    with _output(args.out) as out:
        specio.write_portrait_csv(trajectories, out)
    return 0


def _cmd_geodesic(args) -> int:
    spec, _ = specio.load_document(args.document)
    if args.probe:
        if args.compare_modes:
            full, reduced, notes = geodesics.compare_probe_modes(
                spec, args.probe, args.s_max, seed=args.seed,
                rtol=args.rtol, atol=args.atol)
            payload = {"full": full.to_dict(), "paper-reduced": reduced.to_dict(),
                       "notes": notes}
        else:
            summary = geodesics.completeness_probe(
                spec, args.probe, args.s_max, mode=args.mode, seed=args.seed,
                rtol=args.rtol, atol=args.atol)
            payload = summary.to_dict()
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    if args.y is None or args.v is None:
        raise _CliInputError("single-geodesic mode needs --y and --v "
                             "(or use --probe COUNT)")
    state = []
    for flag, text, size in (("--y", args.y, spec.n), ("--v", args.v, spec.n),
                             ("--yf", args.yf, spec.d),
                             ("--vf", args.vf, spec.d)):
        values = _finite_components(flag, text) if text else ()
        # empty fiber data means zeros
        if len(values) != size and (values or flag in ("--y", "--v")):
            raise _CliInputError(
                f"{flag} needs {size} components, got {len(values)}")
        state.append(values)
    result = geodesics.integrate_geodesic(
        spec, *state,
        s_span=tuple(args.s_span), mode=args.mode, samples=args.samples,
        rtol=args.rtol, atol=args.atol)
    with _output(args.out) as out:
        specio.write_geodesic_csv(result, spec.n, spec.d, out)
    return 0


def _cmd_examples(args) -> int:
    worst_exit = 0
    for key, entry in example_catalog().items():
        if entry.kind != "soliton":
            print(f"{key}: portrait entry (run `yamabe portrait` for samples)")
            continue
        spec = entry.build()
        interval = Interval(*entry.certify_interval)
        report = certify(spec, grid_size=args.grid or 200, interval=interval)
        worst = max((stat.max_abs_residual
                     for stat in report.equations.values()), default=0.0)
        print(f"{key}: {report.verdict} (max residual {worst:.3e} on "
              f"{entry.certify_interval})")
        worst_exit = max(worst_exit, _VERDICT_EXIT[report.verdict])
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"{key}.csv")
            with _output(path) as out:
                specio.write_profile_csv(spec, out, grid=args.grid or 200,
                                         interval=interval)
    return worst_exit


def _reader_gone() -> int:
    """Exit status 1, without a traceback, once the reader of stdout has
    gone (``yamabe portrait | head -1``). stdout is pointed at os.devnull,
    so the interpreter's last flush of what is still buffered is quiet
    too."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError):      # a stdout without a file descriptor
        pass
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("YAMABE_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                            stream=sys.stderr,
                            format="%(name)s %(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "verify": _cmd_verify,
            "family": _cmd_family,
            "portrait": _cmd_portrait,
            "geodesic": _cmd_geodesic,
            "examples": _cmd_examples,
        }[args.command]
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        return _reader_gone()
    except (_CliInputError, YamabeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
