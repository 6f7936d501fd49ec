"""Worked examples, frozen as problem documents.

Each soliton entry holds the problem document (see ``specio``) of one of the
paper's closed-form steady solitons, which ``specio.load_document`` turns
into a spec, and a finite certification interval on which the residual grid
check is run (profiles with a singular endpoint get an interval bounded away
from it; the grid itself additionally clips a 1% margin off both ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .soliton import WarpedSolitonSpec
from .specio import load_document

__all__ = ["CatalogEntry", "catalog", "build_example", "portrait_defaults",
           "example5_spec"]


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    title: str
    kind: str                                   # "soliton" or "portrait"
    certify_interval: Optional[tuple[float, float]]
    document: Optional[dict]
    notes: str = ""

    @property
    def build(self) -> Optional[Callable[[], WarpedSolitonSpec]]:
        """The spec of the entry's document, or None for a portrait."""
        if self.document is None:
            return None
        return lambda: load_document(self.document)[0]


def _example5_document(k: float, k1: float, n: int, d: int) -> dict:
    grow = f"exp({k!r}*xi)"
    return {
        "n": n, "d": d, "signature": [-1] + [1] * (n - 1),
        "alpha": [1.0, 1.0] + [0.0] * (n - 2), "domain": None,
        "profiles": {"phi": grow, "f": grow,
                     "h": f"{-k1 / (2.0 * k)!r}*exp({-2.0 * k!r}*xi)"},
        "label": f"example-5(k={k:g})"}


def example5_spec(k: float = 0.2, k1: float = 1.0, *,
                  n: int = 4, d: int = 2) -> WarpedSolitonSpec:
    """Lightlike steady soliton phi = f = e^(k xi), h = -k1 e^(-2k xi)/(2k)
    on a Lorentzian base with xi = x1 + x2; phi and f are one profile.

    The catalog certifies k = 0.2; the completeness probe uses a smaller
    rate so the exponentials stay in range over long affine parameter.
    """
    return load_document(_example5_document(k, k1, n, d))[0]


def portrait_defaults() -> dict:
    """Initial data and ODE parameters for the phase-portrait example
    (R^3 base, hyperbolic 3-fiber with scalar curvature -6)."""
    return {
        "initials": [(0.5, 0.0), (1.0, 0.0), (1.5, 0.0),
                     (1.0, 0.5), (1.0, -0.5), (2.0, 0.0)],
        "xi_span": (-1.0, 1.0),
        "k1": 1.0, "k2": 1.0, "lambda_f": -6.0, "alpha_norm": 1.0,
    }


def catalog() -> dict[str, CatalogEntry]:
    return {
        "example-1": CatalogEntry(
            "example-1", "phase portrait of the profile equation",
            "portrait", None, None,
            notes="R^3 x H^3 parameters; see portrait_defaults()"),
        "example-2": CatalogEntry(
            "example-2", "phi = sqrt(xi/20), f = sqrt(20/xi), h = 20 ln xi",
            "soliton", (0.0, 40.0), {
                "n": 5, "d": 1, "alpha": [1.0, 0.0, 0.0, 0.0, 0.0],
                "domain": [0.0, None],
                "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)",
                             "h": "20*ln(xi)"},
                "label": "example-2"},
            notes="steady, Euclidean base, xi > 0"),
        "example-3": CatalogEntry(
            "example-3", "phi^2 = tan(xi/20), h = 20 ln sin(xi/20)",
            "soliton", (0.0, 10.0 * math.pi), {
                "n": 4, "d": 2, "alpha": [1.0, 0.0, 0.0, 0.0],
                "domain": [0.0, 10.0 * math.pi],
                "profiles": {"phi": "sqrt(tan(xi/20))",
                             "f": "1/sqrt(tan(xi/20))",
                             "h": "20*ln(sin(xi/20))"},
                "label": "example-3"},
            notes="steady, Euclidean base, periodic branch"),
        "example-4": CatalogEntry(
            "example-4", "phi = sec xi, f = sqrt(2 sec xi e^xi), h const",
            "soliton", (-1.45, 1.45), {
                "n": 4, "d": 3, "signature": [-1, 1, 1, 1],
                "alpha": [0.0, 1.0, 1.0, 1.0],
                "domain": [-0.5 * math.pi, 0.5 * math.pi],
                "profiles": {"phi": "sec(xi)", "f": "sqrt(2*sec(xi)*exp(xi))",
                             "h": "0"},
                "label": "example-4"},
            notes="trivial potential, Lorentzian base, spacelike direction"),
        "example-5": CatalogEntry(
            "example-5", "phi = f = e^(xi/5), lightlike direction",
            "soliton", (-10.0, 10.0), _example5_document(0.2, 1.0, 4, 2),
            notes="steady, Lorentzian base, xi = x1 + x2 lightlike"),
    }


def build_example(key: str) -> WarpedSolitonSpec:
    entry = catalog().get(key)
    if entry is None or entry.build is None:
        raise KeyError(f"no buildable catalog entry named {key!r}")
    return entry.build()
