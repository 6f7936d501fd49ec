import math

import numpy as np
import pytest

from yamabe.geometry import SignatureSpec, TranslationDirection
from yamabe.profiles import Interval, Profile
from yamabe.soliton import WarpedSolitonSpec


# the quadrature cases of the thm15-build benchmark: n = 3, d = 3 over
# (-0.3, 0.4), k1 = k2 = 1, lambda_F = -0.5 unless a case overrides it
THM15_COMMON = dict(k1=1.0, k2=1.0, lambda_f=-0.5, xi_range=(-0.3, 0.4),
                    n=3, d=3)
THM15_QUADRATURE_CASES = [
    {"k3": -0.2}, {"k3": -0.1}, {"k3": 0.2},
    {"k3": -0.2, "w_branch": "lower"}, {"k3": -0.2, "lambda_f": 0.5},
]


def rel_err(approx, exact, floor=1.0):
    """|approx - exact| / max(floor, |exact|); arrays or scalars."""
    a = np.asarray(approx, dtype=float)
    b = np.asarray(exact, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(floor, np.abs(b)))


def central_d1(f, x, step=None):
    """First derivative, central difference with one Richardson level: the
    tests' finite-difference reference for exact derivatives."""
    h = step if step is not None else max(1e-6, 1e-6 * abs(x))
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def central_d2(f, x, step=None):
    """Second derivative with one Richardson level.

    The default step is larger than for d1: second differences lose ~eps/h^2
    to cancellation, so 1e-6 would leave 1e-4-sized noise.
    """
    h = step if step is not None else max(1e-4, 1e-4 * abs(x))
    fx = f(x)
    s_h = (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)
    s_h2 = (f(x + 0.5 * h) - 2.0 * fx + f(x - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * s_h2 - s_h) / 3.0


def make_spec(phi, f, h, *, n=4, d=2, eps=None, alpha=None, rho=0.0,
              lambda_f=0.0, domain=(-2.0, 2.0)):
    """Quick spec assembly from expression strings (or Profiles)."""
    dom = domain if isinstance(domain, Interval) else Interval(*domain)
    sig = SignatureSpec(tuple(eps) if eps else (1,) * n)
    direction = TranslationDirection(
        tuple(alpha) if alpha else (1.0,) + (0.0,) * (n - 1), sig)

    def as_profile(p):
        return p if isinstance(p, Profile) else Profile.from_expression(p, dom)

    return WarpedSolitonSpec(sig, direction, d, rho, lambda_f,
                             as_profile(phi), as_profile(f), as_profile(h),
                             dom)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_polynomial_spec(rng, *, lightlike=False, domain=(-2.0, 2.0),
                           bounded=False):
    """Random non-solution spec with smooth positive phi, f.

    bounded=True keeps phi, f in [0.3, 3] and |alpha_i| <= 1.5, the regime
    where the tensor/reduced comparison constant stays below 10.
    """
    dom = Interval(*domain)
    n = int(rng.integers(3, 6))
    d = int(rng.integers(1, 4))
    if lightlike:
        eps = (-1,) + (1,) * (n - 1)
        alpha = (1.0, 1.0) + (0.0,) * (n - 2)
    else:
        eps = tuple(int(e) for e in rng.choice([-1, 1], n))
        while True:
            alpha = tuple(float(a) for a in rng.uniform(-1.5, 1.5, n))
            if abs(sum(e * a * a for e, a in zip(eps, alpha))) > 0.1:
                break
    lo, hi = (0.5, 1.2) if bounded else (0.5, 1.5)
    c = [float(x) for x in rng.uniform(lo, hi, 6)]
    scale = 0.2 if bounded else 1.0
    phi = f"{c[0]!r} + {scale * c[1]!r}*xi^2"
    f = f"{c[2]!r} + {scale * c[3]!r}*xi^2"
    h = f"{c[4]!r}*xi + {c[5]!r}*xi^2"
    return make_spec(phi, f, h, n=n, d=d, eps=eps, alpha=alpha,
                     rho=float(rng.uniform(-1, 1)),
                     lambda_f=float(rng.uniform(-1, 1)), domain=dom)
