"""numpy is yamabe's only runtime dependency: every ODE path runs on the
package's own Runge-Kutta kernel, the Lambert family on its own Lambert W
and quadrature, and scipy serves the tests alone."""

import json
import os
import subprocess
import sys

import yamabe

# An import hook that makes every scipy import fail, then each ODE path, the
# Lambert family's quadrature construction and the CLI; the child exits
# non-zero if anything imports scipy.
WITHOUT_SCIPY = r"""
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

from yamabe import cli, families, geodesics
from yamabe.catalog import example5_spec, portrait_defaults

full, reduced, _ = geodesics.compare_probe_modes(example5_spec(0.005),
                                                 count=4, s_max=300.0)
assert reduced.completed == 4
params = portrait_defaults()
trajectories = families.phase_portrait(
    params["initials"], params["xi_span"], k1=params["k1"],
    k2=params["k2"], lambda_f=params["lambda_f"])
assert len(trajectories) == len(params["initials"])
families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.45, 0.95),
                      construction="ode")
# the default quadrature construction runs the package's own Lambert W
families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.45, 0.95))
families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5, xi_range=(-0.1, 0.1),
                      w_branch="lower")
assert cli.main(["verify", sys.argv[1]]) == 0
assert cli.main(["family", "thm15", "--lambda-f", "-0.5", "--k3", "-0.2",
                 "--range", "-0.3", "0.4", "--n", "3", "--d", "3"]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_ode_paths_and_cli_run_without_scipy(tmp_path):
    doc = tmp_path / "good.json"
    doc.write_text(json.dumps({
        "n": 5, "d": 1, "alpha": [1, 0, 0, 0, 0], "domain": [1.0, 40.0],
        "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)",
                     "h": "20*ln(xi)"},
    }), encoding="utf-8")
    package_root = os.path.dirname(os.path.dirname(yamabe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(doc)],
                           env=env, capture_output=True, text=True,
                           timeout=300)
    assert child.returncode == 0, child.stderr
