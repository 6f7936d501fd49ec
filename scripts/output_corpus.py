#!/usr/bin/env python3
"""Record what the CLI prints and writes on a fixed set of runs.

Usage: python scripts/output_corpus.py OUT_DIR   (a new or empty directory)

Each run NAME leaves NAME.out (stdout), NAME.err (stderr) and NAME.code
(exit status) in OUT_DIR, next to the files it writes (reports, documents,
CSVs), which are named after the run too. The catalog documents and
bench/inputs, which `verify` and `geodesic` read, are copied to OUT_DIR/docs
first. Every run works in OUT_DIR with relative paths, writes no bytecode
and reads the package beside this script, so the corpora of two checkouts
compare with one `diff -r`. The runs are deterministic (seeded probes and
samples) and import no scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_INPUTS = SRC.parent / "bench" / "inputs"

THM15 = ["--k3", "-0.2", "--lambda-f", "-0.5"]
# one start inside each catalog example's domain (n base components)
GEODESIC_STARTS = {
    "example-2": ("20,0,0,0,0", "0.5,1,0,0,0"),
    "example-3": ("15,0,0,0", "0.5,1,0,0"),
    "example-4": ("0,0,0,0", "1,0.2,0.1,0"),
    "example-5": ("0,0,0,0", "1,0.5,0.2,0"),
}


def runs(documents: dict) -> list:
    """(name, argv) of every run, in order; documents maps each catalog
    key with a document to its certify interval."""
    out = [(f"examples-grid{grid}", ["examples", "--grid", str(grid),
                                      "--out-dir", f"examples-grid{grid}"])
           for grid in (200, 2000)]
    for key, (lo, hi) in documents.items():
        out.append((f"verify-{key}",
                    ["verify", f"docs/{key}.json", "--interval", repr(lo),
                     repr(hi), "--out", f"verify-{key}.json"]))
    for path in sorted(BENCH_INPUTS.glob("*.json")):
        out.append((f"verify-{path.stem}", ["verify", f"docs/{path.name}"]))
    out.append(("verify-lightlike-pole-f-plus",
                ["verify", "docs/lightlike-pole-f.json",
                 "--sign-variant", "plus"]))
    lightlike = ["--range", "-1", "1", "--phi", "exp(0.2*xi)",
                 "--f", "2 + sin(xi)", "--k1", "0.7"]
    for name, family, argv in (
            ("thm15", "thm15", ["--range", "-0.3", "0.4", *THM15]),
            ("thm15-lower", "thm15",
             ["--range", "-0.1", "0.1", *THM15, "--w-branch", "lower"]),
            ("thm16", "thm16", ["--range", "0.5", "5", "--k3", "-0.05"]),
            ("thm16-negative-k1", "thm16",
             ["--range", "-25", "-1", "--k1", "-1", "--k3", "0.05"]),
            ("thm17", "thm17",
             ["--range", "-1.4", "1.4", "--phi", "1/cos(xi)", "--zp=-1/2"]),
            ("thm18", "thm18", lightlike),
            ("almost-lightlike", "almost-lightlike", lightlike)):
        out.append((f"family-{name}",
                    ["family", family, *argv,
                     "--out-doc", f"family-{name}.json",
                     "--out-csv", f"family-{name}.csv"]))
    out.append(("portrait-default", ["portrait"]))
    out.append(("portrait-samples30-seed3",
                ["portrait", "--samples", "30", "--seed", "3"]))
    for key, (y, v) in GEODESIC_STARTS.items():
        for mode in ("full", "paper-reduced"):
            name = f"geodesic-{key}-{mode}"
            out.append((name, ["geodesic", f"docs/{key}.json", "--mode", mode,
                               "--y", y, "--v", v, "--out", f"{name}.csv"]))
    out.append(("geodesic-example-5-probe4",
                ["geodesic", "docs/example-5.json", "--probe", "4",
                 "--compare-modes"]))
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(sys.argv[1])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from yamabe.catalog import catalog
    (root / "docs").mkdir(parents=True, exist_ok=True)
    documents = {}
    for key, entry in catalog().items():
        if entry.document is not None:
            (root / "docs" / f"{key}.json").write_text(
                json.dumps(entry.document, indent=2) + "\n", encoding="utf-8")
            documents[key] = entry.certify_interval
    for path in BENCH_INPUTS.glob("*.json"):
        (root / "docs" / path.name).write_bytes(path.read_bytes())

    env = {k: v for k, v in os.environ.items() if k != "YAMABE_LOG"}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for name, argv in runs(documents):
        done = subprocess.run([sys.executable, "-m", "yamabe", *argv],
                              cwd=root, env=env, capture_output=True)
        (root / f"{name}.out").write_bytes(done.stdout)
        (root / f"{name}.err").write_bytes(done.stderr)
        (root / f"{name}.code").write_text(f"{done.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
