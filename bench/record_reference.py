#!/usr/bin/env python3
"""Record the geodesic-probe reference: per-sample probe statuses and
portrait statuses of every pooled input of the reference seed.

    python3 bench/record_reference.py

Writes bench/reference_seed0.json. Runs of geodesic-probe with the
reference seed compare each output against it; other seeds are checked by
invariants only. Re-record only when a change to yamabe is meant to change
these statuses, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import workloads

    seed = workloads.REFERENCE_SEED
    inputs = workloads.load_geodesic_probe(seed, None)
    probe, portrait = [], []
    for op in workloads._geodesic_ops(inputs):
        probes, portraits = op.run()
        probe += [workloads.probe_statuses(outcome) for outcome in probes]
        portrait += [outcome[1] for outcome in portraits]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "s_max": workloads.S_MAX,
                   "probe_rate": workloads.PROBE_RATE,
                   "probe": probe, "portrait": portrait}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
