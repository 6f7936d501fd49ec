"""Set-up in a fresh interpreter: import yamabe, then load one workload's
inputs. Prints one JSON line with the two times and the loaded labels.

run.py starts this script several times per run and takes the wall time of
each process as one sample of setup_s; run with ``python3 -X importtime``
it also yields the import split of the traced run. Only the standard
library is imported before yamabe, so numpy and scipy show up inside
yamabe's import.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    t0 = time.perf_counter()
    import yamabe  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    inputs = workloads.load(args.workload, args.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_yamabe_s": t1 - t0, "load_inputs_s": t2 - t1,
                      "inputs": workloads.describe(args.workload, inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
