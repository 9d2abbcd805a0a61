"""Write ``reference.json``: the train-256 losses of the current code.

Usage, from the root of a checkout, on the code the references should
describe:

    python3 perfbench/reference.py --seeds 0..63 --steps 8

For each seed it builds the train-256 fixture exactly as the benchmark's
set-up does and records the losses of the first ``--steps`` training steps
in full precision. The benchmark compares its losses with these, within
``rel_tol``, for every seed the table holds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from emodub import head  # noqa: E402
from spread import parse_seeds  # noqa: E402

# Losses at the first steps move by less than 1e-10 when every parameter
# moves by one unit in the last place; the dynamics amplify such changes
# later, so the table stops at step 8.
REL_TOL = 1e-7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0..63")
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args(argv)

    losses = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in parse_seeds(args.seeds):
            w = workloads.Train256(workloads.Sizes(), seed, tmp)
            w.setup()
            losses[str(seed)] = [head.toy_train_step(w.batch, w.model, w.adam) for _ in range(args.steps)]
            print(f"seed {seed}: {losses[str(seed)][-1]!r}", flush=True)
    table = {"train-256": {"fixture": w.fixture(), "rel_tol": REL_TOL, "losses": losses}}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
