"""Record the reference outputs that the tree and witness checks compare against.

    python3 perfbench/record.py

Writes perfbench/recorded.json: the tree summary (counts and export
digests) at Tree.CAP, and the witness report digest of every batch that a
run at --seconds run.RUN_SECONDS measures, for every --seed in
run.RECORDED_SEEDS.  Only run it on a commit whose outputs are known to be
right: the recorded values are what later commits must reproduce.
"""

from __future__ import annotations

import json
import tempfile

import run
import workloads


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as outdir:
        tree = workloads.Tree(0, {}, outdir)
        summary = tree.batch(0).result
    recorded = {"tree": {str(tree.CAP): summary}}

    witness = workloads.Witness(0, {}, "")
    digests = recorded.setdefault("witness", {}).setdefault(
        f"T={witness.T},M={witness.M}", {}
    )
    batches = run.batch_count(witness.name, run.RUN_SECONDS)
    for seed in run.RECORDED_SEEDS:
        witness.seed = seed
        for index in range(batches):
            master, report = witness.batch(index).result
            if workloads.witness_failures(report, witness.T, witness.M, None):
                raise SystemExit(f"witness report for seed {master} breaks an invariant")
            digests[str(master)] = workloads.digest(report)
        print(f"seed {seed}: {batches} witness digests", flush=True)

    with open(workloads.RECORDED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
