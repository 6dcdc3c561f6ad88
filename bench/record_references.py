"""Record the reference exit code and stdout SHA-256 of every operation of
every workload, at both scales and for every probe seed, into
``bench/references.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 bench/record_references.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    references = {}
    for workload in workloads.WORKLOADS:
        seeds = range(workloads.PROBE_SEEDS) if workload == "probe" else [0]
        for scale, seed in ((scale, seed) for scale in workloads.SCALES for seed in seeds):
            for op in workloads.build_ops(workload, seed, scale):
                if op.id in references:
                    continue
                code, text = op.render(op.call())
                references[op.id] = {"exit": code, "sha256": run._digest(text)}
    run.REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(references)} references in {run.REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
