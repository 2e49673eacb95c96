"""Record the sha256 of every seed-independent output into references.json.

Runs each reference job once through `leobeams.cli.main` and keeps the digest
the manifest lists for every output except the seed-dependent ones. Run it
from the root of a checkout only when outputs are meant to change, and say so
in CHANGES.md:

    PYTHONPATH=src python3 perfbench/make_references.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import invoke, manifest_outputs  # noqa: E402


def main() -> int:
    from leobeams.cli import main as cli_main

    refs = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for i, job in enumerate(workloads.reference_jobs()):
            out = os.path.join(tmp, str(i))
            rc, seconds, err = invoke(cli_main, list(job.argv) + ["--out", out])
            if rc != 0:
                print(f"{' '.join(job.argv)}: exit {rc}\n{err}", file=sys.stderr)
                return 1
            refs[job.tag] = {name: digest for name, digest
                             in sorted(manifest_outputs(out).items())
                             if name not in job.seeded}
            print(f"{job.tag}: {seconds:.2f} s, {len(refs[job.tag])} outputs")
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
