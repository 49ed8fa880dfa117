#!/usr/bin/env python3
"""Write ``expected.json``: the output digest of every job that does not depend on the seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the digests in the repository come from the seed commit):

    python3 bench/record_expected.py

It refuses to record a job that exits non-zero or fails its known-answer check.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT, digest, execute

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs mstdkit on the path)


def main() -> int:
    expected = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        for build, _ in WORKLOADS.values():
            for job in build(0, Path(workdir)):
                if job.seeded:
                    continue
                rc, text, _ = execute(job)
                if rc != 0:
                    raise SystemExit(f"{job.name}: exit code {rc}")
                job.check(text)
                expected[job.name] = digest(text)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(expected)} digests written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
