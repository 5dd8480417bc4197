"""Record references.json: the output digest of every job in every grid.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

Refuses to record when an input is not graded or when an output fails the
checks that do not depend on the reference (exit code, `ok`, `agree`, the
free-product series).
"""

from __future__ import annotations

import json
import sys

from check import REFERENCES, digest, failure
from run import SRC, WORK, run_job
from workloads import WORKLOADS, Job, grid, presentation_text, write_inputs


def main():
    sys.path.insert(0, str(SRC))
    from anick import cli
    from anick.presentation import make_bn, parse_presentation

    inputs = WORK / "record"
    jobs = sorted({job for w in WORKLOADS for job in grid(w)},
                  key=lambda j: j.key)
    factor_jobs = sorted({Job("hilbert", f, job.bounds)
                          for job in jobs for f in job.factors},
                         key=lambda j: j.key)
    write_inputs(jobs + factor_jobs, inputs)
    for source in {j.source for j in jobs}:
        pres = (make_bn(int(source[3:])) if source.startswith("bn:")
                else parse_presentation(presentation_text(source)))
        pres.require_graded()

    refs = {"jobs": {}, "factor_series": {}}
    for job in factor_jobs:
        _, rc, out, err = run_job(cli, job.argv(inputs))
        if rc != 0:
            raise SystemExit(f"{job.key}: exit code {rc}: {err}")
        data = json.loads(out)
        refs["factor_series"][f"{job.source}:{data['max_degree']}"] = data["normal_words"]
    outputs = {}
    for job in jobs:
        _, rc, out, err = run_job(cli, job.argv(inputs))
        if rc != 0:
            raise SystemExit(f"{job.key}: exit code {rc}: {err}")
        sha, exactness = digest(job, out)
        refs["jobs"][job.key] = {"sha256": sha}
        if exactness is not None:
            refs["jobs"][job.key]["exactness_degree"] = exactness["degree"]
        outputs[job] = out
        print(f"recorded {job.key}", flush=True)
    for job, out in outputs.items():
        why = failure(job, 0, out, refs)
        if why is not None:
            raise SystemExit(f"{job.key}: {why}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {len(refs['jobs'])} references to {REFERENCES}")


if __name__ == "__main__":
    main()
