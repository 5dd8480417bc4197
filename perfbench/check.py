"""Output checks against the references recorded in references.json.

A job fails on a nonzero exit code, on stdout whose SHA-256 differs from the
reference, or on a false `ok`/`agree` flag.  `anick` output is digested with
`verification.exactness` removed: that entry must instead be `ok` and
certify at least the reference degree, so that raising the certified degree
is allowed.  Each free product's Hilbert series must also equal the series
the free-product formula gives from its factors' recorded series, a route
that shares no code with the program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def digest(job, out):
    """SHA-256 of stdout, and the exactness entry taken out of `anick` JSON."""
    exactness = None
    if job.command == "anick":
        data = json.loads(out)
        exactness = data["verification"].pop("exactness")
        out = json.dumps(data, indent=2) + "\n"
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), exactness


def series_inverse(s):
    """Inverse of an integer power series with constant term 1."""
    out = [1] + [0] * (len(s) - 1)
    for k in range(1, len(s)):
        out[k] = -sum(s[i] * out[k - i] for i in range(1, k + 1))
    return out


def free_product_series(a, b):
    """1/H = 1/H_A + 1/H_B - 1."""
    q = [x + y for x, y in zip(series_inverse(a), series_inverse(b))]
    q[0] -= 1
    return series_inverse(q)


def failure(job, rc, out, refs):
    """Why the job's result is wrong, or None when it is right."""
    ref = refs["jobs"].get(job.key)
    if ref is None:
        return "no reference output for this job"
    if rc != 0:
        return f"exit code {rc}"
    try:
        sha, exactness = digest(job, out)
        data = json.loads(out) if job.fmt == "json" else None
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if sha != ref["sha256"]:
        return "output differs from the reference"
    if exactness is not None:
        if not (data["verification"]["ok"] and exactness["ok"]):
            return "verification is not ok"
        if exactness["degree"] < ref["exactness_degree"]:
            return (f"exactness certified to degree {exactness['degree']}, "
                    f"below the reference {ref['exactness_degree']}")
    if job.command == "hilbert" and data["chain_inverse"] is not None:
        if data["agree"] is not True:
            return "normal-word and chain series disagree"
    if job.factors:
        degree = data["max_degree"]
        a, b = (refs["factor_series"][f"{f}:{degree}"] for f in job.factors)
        if data["normal_words"] != free_product_series(a, b):
            return "series differs from the free product of its factors"
    return None


def _first_digit_changed(out):
    for i, ch in enumerate(out):
        if ch.isdigit():
            return out[:i] + ("1" if ch != "1" else "2") + out[i + 1:]
    raise ValueError("output has no digit to corrupt")


def self_check(samples, refs):
    """Feed corrupted copies of passing outputs to the checker.

    samples holds (job, stdout) pairs that passed.  Returns a list of the
    corruptions the checker failed to notice; empty means it works.
    """
    missed = []
    for job, out in samples:
        corrupted = {"exit code 1": (1, out),
                     "changed digit": (0, _first_digit_changed(out))}
        if job.command == "anick":
            lower = json.loads(out)
            lower["verification"]["exactness"]["degree"] -= 1
            corrupted["lower exactness degree"] = (
                0, json.dumps(lower, indent=2) + "\n")
        for what, (rc, text) in corrupted.items():
            if failure(job, rc, text, refs) is None:
                missed.append(f"{what} in {job.key}")
    return missed
