"""Workload grids, seeded job lists and the presentation files they read.

A workload is a list of slots.  Each slot holds the variants one job may
take.  The variants of a slot run the same algebra to the same bounds and
differ only where the cost barely moves: `gb` or `nf` (and which polynomial
`nf` reduces), text or JSON output, the `--threads` hint, or the order of
the two factors of a free product.  A job list takes one variant per slot,
drawn from the seed, and shuffles the jobs.  Every seed therefore asks for
the same amount of work, which keeps run-to-run spread low, while the
program still sees inputs it was not tuned on.  The grid is finite, and
`references.json` holds an output digest for every variant in it.  Each
workload has an odd number of slots, so that the median job time falls on
one slot rather than between two of different cost.

Every presentation here is graded.  Inhomogeneous input has a known
certification defect at the time these references were recorded, and
wrong output must not become a reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path

# name -> (kind, generator names, relation templates over {0}, {1}, ...)
SAMPLES = {
    "x2xy": ("noncommutative", ("x", "y"), ("{0}^2 = {0}*{1}",)),
    "xyzx": ("noncommutative", ("x", "y", "z"), ("{0}^2", "{0}*{1} = {2}*{0}")),
    "x2y2": ("noncommutative", ("x", "y"), ("{0}^2 + {1}^2",)),
    "free3": ("noncommutative", ("x", "y", "z"), ()),
    "comm1": ("commutative", ("x1", "x2"), ("{0}^2 + {1}^2", "{0}^3 + {1}^3")),
}

# Generator names for the factors of a free product, first factor first.
_PRODUCT_LETTERS = ("x", "y", "z", "u", "v", "w")

# Polynomials for `nf`, of degree at most the smallest --max-degree they
# meet.  `--bn` polynomials use only a0..c1, which every B_n has.
NF_POLYS = {
    "bn": ("a0*b0*c0", "a0*b0*c0 + c1*a1*b1", "b1*c1*a1*c0*a0",
           "c1*a1*b1*a0*b0*c0 - 2*a0*b0*c0*c1*a1*b1"),
    "x2xy": ("x*y*x*y*x", "x^3 - x*y*y", "y*x*x*y - 3*y*x*y*y"),
    "xyzx": ("x*y*z*x", "z*x*y - x*y*y", "x*z*z*x*y + 2*y*z"),
    "comm1": ("x1^4", "x1^3*x2 - x2^4", "x1^2*x2^2 + 5*x1"),
}

FORMATS = ("json", "text")
THREADS = (1, 2)


@dataclass(frozen=True)
class Job:
    """One CLI invocation, independent of where its input file lives."""

    command: str
    source: str            # a SAMPLES name, "a*b" for a free product, or "bn:N"
    bounds: tuple          # option strings, e.g. ("--max-degree", "8")
    poly: str | None = None
    fmt: str = "json"
    threads: int = 1

    @property
    def key(self):
        """Reference key: the argv with the input named, not located.
        The thread hint is left out because output must not depend on it."""
        return " ".join(self._argv(self.source))

    def argv(self, inputs):
        if self.source.startswith("bn:"):
            where = self.source
        else:
            where = str(Path(inputs) / f"{input_name(self.source)}.alg")
        return self._argv(where) + ["--threads", str(self.threads)]

    def _argv(self, where):
        head = [self.command]
        head += ["--bn", where[3:]] if where.startswith("bn:") else [where]
        if self.poly is not None:
            head.append(self.poly)
        return head + list(self.bounds) + ["--format", self.fmt]

    @property
    def factors(self):
        return tuple(self.source.split("*")) if "*" in self.source else ()


def input_name(source):
    return source.replace("*", "_star_")


def presentation_text(source):
    """The presentation file for a sample or a free product of two."""
    if "*" not in source:
        kind, gens, rels = SAMPLES[source]
        return _render(source, kind, gens, [r.format(*gens) for r in rels])
    a, b = source.split("*")
    _, ga, ra = SAMPLES[a]
    _, gb, rb = SAMPLES[b]
    names_a = _PRODUCT_LETTERS[:len(ga)]
    names_b = _PRODUCT_LETTERS[len(ga):len(ga) + len(gb)]
    rels = [r.format(*names_a) for r in ra] + [r.format(*names_b) for r in rb]
    return _render(input_name(source), "noncommutative", names_a + names_b, rels)


def _render(name, kind, gens, rels):
    lines = [f"algebra {name};", f"kind {kind};",
             f"generators {' '.join(gens)};",
             f"order deglex {' > '.join(gens)};"]
    if rels:
        lines.append("relations")
        lines += [f"    {r};" for r in rels]
    return "\n".join(lines) + "\n"


def _deg(d):
    return ("--max-degree", str(d))


def _level_deg(level, d):
    return ("--max-level", str(level), "--max-degree", str(d))


def _completion_slot(source, d, polys):
    """`gb` or `nf` on one presentation: both are dominated by completion."""
    slot = [Job("gb", source, _deg(d), fmt=f) for f in FORMATS]
    slot += [Job("nf", source, _deg(d), poly=p, fmt=f)
             for p in polys for f in FORMATS]
    return slot


def _coverage():
    """Small jobs that every workload runs, about 70 ms a pass, so that every
    layer the tracer reports does measured work on every workload; an idle
    layer would otherwise read exactly 0 s in every run."""
    return [[Job("anick", "bn:2", _level_deg(2, 5))],
            [Job("tor", "bn:2", _level_deg(2, 5))],
            [Job("hilbert", "x2y2", _deg(6))],
            [Job("nf", "x2y2", _deg(4), poly="x*y*x + y")],
            [Job("gb", "comm1", ())],
            [Job("hilbert", "comm1", _deg(6))]]


def _complete():
    # B_18, not B_16: the tail percentile lands on the x2xy/xyzx D20 slots,
    # and B_16 costs close enough to them that its pass-to-pass noise moved
    # the tail between runs.
    slots = [_completion_slot(f"bn:{n}", 8, NF_POLYS["bn"])
             for n in (4, 8, 12, 18, 20, 24)]
    slots += [_completion_slot(s, d, NF_POLYS[s])
              for s in ("x2xy", "xyzx") for d in (12, 16, 20)]
    slots.append([Job("gb", "comm1", (), fmt=f) for f in FORMATS])
    slots.append([Job("nf", "comm1", (), poly=p, fmt=f)
                  for p in NF_POLYS["comm1"] for f in FORMATS])
    slots.append([Job("hilbert", "comm1", _deg(d)) for d in (8, 10, 12)])
    return slots + _coverage()


def _series():
    cells = [("x2xy", d) for d in (10, 12, 14, 16)]
    cells += [("xyzx", d) for d in (10, 12, 15)]
    cells += [("x2y2", d) for d in (12, 16, 20)]
    cells += [("free3", 12)] + [(f"bn:{n}", 12) for n in (1, 2, 3, 4)]
    slots = [[Job("hilbert", s, _deg(d))] for s, d in cells]
    # Both factor orders give the same series at about the same cost.
    for a, b, d in (("x2xy", "x2y2", 12), ("xyzx", "x2y2", 12),
                    ("x2xy", "xyzx", 10), ("free3", "x2y2", 10)):
        slots.append([Job("hilbert", f"{a}*{b}", _deg(d)),
                      Job("hilbert", f"{b}*{a}", _deg(d))])
    for s in ("xyzx", "x2xy"):
        for level, d in ((3, 10), (4, 11), (5, 12)):
            slots.append([Job("chains", s, _level_deg(level, d), fmt=f)
                          for f in FORMATS])
    return slots + _coverage()


def _resolve():
    cells = [("x2xy", 3, 10), ("x2xy", 4, 11), ("x2xy", 5, 10),
             ("xyzx", 3, 10), ("xyzx", 4, 12),
             ("x2y2", 3, 10), ("x2y2", 3, 12)]
    slots = [[Job("anick", s, _level_deg(level, d))] for s, level, d in cells]
    slots += [[Job("anick", f"bn:{n}", ())] for n in (1, 2, 3, 4)]
    tor_cells = [("x2xy", 3, 10), ("x2xy", 3, 14), ("x2xy", 4, 12),
                 ("x2y2", 3, 12)]
    slots += [[Job("tor", s, _level_deg(level, d), fmt=f) for f in FORMATS]
              for s, level, d in tor_cells]
    slots += [[Job("tor", f"bn:{n}", (), fmt=f) for f in FORMATS]
              for n in (2, 3)]
    return slots + _coverage()


WORKLOADS = {"complete": _complete, "series": _series, "resolve": _resolve}


def grid(workload):
    """Every variant the workload can draw, each once, thread hint 1."""
    return [job for slot in WORKLOADS[workload]() for job in slot]


def job_list(workload, seed):
    """The seeded job list: one variant per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for slot in WORKLOADS[workload]():
        jobs.append(replace(rng.choice(slot), threads=rng.choice(THREADS)))
    rng.shuffle(jobs)
    return jobs


def job_list_digest(jobs):
    text = "\n".join(f"{j.key} --threads {j.threads}" for j in jobs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_inputs(jobs, directory):
    """Write the presentation file of every job that reads one."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sources = sorted({j.source for j in jobs if not j.source.startswith("bn:")})
    for source in sources:
        (directory / f"{input_name(source)}.alg").write_text(
            presentation_text(source), encoding="utf-8")
