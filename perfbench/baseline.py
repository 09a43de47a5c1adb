"""Traced decide times at the baseline sizes of ROADMAP.md's open-items table.

Run from the repository root:

    python3 perfbench/baseline.py

Decides G(2000, 3000) for three seeds, the odd cycle C_4001 and the path
P_4000 once each with ``urmatch check FILE --property both --json``,
in-process and traced, and prints one row per graph: the wall time of the
check and of its main stages.  Times are raw wall times, not scaled to the
reference speed as ``run.py`` does; a single run on a shared host can be
off by tens of percent.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import time

import gen
import spans
from run import OUT, SRC, render

SEEDS = (0, 1, 2)
COLUMNS = (
    ("decomposition.gallai_edmonds", "s"),
    ("recognition.some_ur", "s"),
    ("recognition.every_ur", "s"),
    ("matching.unique_perfect_matching", "calls"),
    ("matching.unique_perfect_matching", "s"),
    ("matching.edge_in_some_maximum_matching", "calls"),
    ("matching.edge_in_some_maximum_matching", "s"),
)


def instances() -> list[gen.Instance]:
    out = [gen.Instance(f"G(2000,3000) seed {s}", *gen.gnm(2000, 3000, random.Random(f"baseline:{s}")))
           for s in SEEDS]
    out.append(gen.Instance("C_4001", *gen.cycle(4001)))
    out.append(gen.Instance("P_4000", *gen.path(4000)))
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    import urmatch.cli as cli

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="baseline-", dir=OUT)
    try:
        insts = instances()
        paths = []
        for i, inst in enumerate(insts):
            paths.append(f"{work}/g{i}.txt")
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(render(inst))
        tracer = spans.Tracer()
        rows = []
        with tracer:
            for i, path in enumerate(paths):
                tracer.graph_id = i
                out = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = tracer.call(spans.CHECK, cli.main,
                                       ["check", path, "--property", "both", "--json"])
                rows.append((time.perf_counter() - t0, code, json.loads(out.getvalue())))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    head = ["graph", "check s"] + [f"{name.split('.')[-1]} {kind}" for name, kind in COLUMNS]
    print("| " + " | ".join(head + ["some", "every"]) + " |")
    print("|" + "---|" * (len(head) + 2))
    for i, (inst, (wall, code, reports)) in enumerate(zip(insts, rows)):
        calls, total, _ = tracer.totals(graph=i)
        cells = [inst.label, f"{wall:.2f}"]
        for name, kind in COLUMNS:
            cells.append(f"{calls[name]}" if kind == "calls" else f"{total[name]:.2f}")
        for r in reports:
            cells.append(f"{str(r['answer']).lower()} {r['failure'] or ''}".strip())
        print("| " + " | ".join(cells) + " |")
        if code != 0:
            print(f"check exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
