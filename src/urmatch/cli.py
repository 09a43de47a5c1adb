"""Command-line interface: graph files, JSON reports and the oracle driver;
the self-test driver is ``urmatch.selftest``.

Exit codes: 0 answer computed (or help printed by ``-h``), 2 input/parse
error or argument usage error, 3 oracle guard exceeded, 4 internal
cross-check disagreement.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
import time

from .decomposition import gallai_edmonds
from .graph_core import Graph, _rows
from .matching import Matching
from .oracle import DEFAULT_MAX_M, DEFAULT_MAX_N, GuardLimitError, oracle_every_ur, oracle_some_ur
from .recognition import InternalCheckError, RecognitionReport, every_ur, some_ur
from .ur_core import is_uniquely_restricted

# largest vertex count a graph file may declare; checked before any allocation
MAX_VERTICES = 10**6


class GraphParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# the text ``render_graph`` writes, edge lines in any order: read with one
# split, and handed to the line scanner on any error for it to report
_CANONICAL = re.compile(r"n ([0-9]{1,7})\n((?:[0-9]{1,7} [0-9]{1,7}\n)*)")


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Header ``n <N>`` followed by one ``<u> <v>`` edge per line; ``#`` starts a
    comment, blank lines are ignored, CRLF is tolerated.  Edges are stored as
    unordered pairs; repeating a pair in either orientation is an error.
    Canonical text takes a bulk path; ``_scan_graph`` is the spec, and it
    reports every error.
    """
    found = _CANONICAL.fullmatch(text)
    if found is not None:
        n = int(found[1])
        ids = list(map(int, found[2].split()))
        if n <= MAX_VERTICES and (not ids or max(ids) < n):
            nbrs: list[list[int]] = [[] for _ in range(n)]
            it = iter(ids)
            for u, v in zip(it, it):
                nbrs[u].append(v)
                nbrs[v].append(u)
            adj = _rows(nbrs)
            if adj is not None:
                return Graph(n, adj)
    return _scan_graph(text)


def _scan_graph(text: str) -> Graph:
    """``parse_graph`` line by line, raising at the first faulty line."""
    n = None
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not (line.isascii() and parts[1].isdigit()):
                raise GraphParseError("malformed header, expected 'n <count>'", line_no)
            try:
                n = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise GraphParseError("vertex count has too many digits", line_no) from None
            if n > MAX_VERTICES:
                raise GraphParseError(f"vertex count {n} exceeds the limit {MAX_VERTICES}", line_no)
            nbrs = [[] for _ in range(n)]
            continue
        # ASCII decimal digits only: int() would also take "1_0", "+3" and "²"
        if len(parts) != 2 or not (line.isascii() and parts[0].isdigit() and parts[1].isdigit()):
            raise GraphParseError(f"malformed edge line {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"vertex with too many digits in edge line {line!r}", line_no) from None
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range in edge ({u}, {v})", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(f"duplicate edge ({key[0]}, {key[1]})", line_no)
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    if n is None:
        raise GraphParseError("missing header 'n <count>'", 1)
    # the pairs are in range, normalized and distinct: only the lists' order is left
    for row in nbrs:
        row.sort()
    return Graph(n, tuple(map(tuple, nbrs)))


def render_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _parse_matching_arg(g: Graph, text: str) -> Matching:
    edges = []
    text = text.strip()
    if text:
        for part in text.split(","):
            bits = [b.strip() for b in part.strip().split("-")]
            # ASCII decimal digits only, as in graph files
            if len(bits) != 2 or not all(b.isascii() and b.isdigit() for b in bits):
                raise ValueError(f"malformed matching edge {part.strip()!r}")
            try:
                edges.append((int(bits[0]), int(bits[1])))
            except ValueError:  # more digits than int() converts
                raise ValueError(f"malformed matching edge {part.strip()!r}") from None
    return Matching.from_edges(g, edges)


def _witness_json(report: RecognitionReport):
    if report.witness is None:
        return None
    return [list(e) for e in sorted(report.witness.edges)]


def _report_json(path: str, g: Graph, report: RecognitionReport, runtime_ms: int,
                 all_failures: bool) -> dict:
    out = {
        "input": path,
        "n": g.n,
        "m": g.m,
        "property": report.property,
        "answer": report.answer,
        "witness": _witness_json(report),
        "failure": report.failure,
        "runtime_ms": runtime_ms,
    }
    if all_failures:
        out["all_failures"] = list(report.failures)
    return out


def _format_witness(report: RecognitionReport) -> str:
    return ",".join(f"{u}-{v}" for u, v in sorted(report.witness.edges))


def _cmd_check(args) -> int:
    # a check leaves next to no cyclic garbage, so the collector's passes
    # over the graph's many rows are pure cost: pause it, and give it back
    # as found
    paused = gc.isenabled()
    gc.disable()
    try:
        return _check(args)
    finally:
        if paused:
            gc.enable()


def _check(args) -> int:
    props = ["some", "every"] if args.property == "both" else [args.property]
    prefix_path = len(args.files) > 1
    for path in args.files:
        g = parse_graph(_read(path))
        # one decomposition shared by both deciders when both are requested;
        # its time counts towards each of them
        t0 = time.perf_counter()
        ge = gallai_edmonds(g) if args.property == "both" else None
        shared_s = time.perf_counter() - t0
        reports = []
        for prop in props:
            t0 = time.perf_counter()
            if prop == "some":
                rep = some_ur(g, ge=ge, all_failures=args.all_failures)
            else:
                rep = every_ur(g, ge=ge, all_failures=args.all_failures)
            ms = int((shared_s + time.perf_counter() - t0) * 1000)
            reports.append((prop, rep, ms))
        if args.json:
            payload = [_report_json(path, g, rep, ms, args.all_failures) for _, rep, ms in reports]
            print(json.dumps(payload[0] if len(payload) == 1 else payload))
        else:
            lead = f"{path}: " if prefix_path else ""
            for prop, rep, _ms in reports:
                tags = "".join(f" {tag}" for tag in rep.failures)
                name = f"{prop} " if args.property == "both" else ""
                print(f"{lead}{name}{str(rep.answer).lower()}{tags}")
                if args.witness and rep.witness is not None and rep.answer:
                    print(f"{lead}witness {_format_witness(rep)}")
    return 0


def _cmd_is_ur(args) -> int:
    g = parse_graph(_read(args.file))
    m = _parse_matching_arg(g, args.matching)
    print(str(is_uniquely_restricted(g, m)).lower())
    return 0


def _cmd_decompose(args) -> int:
    g = parse_graph(_read(args.file))
    ge = gallai_edmonds(g)
    d_verts: list[int] = []
    a_verts: list[int] = []
    c_verts: list[int] = []
    for v, c in enumerate(ge.comp):
        (d_verts if c >= 0 else a_verts if c == -1 else c_verts).append(v)
    k = len(a_verts)
    gb_n, gb_edges = k + ge.counts[0], [(i, k + ci) for i, ci in sorted(ge.attachments)]
    if args.json:
        payload = {
            "input": args.file,
            "n": g.n,
            "m": g.m,
            "d_set": d_verts,
            "a_set": a_verts,
            "c_set": c_verts,
            "d_components": ge.d_members,
            "gb": {
                "n": gb_n,
                "edges": [list(e) for e in gb_edges],
                "a_side": list(range(k)),
                "component_side": list(range(k, gb_n)),
            },
            "contraction_map": [["a", v] for v in a_verts] + [["d", i] for i in range(ge.counts[0])],
        }
        print(json.dumps(payload))
    else:
        print("d_set", " ".join(map(str, d_verts)))
        print("a_set", " ".join(map(str, a_verts)))
        print("c_set", " ".join(map(str, c_verts)))
        for i, comp in enumerate(ge.d_members):
            print(f"d_component {i}:", " ".join(map(str, comp)))
        print(f"gb n={gb_n} edges", " ".join(f"{u}-{v}" for u, v in gb_edges))
    return 0


def _cmd_oracle(args) -> int:
    g = parse_graph(_read(args.file))
    max_n, max_m = (sys.maxsize, sys.maxsize) if args.force else (DEFAULT_MAX_N, DEFAULT_MAX_M)
    fn = oracle_some_ur if args.property == "some" else oracle_every_ur
    print(str(fn(g, max_n=max_n, max_m=max_m)).lower())
    return 0


def _cmd_selftest(args) -> int:
    # the oracle cross-checks load only when this command runs
    from . import selftest

    return selftest.run(args.nmax, args.random, args.seed)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and its command table, each command's
    name to its subparser, built on the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="urmatch",
        description="Decide whether some / every maximum matching of a graph is uniquely restricted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the polynomial deciders on graph files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--property", choices=["some", "every", "both"], required=True)
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--witness", action="store_true")
    p_check.add_argument("--all-failures", action="store_true", dest="all_failures")
    p_check.set_defaults(fn=_cmd_check)

    p_isur = sub.add_parser("is-ur", help="test one explicit matching")
    p_isur.add_argument("file")
    p_isur.add_argument("--matching", required=True, help='edges as "u-v,u-v,..."')
    p_isur.set_defaults(fn=_cmd_is_ur)

    p_dec = sub.add_parser("decompose", help="print the Gallai-Edmonds decomposition")
    p_dec.add_argument("file")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_oracle = sub.add_parser("oracle", help="brute-force reference answer (guarded)")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--property", choices=["some", "every"], required=True)
    p_oracle.add_argument("--force", action="store_true", help="disable the size guard")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_self = sub.add_parser("selftest", help="cross-validate the deciders against the oracle")
    p_self.add_argument("--nmax", type=int, default=5)
    p_self.add_argument("--random", type=int, default=200)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selftest)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    argv is parsed once: when its first word names a command, the rest goes
    straight to that command's subparser, and otherwise (no word, ``-h``, an
    unknown word) the top-level parser runs and prints its usage.  Argument
    usage errors exit with 2 (SystemExit), ``-h`` with 0; the other exit
    codes are returned, as listed in the module docstring.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
    else:
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GuardLimitError as exc:
        print(f"oracle guard: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal cross-check disagreement: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
