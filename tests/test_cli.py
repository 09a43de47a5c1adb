import argparse
import ast
import contextlib
import gc
import io
import json
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ge_reference import contract_by_sets, edmonds_labels
from strategies import giant, graphs, sparse_graph_nm, two_c5_apex
from urmatch import cli, decomposition, matching, recognition, selftest
from urmatch.cli import GraphParseError, main, parse_graph, render_graph
from urmatch.decomposition import gallai_edmonds
from urmatch.families import bowtie_graph, cycle_graph, path_graph, petersen_graph, star_graph
from urmatch.graph_core import Graph
from urmatch.matching import _EVEN, _max_match_array


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


C6_TEXT = "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
P3_TEXT = "# tiny path\nn 3\n0 1\n1 2\n"


def test_parse_graph_round_trip():
    g = parse_graph(C6_TEXT)
    assert g.n == 6 and g.m == 6
    assert parse_graph(render_graph(g)).edges == g.edges


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=10))
def test_render_parse_identity(g):
    h = parse_graph(render_graph(g))
    assert h.n == g.n and h.edges == g.edges
    # the parser builds the adjacency itself: it must equal from_edges'
    # whatever the order and orientation of the lines
    lines = [f"{v} {u}" for u, v in sorted(g.edges, reverse=True)]
    assert parse_graph("\n".join([f"n {g.n}", *lines])) == g


def test_parse_graph_tolerates_comments_and_crlf():
    g = parse_graph("n 4\r\n# c\r\n\r\n0 1  # trailing\r\n2 3\r\n")
    assert g.edges == frozenset({(0, 1), (2, 3)})


@pytest.mark.parametrize(
    "text,line_no,frag",
    [
        ("0 1\n", 1, "header"),
        ("n x\n", 1, "header"),
        ("n 3\n0 3\n", 2, "out of range"),
        ("n 3\n0 1\n1 0\n", 3, "duplicate"),
        ("n 3\n1 1\n", 2, "loop"),
        ("n 3\n0 1 2\n", 2, "malformed edge"),
        # ASCII decimal digits only, in the header and in edge lines alike
        ("n 1_2\n", 1, "header"),
        ("n +3\n", 1, "header"),
        ("n \u00b2\n", 1, "header"),
        ("n \uff13\n", 1, "header"),
        ("n 12\n1_0 11\n", 2, "malformed edge"),
        ("n 12\n+3 4\n", 2, "malformed edge"),
        ("n 12\n3 -4\n", 2, "malformed edge"),
        ("n 12\n\u0661 2\n", 2, "malformed edge"),
        ("n 12\n0 \u00b2\n", 2, "malformed edge"),
        # more digits than int() converts (or out of range where it converts any)
        ("n " + "1" * 5000 + "\n", 1, ""),
        ("n 3\n" + "1" * 5000 + " 1\n", 2, ""),
        ("", 1, "missing header"),
    ],
)
def test_parse_graph_errors(text, line_no, frag):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no
    assert frag in str(exc.value)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return str(exc), exc.line_no


@st.composite
def canonical_texts(draw):
    """Texts in the format ``render_graph`` writes, edge lines in any order,
    some with a repeated pair, a loop, an out-of-range id or a padded id."""
    n = draw(st.one_of(st.integers(0, 8), st.just(cli.MAX_VERTICES + 1)))
    ids = st.integers(0, min(n, 8) + 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=12))
    if pairs and draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs))[::-1])
    width = draw(st.sampled_from([1, 3]))
    return f"n {n}\n" + "".join(f"{u:0{width}} {v:0{width}}\n" for u, v in pairs)


@settings(deadline=None, max_examples=300)
@given(canonical_texts())
def test_bulk_path_agrees_with_the_line_scanner(text):
    assert cli._CANONICAL.fullmatch(text)
    assert _parse_outcome(parse_graph, text) == _parse_outcome(cli._scan_graph, text)


@settings(deadline=None, max_examples=50)
@given(graphs(max_n=10))
def test_rendered_text_takes_the_bulk_path(g):
    assert cli._CANONICAL.fullmatch(render_graph(g))


@pytest.mark.parametrize(
    "text,line_no,frag",
    [
        # a repeated pair is found once the rows are sorted; it is still
        # reported before a fault on a later line
        ("n 3\n0 1\n1 0\n0 5\n", 3, "duplicate edge (0, 1)"),
        ("n 3\n0 1\n# c\n\n1 0\n2 2\n", 5, "duplicate edge (0, 1)"),
        ("n 4\n0 1\n2 3\n3 2\n0 1\n", 4, "duplicate edge (2, 3)"),
        ("n 4\n0 1\n2 3\n1 x\n0 1\n", 4, "malformed edge"),
    ],
)
def test_first_fault_is_reported(text, line_no, frag):
    test_parse_graph_errors(text, line_no, frag)


def test_parse_graph_holds_no_edge_set():
    # P_10^5 as an adjacency holds about 11.4 MiB; an edge set beside it, 20.8
    text = render_graph(path_graph(10**5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = parse_graph(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.n == 10**5 and g.m == 10**5 - 1
    assert held < 14 * 2**20


@pytest.mark.parametrize("enabled", [True, False])
def test_main_gives_the_collector_back(enabled, tmp_path, capsys, monkeypatch):
    good = _write(tmp_path, "p3.g", P3_TEXT)
    bad = _write(tmp_path, "bad.g", "n 3\n0 9\n")
    states = []
    parse, run = cli.parse_graph, selftest.run
    monkeypatch.setattr(cli, "parse_graph", lambda text: states.append(gc.isenabled()) or parse(text))
    monkeypatch.setattr(selftest, "run", lambda *a: states.append(gc.isenabled()) or run(*a))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in (
            (["check", good, "--property", "both"], 0),
            (["check", bad, "--property", "some"], 2),
            (["selftest", "--nmax", "3", "--random", "0"], 0),
        ):
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # check runs with the collector paused, selftest in the caller's state
    assert states == [False, False, enabled]
    capsys.readouterr()


def test_check_text_output(tmp_path, capsys):
    path = _write(tmp_path, "c6.g", C6_TEXT)
    assert main(["check", path, "--property", "some"]) == 0
    assert capsys.readouterr().out == "false c_component_pm_not_unique\n"
    assert main(["check", path, "--property", "every"]) == 0
    assert capsys.readouterr().out == "false c_component_pm_not_unique\n"


def test_check_witness_output(tmp_path, capsys):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main(["check", path, "--property", "some", "--witness"]) == 0
    assert capsys.readouterr().out == "true\nwitness 0-1\n"


def test_check_both_order(tmp_path, capsys):
    path = _write(tmp_path, "c6.g", C6_TEXT)
    assert main(["check", path, "--property", "both"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("some ") and lines[1].startswith("every ")


def test_check_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main(["check", path, "--property", "some", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "input", "n", "m", "property", "answer", "witness", "failure", "runtime_ms",
    ]
    assert payload["n"] == 3 and payload["m"] == 2
    assert payload["property"] == "some_ur"
    assert payload["answer"] is True
    assert payload["witness"] == [[0, 1]]
    assert payload["failure"] is None
    assert isinstance(payload["runtime_ms"], int)


def test_check_json_both_is_array(tmp_path, capsys):
    path = _write(tmp_path, "c6.g", C6_TEXT)
    assert main(["check", path, "--property", "both", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["property"] for p in payload] == ["some_ur", "every_ur"]
    assert all(p["answer"] is False for p in payload)


def test_check_all_failures_key(tmp_path, capsys):
    path = _write(tmp_path, "c6.g", C6_TEXT)
    assert main(["check", path, "--property", "some", "--json", "--all-failures"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[-1] == "all_failures"
    assert payload["all_failures"] == ["c_component_pm_not_unique"]


K4_K5_TEXT = "n 9\n" + "".join(f"{u} {v}\n" for vs in (range(4), range(4, 9)) for u in vs for v in vs if u < v)


def test_check_text_prints_every_failure(tmp_path, capsys):
    # K4 is a C component with three perfect matchings and K5 a D
    # component whose blocks are no odd cycles; the text lists the tags of
    # the JSON's all_failures, in order, and only the first without it
    path = _write(tmp_path, "k4k5.g", K4_K5_TEXT)
    assert main(["check", path, "--property", "every", "--all-failures"]) == 0
    assert capsys.readouterr().out == "false c_component_pm_not_unique d_component_blocks_not_odd_cycles\n"
    assert main(["check", path, "--property", "both", "--all-failures"]) == 0
    assert capsys.readouterr().out == ("some false c_component_pm_not_unique d_component_no_unique_pm_vertex\n"
                                       "every false c_component_pm_not_unique d_component_blocks_not_odd_cycles\n")
    assert main(["check", path, "--property", "every", "--all-failures", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_failures"] == [
        "c_component_pm_not_unique", "d_component_blocks_not_odd_cycles"]
    assert main(["check", path, "--property", "every"]) == 0
    assert capsys.readouterr().out == "false c_component_pm_not_unique\n"


def test_check_json_byte_stable_modulo_runtime(tmp_path, capsys):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    outs = []
    for _ in range(2):
        assert main(["check", path, "--property", "both", "--json"]) == 0
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        for rep in payload:
            rep["runtime_ms"] = 0
        outs.append(json.dumps(payload))
    assert outs[0] == outs[1]


def test_check_multiple_files_prefixed(tmp_path, capsys):
    p1 = _write(tmp_path, "a.g", P3_TEXT)
    p2 = _write(tmp_path, "b.g", C6_TEXT)
    assert main(["check", p1, p2, "--property", "some"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(p1 + ": ") and lines[1].startswith(p2 + ": ")


def test_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.g", "n 3\n0 9\n")
    assert main(["check", path, "--property", "some"]) == 2
    assert "line 2" in capsys.readouterr().err
    for text, line_no in (("n \u00b2\n", 1), ("n 12\n1_0 11\n", 2), ("n 12\n+3 4\n", 2)):
        path = _write(tmp_path, "digits.g", text)
        assert main(["check", path, "--property", "some"]) == 2
        assert f"line {line_no}" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.g"), "--property", "some"]) == 2
    capsys.readouterr()


def test_huge_header_rejected_before_allocation(tmp_path, capsys):
    path = _write(tmp_path, "huge.g", "n 1000000000\n0 1\n")
    assert main(["check", path, "--property", "both"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    with pytest.raises(GraphParseError):
        parse_graph(f"n {cli.MAX_VERTICES + 1}\n")


def test_both_runtime_includes_shared_decomposition(tmp_path, capsys, monkeypatch):
    real = cli.gallai_edmonds

    def slow_gallai_edmonds(g):
        time.sleep(0.05)
        return real(g)

    monkeypatch.setattr(cli, "gallai_edmonds", slow_gallai_edmonds)
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main(["check", path, "--property", "both", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["property"] for p in payload] == ["some_ur", "every_ur"]
    assert all(p["runtime_ms"] >= 50 for p in payload)


def test_is_ur_subcommand(tmp_path, capsys):
    path = _write(tmp_path, "c6.g", C6_TEXT)
    assert main(["is-ur", path, "--matching", "0-1,3-4"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["is-ur", path, "--matching", "0-1,2-3,4-5"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["is-ur", path, "--matching", "0-2"]) == 2  # not an edge
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1_0-1", "+0-1", "\u0661-0", "0-\u00b2", "0-1-2", "0-", "9" * 5000 + "-0"])
def test_is_ur_rejects_malformed_matching_edges(tmp_path, capsys, text):
    # int() would read these as (10, 1), (0, 1) and (1, 0): all edges here
    path = _write(tmp_path, "g.g", "n 11\n0 1\n1 10\n")
    assert main(["is-ur", path, "--matching", text]) == 2
    assert "malformed matching edge" in capsys.readouterr().err
    assert main(["is-ur", path, "--matching", " 1 - 10 "]) == 0
    assert capsys.readouterr().out == "true\n"


def test_decompose_json(tmp_path, capsys):
    path = _write(tmp_path, "s.g", "n 4\n0 1\n0 2\n0 3\n")
    assert main(["decompose", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_set"] == [1, 2, 3]
    assert payload["a_set"] == [0]
    assert payload["c_set"] == []
    assert payload["gb"]["n"] == 4
    assert payload["contraction_map"][0] == ["a", 0]


def _decompose_outputs(g, path):
    """The JSON and the text ``urmatch decompose`` should print for g, read
    off ``contract_by_sets`` on the D of the reference labelling."""
    label = edmonds_labels(g.adj, _max_match_array(g))
    ref = contract_by_sets(g, frozenset(v for v in range(g.n) if label[v] == _EVEN))
    d_set = sorted(v for members in ref["d_members"] for v in members)
    c_set = sorted(v for members in ref["c_members"] for v in members)
    a_list, gb, k = ref["a_list"], ref["gb_graph"], len(ref["a_list"])
    payload = {
        "input": path,
        "n": g.n,
        "m": g.m,
        "d_set": d_set,
        "a_set": a_list,
        "c_set": c_set,
        "d_components": ref["d_members"],
        "gb": {
            "n": gb.n,
            "edges": [list(e) for e in gb.sorted_edges()],
            "a_side": list(range(k)),
            "component_side": list(range(k, gb.n)),
        },
        "contraction_map": [["a", v] for v in a_list] + [["d", i] for i in range(ref["counts"][0])],
    }
    lines = [f"{name} {' '.join(map(str, verts))}"
             for name, verts in (("d_set", d_set), ("a_set", a_list), ("c_set", c_set))]
    lines += [f"d_component {i}: {' '.join(map(str, members))}" for i, members in enumerate(ref["d_members"])]
    lines.append(f"gb n={gb.n} edges {' '.join(f'{u}-{v}' for u, v in gb.sorted_edges())}")
    return json.dumps(payload) + "\n", "\n".join(lines) + "\n"


def _check_decompose_outputs(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.g")
        Path(path).write_text(render_graph(g), encoding="utf-8")
        got = []
        for flags in (["--json"], []):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["decompose", path, *flags]) == 0
            got.append(out.getvalue())
        assert tuple(got) == _decompose_outputs(g, path)


def test_decompose_outputs_equal_the_contraction_by_sets():
    rng = random.Random(2000)
    # A = {0}, whose attachment keys come out as (0, 1), (0, 2), (0, 0):
    # gb's edges print in order only once the keys are sorted
    unsorted = Graph.from_edges(8, [(0, 2), (0, 3), (0, 6), (1, 6), (1, 7), (6, 7)])
    assert list(gallai_edmonds(unsorted).attachments) == [(0, 1), (0, 2), (0, 0)]
    for g in (star_graph(4), bowtie_graph(), petersen_graph(), cycle_graph(7), two_c5_apex(),
              Graph.from_edges(0, []), Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)]), unsorted,
              giant(sparse_graph_nm(2000, 3000, rng))):
        _check_decompose_outputs(g)


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=10))
def test_decompose_outputs_equal_the_contraction_by_sets_on_small_graphs(g):
    _check_decompose_outputs(g)


def test_oracle_guard_and_force(tmp_path, capsys):
    g = cycle_graph(18)
    path = _write(tmp_path, "c18.g", render_graph(g))
    assert main(["oracle", path, "--property", "some"]) == 3
    capsys.readouterr()
    assert main(["oracle", path, "--property", "some", "--force"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_oracle_force_refuses_a_recursion_past_the_limit(tmp_path):
    # P_1500 under --force: the enumeration would recurse once per edge,
    # past the interpreter's recursion limit, so the guard refuses it
    # before recursing: exit 3, one line, no traceback
    path = _write(tmp_path, "p1500.g", render_graph(path_graph(1500)))
    for prop in ("some", "every"):
        proc = subprocess.run([sys.executable, "-m", "urmatch.cli", "oracle", path, "--property", prop, "--force"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("oracle guard: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_oracle_matches_checker(tmp_path, capsys):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main(["oracle", path, "--property", "every"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_selftest_clean(capsys):
    assert main(["selftest", "--nmax", "4", "--random", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out


def test_selftest_detects_disagreement(capsys, monkeypatch):
    # sabotage the oracle so the deciders no longer agree with it
    monkeypatch.setattr(selftest, "oracle_some_ur", lambda g, **kw: False)
    assert main(["selftest", "--nmax", "2", "--random", "0"]) == 4
    capsys.readouterr()


def test_selftest_rejects_large_nmax(capsys):
    assert main(["selftest", "--nmax", "7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--nmax", "-3"], ["--random", "-5"]])
def test_selftest_rejects_negative_counts(argv, capsys):
    assert main(["selftest", *argv]) == 2
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err and "disagreements" not in captured.out


def test_selftest_counts_block_test_disagreement(capsys, monkeypatch):
    # K5 is factor-critical but its one block is not an odd cycle
    monkeypatch.setattr(selftest, "_odd_cycle_blocks", lambda adj, keep: True)
    assert main(["selftest", "--nmax", "5", "--random", "0"]) == 4
    captured = capsys.readouterr()
    assert "block test (_odd_cycle_blocks = True) disagrees" in captured.err
    assert "component [0, 1, 2, 3, 4]" in captured.err
    assert "0 disagreements" not in captured.out


def test_selftest_block_test_masks_one_component():
    # apex 0 on the triangle 1-2-3 and on the 5-cycle 4..8 with the chord
    # 4-6: two D components, the triangle an odd cycle and the other one
    # block that is not, so a mask of all of D would report the triangle
    g = Graph.from_edges(9, [(0, 1), (0, 4), (1, 2), (2, 3), (1, 3),
                             (4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (4, 6)])
    assert gallai_edmonds(g).d_members == [[1, 2, 3], [4, 5, 6, 7, 8]]
    assert selftest._instance(g, 12, 64) == []


def test_selftest_matches_each_graph_once(monkeypatch):
    # the decomposition's matching serves the verifier, the witness check
    # and the D - h tests: one matcher run per graph, whether some_ur says
    # yes (the triangle and the chorded 5-cycle on an apex) or no (K_{2,3})
    masked = Graph.from_edges(9, [(0, 1), (0, 4), (1, 2), (2, 3), (1, 3),
                                  (4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (4, 6)])
    k23 = Graph.from_edges(5, [(a, d) for a in (0, 1) for d in (2, 3, 4)])
    calls = []
    real = matching._matcher
    for module in (matching, decomposition):
        monkeypatch.setattr(module, "_matcher", lambda g: calls.append(g) or real(g))
    for g, some in ((masked, True), (k23, False)):
        ge = gallai_edmonds(g)
        assert len(ge.d_members) > 1 and recognition.some_ur(g, ge=ge).answer is some
        calls.clear()
        assert selftest._instance(g, 12, 64) == []
        assert calls == [g]


def test_selftest_counts_uniqueness_disagreement(capsys, monkeypatch):
    # K4 = K5 minus a vertex has three perfect matchings
    monkeypatch.setattr(selftest, "_unique_minus", lambda g, ge, ci, h: True)
    assert main(["selftest", "--nmax", "5", "--random", "0"]) == 4
    captured = capsys.readouterr()
    assert "uniqueness test (unique = True) disagrees with the oracle on [1, 2, 3, 4]" in captured.err
    assert ", 0 disagreements" not in captured.out


def test_selftest_counts_c_test_disagreement(capsys, monkeypatch):
    # C4 is one C component with two perfect matchings, and the edge 0-1
    # one with a single one: the C test must name the first and not the
    # second
    for answer, n, want in ((None, 4, "(unique = True) disagrees with the oracle on [0, 1, 2, 3]"),
                            (0, 2, "(unique = False) disagrees with the oracle on [0, 1]")):
        monkeypatch.setattr(selftest, "_c_failure", lambda g, ge, a=answer: a if ge.c_members else None)
        assert main(["selftest", "--nmax", str(n), "--random", "0"]) == 4
        assert f"uniqueness test {want}" in capsys.readouterr().err


def test_selftest_counts_witness_edge_outside_allowed_edges(capsys, monkeypatch):
    # in the path 0 - 1 - 2, A = {1} and the witness matches 1 into D at 0
    monkeypatch.setattr(selftest, "allowed_edges", lambda g, ge: frozenset())
    assert main(["selftest", "--nmax", "3", "--random", "0"]) == 4
    captured = capsys.readouterr()
    assert "some_ur witness edge (0, 1) is not on a gb edge of allowed_edges" in captured.err
    assert ", 0 disagreements" not in captured.out


def test_parser_is_built_once(tmp_path, capsys):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main(["check", path, "--property", "some"]) == 0
    built = cli._build_parser()
    assert main(["check", path, "--property", "every"]) == 0
    assert cli._build_parser() is built
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    # the command table main dispatches on comes out of the same cached
    # call, and its entries are the top-level parser's own subparsers, so
    # that -h and the dispatch cannot drift apart
    parser, commands = built
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == list(action.choices) == ["check", "is-ur", "decompose", "oracle", "selftest"]
    assert all(commands[name] is action.choices[name] for name in commands)


@pytest.fixture
def parse_calls(monkeypatch):
    """The number of ``parse_known_args`` calls made so far, in a list."""
    calls = [0]
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["check", "{f}", "--property", "both", "--json"],
    ["is-ur", "{f}", "--matching", "0-1"],
    ["decompose", "{f}"],
    ["oracle", "{f}", "--property", "some"],
    ["selftest", "--nmax", "0", "--random", "0"],
])
def test_main_parses_argv_once(argv, tmp_path, parse_calls):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    assert main([a.format(f=path) for a in argv]) == 0
    assert parse_calls[0] == 1


def test_main_reads_sys_argv_by_default(tmp_path, capsys, monkeypatch, parse_calls):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    monkeypatch.setattr(sys, "argv", ["urmatch", "check", path, "--property", "some"])
    assert main() == 0
    assert capsys.readouterr().out == "true\n"
    assert parse_calls[0] == 1


@pytest.mark.parametrize("argv", [
    ["check", "f", "--property=both"],
    ["check", "f", "--prop", "both"],
    ["check", "--property", "some", "f"],
    ["check", "f", "g", "--property", "every"],
    ["check", "f", "--property", "both", "--witness", "--all-failures"],
    ["is-ur", "f", "--matching", "0-1"],
    ["decompose", "f", "--json"],
    ["oracle", "f", "--property", "every", "--force"],
    ["selftest"],
    ["selftest", "--nmax", "2", "--random", "3", "--seed", "5"],
])
def test_dispatch_builds_the_full_parsers_arguments(argv):
    parser, commands = cli._build_parser()
    full = vars(parser.parse_args(argv))
    assert full.pop("command") == argv[0]
    assert vars(commands[argv[0]].parse_args(argv[1:])) == full


@pytest.mark.parametrize("argv, code, text", [
    ([], 2, "usage: urmatch [-h] {check,"),
    (["nope"], 2, "usage: urmatch [-h] {check,"),
    (["-h"], 0, "usage: urmatch [-h] {check,"),
    (["check", "-h"], 0, "usage: urmatch check [-h]"),
    (["check"], 2, "urmatch check: error: the following arguments are required"),
    (["check", "{f}", "--property", "x"], 2, "urmatch check: error: argument --property"),
    (["check", "{f}", "--property", "some", "--bogus"], 2,
     "urmatch check: error: unrecognized arguments: --bogus"),
])
def test_usage_errors_and_help_exit(argv, code, text, tmp_path, capsys):
    # help goes to stdout with 0, a usage error to stderr with 2
    path = _write(tmp_path, "p3.g", P3_TEXT)
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=path) for a in argv])
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert text in (captured.out if code == 0 else captured.err)


def test_selftest_counts_decomposition_rejection(capsys, monkeypatch):
    # reject the decomposition of each of the 8 graphs on 3 vertices
    monkeypatch.setattr(selftest, "verify_gallai_edmonds", lambda g, ge: g.n != 3)
    assert main(["selftest", "--nmax", "3", "--random", "0"]) == 4
    captured = capsys.readouterr()
    assert "gallai_edmonds" in captured.err
    assert "selftest: 12 exhaustive + 0 random instances, 8 disagreements" in captured.out


def test_no_assert_in_library():
    # invariants raise InternalCheckError: an assert vanishes under python -O
    src = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    """The names a module imports and never reads; ``__all__`` entries count
    as read."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return imported - used


def test_no_unused_import_in_library():
    # the benchmark's tracer test reads recognition.unique_perfect_matching
    allowed = {"recognition.py:unique_perfect_matching"}
    src = Path(cli.__file__).parent
    found = [
        f"{path.name}:{name}"
        for path in sorted(src.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert sorted(set(found) - allowed) == []


def test_one_uniqueness_kernel_in_library():
    # the alternating-cycle kernel is the library's only uniqueness test:
    # no module defines or imports the Kotzig peel's names, which live on
    # in tests/peel_reference.py, so no fallback to the peel creeps back;
    # nor ur_core's reach masks, a second encoding of D(M)'s arc rule
    retired = {"_peel", "_matched_bridges", "_alternating_cycle", "_reach"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in retired:
                found.append(f"{path.name}:{node.lineno}:def {node.name}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}:import {a.name}" for a in node.names if a.name in retired]
    assert found == []
    # every library call of the kernel takes (adj, match, live) and sits in
    # one of the three uniqueness tests, so that no per-component fork of
    # the C test creeps back
    calls = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_m_alternating_cycle":
                    calls.append((path.name, getattr(stmt, "name", None), len(node.args), len(node.keywords)))
    assert sorted(calls) == [("matching.py", "_unforced_cycle", 3, 0),
                             ("recognition.py", "_unique_minus", 3, 0),
                             ("ur_core.py", "is_uniquely_restricted", 3, 0)]


def test_no_second_graph_for_gb():
    # gb is held as its edges alone, the decomposition's attachment keys: no
    # module defines or reads an attribute named gb, and neither the
    # decomposition nor the deciders build a Graph, so that no second graph
    # comes back as a view
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "gb":
                found.append(f"{path.name}:{node.lineno}:def gb")
            elif isinstance(node, ast.Attribute) and node.attr == "gb":
                found.append(f"{path.name}:{node.lineno}:.gb")
            elif isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{stmt.lineno}:gb =" for stmt in node.body
                          if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                          for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                          if getattr(target, "id", None) == "gb"]
            elif path.name in ("decomposition.py", "recognition.py") and isinstance(node, ast.Call) \
                    and ast.unparse(node.func) in ("Graph", "Graph.from_edges"):
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node.func)}(...)")
    assert found == []


def test_every_failure_tag_is_yielded():
    # each constant of FAILURE_TAGS is yielded by some failure generator of
    # the deciders, so that no tag outlives the condition it names
    tree = ast.parse(Path(recognition.__file__).read_text())
    tags = next(node.value.args[0].elts for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FAILURE_TAGS")
    names = {tag.id for tag in tags}
    assert {getattr(recognition, name) for name in names} == recognition.FAILURE_TAGS
    yielded = {node.value.id for node in ast.walk(tree)
               if isinstance(node, ast.Yield) and isinstance(node.value, ast.Name)}
    assert sorted(names - yielded) == []


def test_no_library_helper_only_tests_call():
    # a private function or class at module level is read by library code
    # outside its own definition: one that only the tests call belongs in
    # the test-side references
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    defined, read = set(), set()
    for name, tree in trees.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.startswith("__"):
                defined.add((name, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    read.add(node.attr)
    assert sorted(f"{name}:{own}" for name, own in defined if own not in read) == []


def test_selftest_under_optimized_python():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "urmatch.cli", "selftest",
         "--nmax", "4", "--random", "20", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 disagreements" in proc.stdout


def test_console_entry_point(tmp_path):
    path = _write(tmp_path, "p3.g", P3_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "urmatch.cli", "check", path, "--property", "both"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "some true\nevery true\n"
