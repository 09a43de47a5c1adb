"""The ``urmatch selftest`` driver: the deciders, the decomposition and the
deciders' uniqueness tests cross-checked against the brute-force oracle on
every graph up to a size and on seeded random graphs.  Each graph is
matched once, by its decomposition, which the verifier checks by its own
certificate; the block test on each D component is held to the oracle's
perfect-matching counts of its D - h pieces.

The command line imports this module only when the command runs.
"""

from __future__ import annotations

import random
import sys

from .decomposition import gallai_edmonds, verify_gallai_edmonds
from .families import random_graph
from .graph_core import Graph, _odd_cycle_blocks, induced_subgraph
from .oracle import (
    DEFAULT_MAX_M,
    DEFAULT_MAX_N,
    count_perfect_matchings,
    enumerate_labeled_graphs,
    oracle_every_ur,
    oracle_some_ur,
)
from .recognition import (
    _c_failure,
    _unique_minus,
    allowed_edges,
    every_ur,
    some_ur,
)
from .ur_core import is_uniquely_restricted


def _instance(g: Graph, max_n: int, max_m: int) -> list[str]:
    """What on g disagrees with the oracle or with another route, one line each."""
    problems = []
    ge = gallai_edmonds(g)
    if not verify_gallai_edmonds(g, ge):
        problems.append("gallai_edmonds decomposition fails verify_gallai_edmonds")
    rs = some_ur(g, ge=ge)
    re = every_ur(g, ge=ge)
    if rs.answer != oracle_some_ur(g, max_n=max_n, max_m=max_m):
        problems.append("some_ur disagrees with oracle")
    if re.answer != oracle_every_ur(g, max_n=max_n, max_m=max_m):
        problems.append("every_ur disagrees with oracle")
    # the deciders' uniqueness tests, on every set they may ask about: the
    # C test names a component with several perfect matchings, or none
    # when each has one; each D - h test answers for its piece, and the
    # block test on each D component for all of its pieces at once
    failure = _c_failure(g, ge)
    tested = [(comp, True, -1) for comp in ge.c_members] if failure is None \
        else [(ge.c_members[failure], False, -1)]
    tested += [([v for v in comp if v != h], _unique_minus(g, ge, ci, h), ci)
               for ci, comp in enumerate(ge.d_members) for h in comp]
    not_unique = set()  # the D components with a piece of other than one perfect matching
    for piece, unique, ci in tested:
        one = count_perfect_matchings(induced_subgraph(g, piece)[0], max_n=max_n, max_m=max_m) == 1
        if unique != one:
            problems.append(f"uniqueness test (unique = {unique}) disagrees with the oracle "
                            f"on {piece}")
        if not one:
            not_unique.add(ci)
    for ci, comp in enumerate(ge.d_members):
        by_blocks = _odd_cycle_blocks(g.adj, [c == ci for c in ge.comp])
        if by_blocks != (ci not in not_unique):
            problems.append(f"block test (_odd_cycle_blocks = {by_blocks}) disagrees with "
                            f"the oracle's D - h counts on component {comp}")
    if rs.answer:
        w = rs.witness
        if w is None or 2 * len(w.edges) != g.n - ge.match.count(-1) \
                or not is_uniquely_restricted(g, w):
            problems.append("some_ur witness is not a maximum uniquely restricted matching")
        # each witness edge from A into D lies on a gb edge of allowed_edges
        eligible, k = allowed_edges(g, ge), len(ge.a_list)
        a_index = {a: i for i, a in enumerate(ge.a_list)}
        for e in w.edges if w is not None else ():
            for a, d in (e, e[::-1]):
                if a in a_index and ge.comp[d] >= 0 and (a_index[a], k + ge.comp[d]) not in eligible:
                    problems.append(f"some_ur witness edge {e} is not on a gb edge of allowed_edges")
    return problems


def run(nmax: int, n_random: int, seed: int) -> int:
    """Sweep every graph on up to ``nmax`` vertices and ``n_random`` seeded
    random ones; the exit code is 0, 2 for counts out of range, or 4 when
    anything disagrees."""
    if nmax > 6:
        print("selftest: --nmax above 6 is not supported (exhaustive sweep)", file=sys.stderr)
        return 2
    if nmax < 0 or n_random < 0:
        print("selftest: --nmax and --random must be nonnegative", file=sys.stderr)
        return 2
    disagreements = 0
    exhaustive = 0
    for n in range(nmax + 1):
        for g in enumerate_labeled_graphs(n):
            exhaustive += 1
            for msg in _instance(g, DEFAULT_MAX_N, DEFAULT_MAX_M):
                disagreements += 1
                print(f"disagreement on n={n} edges={sorted(g.edges)}: {msg}", file=sys.stderr)
    rng = random.Random(seed)
    for _ in range(n_random):
        n = rng.randrange(7, 11)
        p = rng.choice([0.2, 0.4, 0.6])
        g = random_graph(n, p, rng)
        for msg in _instance(g, 12, 64):
            disagreements += 1
            print(f"disagreement on random n={n} edges={sorted(g.edges)}: {msg}", file=sys.stderr)
    print(f"selftest: {exhaustive} exhaustive + {n_random} random instances, "
          f"{disagreements} disagreements")
    return 0 if disagreements == 0 else 4
