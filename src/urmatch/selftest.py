"""The ``urmatch selftest`` driver: the deciders, the decomposition and the
deciders' uniqueness tests cross-checked against the brute-force oracle on
every graph up to a size and on seeded random graphs.

The command line imports this module only when the command runs.
"""

from __future__ import annotations

import random
import sys

from .decomposition import gallai_edmonds, verify_gallai_edmonds
from .families import random_graph
from .graph_core import Graph, _odd_cycle_blocks, induced_subgraph
from .matching import maximum_matching, unique_perfect_matching
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


def _component_all_near_perfect_unique(g: Graph, comp: list[int]) -> bool:
    """Definitional form of the deficient-component condition: deleting any one
    vertex of ``comp`` must leave a unique perfect matching.  The self-test
    compares it with the block search that ``every_ur`` runs on D,
    kept inside the one component."""
    for h in comp:
        sub, _ = induced_subgraph(g, [v for v in comp if v != h])
        if unique_perfect_matching(sub) is None:
            return False
    return True


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
    for ci, comp in enumerate(ge.d_members):
        by_blocks = _odd_cycle_blocks(g.adj, [c == ci for c in ge.comp])
        if by_blocks != _component_all_near_perfect_unique(g, comp):
            problems.append(f"block test (_odd_cycle_blocks = {by_blocks}) disagrees with "
                            f"the per-vertex test on component {comp}")
    # the deciders' uniqueness tests, on every set they may ask about: the
    # C test names a component with several perfect matchings, or none
    # when each has one
    failure = _c_failure(g, ge)
    tested = [(comp, True) for comp in ge.c_members] if failure is None else [(ge.c_members[failure], False)]
    tested += [([v for v in comp if v != h], _unique_minus(g, ge, ci, h))
               for ci, comp in enumerate(ge.d_members) for h in comp]
    for piece, unique in tested:
        sub = induced_subgraph(g, piece)[0]
        if unique != (count_perfect_matchings(sub, max_n=max_n, max_m=max_m) == 1):
            problems.append(f"uniqueness test (unique = {unique}) disagrees with the oracle "
                            f"on {piece}")
    if rs.answer:
        w = rs.witness
        if w is None or len(w.edges) != len(maximum_matching(g).edges) \
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
