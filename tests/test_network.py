import sys

import numpy as np
import pytest
import scipy.sparse as sp

from twowayfe import (
    ConnectedSet,
    DataError,
    Panel,
    build_graph,
    largest_connected_set,
    leave_one_out_connected_set,
    restrict_panel,
)
from twowayfe.correct import compute_leverages
from twowayfe.network import _cut_movers

from conftest import random_connected_panel


def panel_from_pairs(pairs):
    """pairs: list of (worker, firm); periods assigned sequentially per worker."""
    seen = {}
    rows = []
    for w, f in pairs:
        seen[w] = seen.get(w, 0) + 1
        rows.append((w, f, seen[w]))
    rng = np.random.default_rng(0)
    return Panel(
        worker=[r[0] for r in rows],
        firm=[r[1] for r in rows],
        period=[r[2] for r in rows],
        log_wage=rng.normal(size=len(rows)),
    )


# -- independent connectivity oracles ------------------------------------


def bfs_components(firms, edges):
    adj = {f: set() for f in firms}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for f in firms:
        if f in seen:
            continue
        stack, comp = [f], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            seen.add(u)
            stack.extend(adj[u] - comp)
        comps.append(comp)
    return comps


def cooccurrence_edges(obs):
    byw = {}
    for w, f in obs:
        byw.setdefault(w, set()).add(f)
    edges = set()
    for fs in byw.values():
        fs = sorted(fs)
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                edges.add((fs[i], fs[j]))
    return edges, byw


def expansion_largest_set(obs):
    """The seed-and-expand construction: start from one worker, pull in their
    firms, then all workers of those firms, until the set stops growing.
    Run from every seed and keep the best set under the library tie-break."""
    byw = {}
    byf = {}
    for w, f in obs:
        byw.setdefault(w, set()).add(f)
        byf.setdefault(f, set()).add(w)

    def expand(seed):
        workers, firms = {seed}, set(byw[seed])
        while True:
            new_workers = set().union(*(byf[f] for f in firms)) - workers
            if not new_workers:
                break
            workers |= new_workers
            firms |= set().union(*(byw[w] for w in new_workers))
        return workers, firms

    best = None
    for seed in sorted(byw):
        workers, firms = expand(seed)
        n_obs = sum(1 for w, f in obs if f in firms)
        key = (-len(workers), -n_obs, min(firms))
        if best is None or key < best[0]:
            best = (key, workers, firms)
    return best[2], best[1]


def oracle_leave_one_out(obs):
    """Brute force: iterate (largest component, drop single-observation
    workers, delete every worker whose removal disconnects the firms) until
    stable, testing each deletion by BFS."""
    obs = list(obs)
    while True:
        firms = sorted({f for _, f in obs})
        if not firms:
            return None
        edges, _ = cooccurrence_edges(obs)
        comps = bfs_components(firms, edges)
        if len(comps) > 1:

            def rank(c):
                ws = {w for w, f in obs if f in c}
                n_o = sum(1 for _, f in obs if f in c)
                return (-len(ws), -n_o, min(c))

            best = min(comps, key=rank)
            obs = [(w, f) for w, f in obs if f in best]
            continue
        counts = {}
        for w, _ in obs:
            counts[w] = counts.get(w, 0) + 1
        singles = {w for w, c in counts.items() if c < 2}
        if singles:
            obs = [(w, f) for w, f in obs if w not in singles]
            if not obs:
                return None
            continue
        firms = sorted({f for _, f in obs})
        workers = sorted({w for w, _ in obs})
        if len(firms) == 1:
            if len(workers) < 2:
                return None
            break
        cut = set()
        for w0 in workers:
            rem = [(w, f) for w, f in obs if w != w0]
            if {f for _, f in rem} != set(firms):
                cut.add(w0)
                continue
            e2, _ = cooccurrence_edges(rem)
            if len(bfs_components(firms, e2)) > 1:
                cut.add(w0)
        if not cut:
            break
        obs = [(w, f) for w, f in obs if w not in cut]
        if not obs:
            return None
    return sorted({f for _, f in obs}), sorted({w for w, _ in obs})


def external_pairs(panel):
    return [
        (panel.worker_ids[i], panel.firm_ids[j])
        for i, j in zip(panel.worker_idx, panel.firm_idx)
    ]


# -- build_graph -----------------------------------------------------------


class TestBuildGraph:
    def test_no_movers_no_edges(self):
        panel = panel_from_pairs([("a", "f1"), ("a", "f1"), ("b", "f2")])
        graph = build_graph(panel)
        assert graph.n_edges == 0

    def test_bridging_firm(self):
        panel = panel_from_pairs(
            [("a", "f1"), ("a", "f3"), ("b", "f2"), ("b", "f3")]
        )
        graph = build_graph(panel)
        edges = {
            (graph.firm_ids[a], graph.firm_ids[b]): m
            for (a, b), m in graph.edges().items()
        }
        assert edges == {("f1", "f3"): 1, ("f2", "f3"): 1}

    def test_fixture_edge_and_mover_count(self, exactfit_panel):
        graph = build_graph(exactfit_panel)
        assert graph.n_edges == 1
        assert list(graph.edges().values()) == [3]

    def test_mover_counts_are_distinct_workers(self):
        # same worker visiting twice still counts once
        panel = panel_from_pairs(
            [("a", "f1"), ("a", "f2"), ("a", "f1"), ("b", "f1"), ("b", "f2")]
        )
        graph = build_graph(panel)
        assert list(graph.edges().values()) == [2]

    def test_matches_cooccurrence_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            W, F = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            rows = []
            for w in range(W):
                for t, f in enumerate(rng.integers(0, F, size=rng.integers(1, 5))):
                    rows.append((f"w{w:02d}", f"f{f:02d}", t + 1))
            panel = Panel(
                worker=[r[0] for r in rows],
                firm=[r[1] for r in rows],
                period=[r[2] for r in rows],
                log_wage=rng.normal(size=len(rows)),
            )
            obs = list(zip(panel.worker_idx.tolist(), panel.firm_idx.tolist()))
            edges, byw = cooccurrence_edges(obs)
            expected = {
                (a, b): sum(1 for fs in byw.values() if a in fs and b in fs)
                for a, b in sorted(edges)
            }
            got = build_graph(panel).edges()
            assert list(got.items()) == list(expected.items())


# -- largest connected set ---------------------------------------------------


class TestLargestConnectedSet:
    def test_fully_connected(self, exactfit_panel):
        conn = largest_connected_set(build_graph(exactfit_panel))
        assert conn.firms == {"f1", "f2"}
        assert conn.workers == {"w1", "w2", "w3"}
        assert conn.kind == "largest_connected"

    def test_two_components_most_workers_wins(self):
        pairs = []
        # component A: 3 firms, 10 workers
        for w in range(10):
            pairs += [(f"a{w}", f"fa{w % 3}"), (f"a{w}", f"fa{(w + 1) % 3}")]
        # component B: 2 firms, 4 workers
        for w in range(4):
            pairs += [(f"b{w}", f"fb{w % 2}"), (f"b{w}", f"fb{(w + 1) % 2}")]
        conn = largest_connected_set(build_graph(panel_from_pairs(pairs)))
        assert conn.firms == {"fa0", "fa1", "fa2"}
        assert conn.n_workers == 10

    def test_bridging_firm_single_component(self):
        panel = panel_from_pairs(
            [("a", "f1"), ("a", "f3"), ("b", "f2"), ("b", "f3")]
        )
        conn = largest_connected_set(build_graph(panel))
        assert conn.firms == {"f1", "f2", "f3"}

    def test_matches_expansion_algorithm_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            W, F = int(rng.integers(4, 25)), int(rng.integers(2, 9))
            rows = []
            for w in range(W):
                for t, f in enumerate(rng.integers(0, F, size=rng.integers(1, 4))):
                    rows.append((f"w{w:02d}", f"f{f}", t + 1))
            panel = Panel(
                worker=[r[0] for r in rows],
                firm=[r[1] for r in rows],
                period=[r[2] for r in rows],
                log_wage=rng.normal(size=len(rows)),
            )
            firms, workers = expansion_largest_set(external_pairs(panel))
            conn = largest_connected_set(build_graph(panel))
            assert conn.firms == set(firms)
            assert conn.workers == set(workers)

    def test_invariant_to_relabeling_and_order(self):
        rng = np.random.default_rng(1)
        panel = random_connected_panel(rng, n_workers=15, n_firms=4)
        conn = largest_connected_set(build_graph(panel))
        # relabel firms with a reversible map and shuffle rows
        perm = rng.permutation(panel.n_obs)
        relabel = {f: f"z{f}" for f in panel.firm_ids}
        panel2 = Panel(
            worker=[panel.worker_ids[i] for i in panel.worker_idx[perm]],
            firm=[relabel[panel.firm_ids[j]] for j in panel.firm_idx[perm]],
            period=panel.period[perm],
            log_wage=panel.log_wage[perm],
        )
        conn2 = largest_connected_set(build_graph(panel2))
        assert {relabel[f] for f in conn.firms} == conn2.firms
        assert conn.workers == conn2.workers


# -- leave-one-out connected set ---------------------------------------------


class TestLeaveOneOut:
    def test_single_mover_firm_pruned(self):
        # f3 hangs off the 2-mover core f1-f2 by exactly one mover
        pairs = [
            ("a", "f1"), ("a", "f2"),
            ("b", "f1"), ("b", "f2"),
            ("c", "f2"), ("c", "f3"),
            ("d", "f3"), ("d", "f3"),
        ]
        loo = leave_one_out_connected_set(
            build_graph(panel_from_pairs(pairs)), panel_from_pairs(pairs)
        )
        assert loo.firms == {"f1", "f2"}
        assert loo.workers == {"a", "b"}
        assert loo.kind == "leave_one_out"

    def test_two_movers_per_pair_unchanged(self):
        pairs = []
        for w, (fa, fb) in enumerate([("f1", "f2"), ("f1", "f2"), ("f2", "f3"), ("f2", "f3")]):
            pairs += [(f"w{w}", fa), (f"w{w}", fb)]
        panel = panel_from_pairs(pairs)
        loo = leave_one_out_connected_set(build_graph(panel), panel)
        assert loo.firms == {"f1", "f2", "f3"}
        assert loo.n_workers == 4

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            W, F = int(rng.integers(5, 30)), int(rng.integers(3, 10))
            rows = []
            for w in range(W):
                for t, f in enumerate(rng.integers(0, F, size=rng.integers(1, 4))):
                    rows.append((f"w{w:03d}", f"f{f}", t + 1))
            panel = Panel(
                worker=[r[0] for r in rows],
                firm=[r[1] for r in rows],
                period=[r[2] for r in rows],
                log_wage=rng.normal(size=len(rows)),
            )
            expected = oracle_leave_one_out(external_pairs(panel))
            try:
                got = leave_one_out_connected_set(build_graph(panel), panel)
                result = (sorted(got.firms), sorted(got.workers))
            except DataError:
                result = None
            assert result == expected

    def test_subset_chain(self):
        rng = np.random.default_rng(3)
        panel = random_connected_panel(rng, n_workers=25, n_firms=6, mover_share=0.5)
        graph = build_graph(panel)
        largest = largest_connected_set(graph)
        loo = leave_one_out_connected_set(graph, panel)
        assert loo.firms <= largest.firms <= set(panel.firm_ids)
        assert loo.workers <= largest.workers

    def test_leverage_strictly_below_one(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            panel = random_connected_panel(
                np.random.default_rng(seed), n_workers=30, n_firms=6, mover_share=0.5
            )
            try:
                loo = leave_one_out_connected_set(build_graph(panel), panel)
            except DataError:
                continue
            table = compute_leverages(panel, loo, backend="exact")
            assert table.leverage.max() < 1 - 1e-10
            assert table.leverage.min() >= 0

    def test_deep_ring_needs_no_recursion(self):
        # firms 0..n-1 in a ring, each adjacent pair joined by one mover: the
        # depth-first search runs about 2n deep and nothing is a cut worker
        n = 3000
        assert 2 * n > sys.getrecursionlimit()
        pairs = []
        for k in range(n):
            pairs += [(f"w{k:04d}", f"f{k:04d}"), (f"w{k:04d}", f"f{(k + 1) % n:04d}")]
        panel = panel_from_pairs(pairs)
        loo = leave_one_out_connected_set(build_graph(panel), panel)
        assert loo.firms == set(panel.firm_ids)
        assert loo.workers == set(panel.worker_ids)

    def test_long_chain_matches_brute_force_oracle(self):
        # 40 firms in a chain; links carry one to three movers, so single-mover
        # links are cut and the pieces compete for the largest component
        rng = np.random.default_rng(13)
        for _ in range(3):
            pairs, w = [], 0
            for j in range(39):
                for _ in range(rng.integers(1, 4)):
                    pairs += [(f"w{w:03d}", f"f{j:02d}"), (f"w{w:03d}", f"f{j + 1:02d}")]
                    w += 1
            for f in rng.integers(0, 40, size=40):
                pairs += [(f"w{w:03d}", f"f{f:02d}")] * int(rng.integers(1, 4))
                w += 1
            panel = panel_from_pairs(pairs)
            expected = oracle_leave_one_out(external_pairs(panel))
            got = leave_one_out_connected_set(build_graph(panel), panel)
            assert (sorted(got.firms), sorted(got.workers)) == expected

    def test_graph_of_another_panel_is_data_error(self):
        """The graph of a restricted panel does not pass for the full panel's,
        nor the reverse; the graph of an equal panel does."""
        rng = np.random.default_rng(3)
        panel = random_connected_panel(rng, n_workers=25, n_firms=6, mover_share=0.5)
        kept = restrict_panel(panel, panel.worker_ids[1:], panel.firm_ids)
        assert kept.worker_ids != panel.worker_ids
        for graph_of, used in ((kept, panel), (panel, kept)):
            with pytest.raises(DataError, match="mobility graph was built from another panel"):
                leave_one_out_connected_set(build_graph(graph_of), used)
        twin = restrict_panel(panel, panel.worker_ids, panel.firm_ids)
        assert leave_one_out_connected_set(build_graph(twin), panel) == (
            leave_one_out_connected_set(build_graph(panel), panel))

    def test_too_sparse_raises(self):
        # one mover connecting two one-worker firms: nothing survives
        pairs = [("a", "f1"), ("a", "f2")]
        panel = panel_from_pairs(pairs)
        with pytest.raises(DataError):
            leave_one_out_connected_set(build_graph(panel), panel)


# -- articulation movers -----------------------------------------------------


def firm_component_count(n_firms, firm_lists):
    """Components of the firms when each list's firms are joined (union-find)."""
    root = list(range(n_firms))

    def find(j):
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for firms in firm_lists:
        for j in firms[1:]:
            root[find(j)] = find(firms[0])
    return len({find(j) for j in range(n_firms)})


class TestCutMovers:
    def test_matches_deleting_each_mover(self):
        """On random bipartite graphs, the movers `_cut_movers` returns are the
        ones whose deletion splits the firms into more components."""
        rng = np.random.default_rng(23)
        seen = {"several_components": 0, "isolated_firms": 0, "busy_firm": 0, "cuts": 0}
        for _ in range(200):
            n_f = int(rng.integers(1, 16))
            group = rng.integers(0, rng.integers(1, 4), size=n_f)
            group[rng.random(n_f) < 0.15] = -1  # never visited: isolated firms
            weight = rng.pareto(1.0, size=n_f) + 0.05  # a few firms draw most movers
            open_firms = np.flatnonzero(group >= 0)
            rows = []
            for _ in range(int(rng.integers(0, 40)) if open_firms.size else 0):
                members = np.flatnonzero(group == group[rng.choice(open_firms)])
                p = weight[members] / weight[members].sum()
                firms = rng.choice(members, size=rng.integers(1, 4), p=p)
                rows.append(sorted(set(firms.tolist())))
            incidence = sp.csr_matrix(
                (np.ones(sum(map(len, rows))), [j for r in rows for j in r],
                 np.cumsum([0] + [len(r) for r in rows])),
                shape=(len(rows), n_f),
            )
            movers = np.array([k for k, r in enumerate(rows) if len(r) >= 2], dtype=np.int64)
            if movers.size and rng.random() < 0.3:
                size = rng.integers(1, movers.size + 1)
                movers = np.sort(rng.choice(movers, size=size, replace=False))

            lists = [rows[k] for k in movers]
            whole = firm_component_count(n_f, lists)
            expected = [
                int(k) for i, k in enumerate(movers)
                if firm_component_count(n_f, lists[:i] + lists[i + 1:]) > whole
            ]
            assert _cut_movers(incidence, movers).tolist() == expected

            visited = {j for r in lists for j in r}
            seen["several_components"] += whole - (n_f - len(visited)) > 1
            seen["isolated_firms"] += len(visited) < n_f
            seen["busy_firm"] += max(np.bincount([j for r in lists for j in r] or [0])) >= 5
            seen["cuts"] += 0 < len(expected) < movers.size
        assert min(seen.values()) >= 20, seen
