"""Worker-firm mobility graph and connected-set extraction.

Firms are nodes; an edge joins two firms whenever at least one worker is
observed at both, weighted by the number of distinct such movers. Worker and
firm effects are only identified relative to each other inside a connected
component of this graph, so estimation restricts to one: usually the largest.

The leave-one-out connected set additionally survives the deletion of any
single worker, which is what gives every observation a regression leverage
strictly below one and makes the heteroskedastic-robust bias correction
feasible.

Everything here reads one primitive: the binary worker x firm incidence A
(CSR, one nonzero per distinct (worker, firm) pair). Edges and mover counts
are triu(A'A, 1); components come from scipy's `connected_components` on
the bipartite graph of A. Building A sorts the pairs, so a component pass
costs O(n log n + edges) for n observations. Articulation workers of the
leave-one-out set are found by one iterative Hopcroft-Tarjan low-point pass,
a Python loop over the movers' (worker, firm) pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DataError
from .panel import Panel


@dataclass(frozen=True)
class MobilityGraph:
    """Firm-level mover graph plus the worker x firm incidence it came from."""

    n_firms: int
    edge_a: np.ndarray  # firm index, edge_a < edge_b
    edge_b: np.ndarray
    edge_movers: np.ndarray  # distinct workers observed at both endpoints
    incidence: sp.csr_matrix  # W x F, 1 where the worker is observed at the firm
    obs_per_firm: np.ndarray
    firm_ids: tuple
    worker_ids: tuple

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    def edges(self) -> dict:
        """Edge dict {(a, b): mover_count} with a < b (internal firm indices)."""
        return {
            (int(a), int(b)): int(m)
            for a, b, m in zip(self.edge_a, self.edge_b, self.edge_movers)
        }


@dataclass(frozen=True)
class ConnectedSet:
    """Membership of a connected set, keyed by external ids."""

    firms: frozenset
    workers: frozenset
    kind: str  # "largest_connected", "leave_one_out", or "membership_file" (read by the CLI)

    @property
    def n_firms(self) -> int:
        return len(self.firms)

    @property
    def n_workers(self) -> int:
        return len(self.workers)


def worker_firm_incidence(panel: Panel, keep: np.ndarray | None = None) -> sp.csr_matrix:
    """Binary W x F incidence of the panel's observations (those where `keep`
    is true, if given): entry (w, j) is 1 iff worker w is observed at firm j.
    Row w lists w's distinct firms in ascending order."""
    widx, fidx = panel.worker_idx, panel.firm_idx
    if keep is not None:
        widx, fidx = widx[keep], fidx[keep]
    ones = np.ones(len(widx), dtype=np.int64)
    inc = sp.csr_matrix((ones, (widx, fidx)), shape=(panel.n_workers, panel.n_firms))
    inc.data[:] = 1  # the CSR conversion summed repeated (worker, firm) rows
    return inc


def _components(incidence: sp.csr_matrix):
    """Components of the bipartite worker-firm graph of `incidence`:
    (count, worker labels, firm labels). A worker or firm with no nonzero is
    a component of its own."""
    n_w, n_f = incidence.shape
    # worker rows point at firm nodes n_w..n_w+n_f-1; firm rows are empty
    indptr = np.concatenate([incidence.indptr, np.full(n_f, incidence.nnz)])
    bipartite = sp.csr_matrix(
        (incidence.data, incidence.indices + n_w, indptr), shape=(n_w + n_f, n_w + n_f)
    )
    count, labels = connected_components(bipartite, directed=True, connection="weak")
    return count, labels[:n_w], labels[n_w:]


def _pick_component(incidence: sp.csr_matrix, obs_per_firm: np.ndarray):
    """(worker mask, firm mask) of the component with the most workers; ties
    broken by observation count, then by smallest external firm id. Only
    components with a firm that has observations compete, so workers and
    firms outside the incidence never win. Panel indices follow sorted
    external ids, so the smallest firm index is the smallest id."""
    count, w_lab, f_lab = _components(incidence)
    workers = np.bincount(w_lab, minlength=count)
    obs = np.bincount(f_lab, weights=obs_per_firm, minlength=count)
    live = np.flatnonzero(obs_per_firm)  # ascending, so the first hit is the minimum
    labels, first = np.unique(f_lab[live], return_index=True)
    best = labels[np.lexsort((live[first], -obs[labels], -workers[labels]))[0]]
    return w_lab == best, f_lab == best


def build_graph(panel: Panel) -> MobilityGraph:
    """Construct the mover graph of a panel.

    An edge (a, b) exists iff some worker is observed at both a and b, with
    weight equal to the number of distinct such workers.
    """
    inc = worker_firm_incidence(panel)
    shared = sp.triu(inc.T @ inc, k=1).tocoo()  # (a, b): workers seen at both
    order = np.lexsort((shared.col, shared.row))
    return MobilityGraph(
        n_firms=panel.n_firms,
        edge_a=shared.row[order].astype(np.int64),
        edge_b=shared.col[order].astype(np.int64),
        edge_movers=shared.data[order].astype(np.int64),
        incidence=inc,
        obs_per_firm=np.bincount(panel.firm_idx, minlength=panel.n_firms),
        firm_ids=panel.firm_ids,
        worker_ids=panel.worker_ids,
    )


def largest_connected_set(graph: MobilityGraph) -> ConnectedSet:
    """Largest connected component of the mover graph, by worker count.

    Every firm a worker visits lies in the same component (the worker's own
    co-employment edges join them), so each worker belongs to exactly one
    component.
    """
    wmask, fmask = _pick_component(graph.incidence, graph.obs_per_firm)
    return ConnectedSet(
        firms=frozenset(graph.firm_ids[j] for j in np.flatnonzero(fmask)),
        workers=frozenset(graph.worker_ids[w] for w in np.flatnonzero(wmask)),
        kind="largest_connected",
    )


def _cut_movers(incidence: sp.csr_matrix, movers: np.ndarray) -> np.ndarray:
    """Movers that are articulation points of the graph whose nodes are the
    firms and `movers` and whose edges join each mover to the firms they
    visit (Hopcroft-Tarjan low points, one iterative depth-first search with
    roots at firm nodes, so it never recurses).

    Nodes 0..F-1 are firms and F+k is movers[k]. A non-root node u is an
    articulation point iff some DFS child v has low[v] >= disc[u]; roots are
    firms, so the root rule is never needed.
    """
    n_f = incidence.shape[1]
    rows = incidence[movers]
    adjacency = sp.bmat([[None, rows.T], [rows, None]], format="csr")
    ptr, adj = adjacency.indptr.tolist(), adjacency.indices.tolist()
    nxt = ptr[:-1]
    disc = [-1] * len(nxt)
    low = [0] * len(nxt)
    parent = [-1] * len(nxt)
    cut = np.zeros(len(movers), dtype=bool)
    clock = 0
    for root in range(n_f):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [root]
        while stack:
            u = stack[-1]
            i = nxt[u]
            if i < ptr[u + 1]:
                nxt[u] = i + 1
                v = adj[i]
                if disc[v] < 0:
                    parent[v] = u
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append(v)
                elif disc[v] < low[u]:
                    # v may be u's parent: low[u] = disc[parent] still
                    # passes the test low[u] >= disc[parent] below
                    low[u] = disc[v]
            else:
                stack.pop()
                p = parent[u]
                if p >= 0:
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p] and p >= n_f:
                        cut[p - n_f] = True
    return movers[cut]


def leave_one_out_connected_set(graph: MobilityGraph, panel: Panel) -> ConnectedSet:
    """Largest subset of the largest connected set that stays connected when
    any single worker's observations are deleted.

    Iterates to a fixed point on a mask over the panel's observations: keep
    the largest component, drop workers with a single observation (their one
    row would otherwise carry leverage one), then drop every worker whose
    deletion disconnects the remaining firms. Articulation workers are found
    on the auxiliary graph whose nodes are firms plus movers and whose edges
    join each mover to the firms they visit: deleting a worker splits the
    firm set exactly when that worker is an articulation point there.
    """
    widx, fidx = panel.worker_idx, panel.firm_idx
    n_w, n_f = panel.n_workers, panel.n_firms
    keep = np.ones(panel.n_obs, dtype=bool)
    inc = graph.incidence  # of `panel`, so it describes the full mask

    while True:
        obs_per_worker = np.bincount(widx[keep], minlength=n_w)
        obs_per_firm = np.bincount(fidx[keep], minlength=n_f)
        n_live_firms = np.count_nonzero(obs_per_firm)

        fmask = _pick_component(inc, obs_per_firm)[1]
        if np.count_nonzero(fmask) < n_live_firms:
            # keep the largest component of the current set
            keep &= fmask[fidx]
        elif np.any(obs_per_worker == 1):
            # single-observation workers carry leverage one: drop them
            if not np.any(obs_per_worker >= 2):
                raise DataError("leave-one-out connected set is empty: data too sparse")
            keep &= obs_per_worker[widx] >= 2
        elif n_live_firms == 1:
            # single-firm set: any worker can be left out iff another remains
            if np.count_nonzero(obs_per_worker) < 2:
                raise DataError("leave-one-out connected set is empty: data too sparse")
            break
        else:
            # deleting worker w splits the firm set (or empties a firm) exactly
            # when w is an articulation point of the firms+movers graph
            cut = _cut_movers(inc, np.flatnonzero(np.diff(inc.indptr) >= 2))
            if cut.size == 0:
                break
            if cut.size == np.count_nonzero(obs_per_worker):
                raise DataError("leave-one-out connected set is empty: data too sparse")
            dropped = np.zeros(n_w, dtype=bool)
            dropped[cut] = True
            keep &= ~dropped[widx]
        inc = worker_firm_incidence(panel, keep)

    return ConnectedSet(
        firms=frozenset(panel.firm_ids[j] for j in np.flatnonzero(obs_per_firm)),
        workers=frozenset(panel.worker_ids[w] for w in np.flatnonzero(obs_per_worker)),
        kind="leave_one_out",
    )


def connected_set_summary(panel: Panel, conn: ConnectedSet) -> dict:
    """JSON-ready membership summary for a connected set of `panel`."""
    fmask = np.fromiter((f in conn.firms for f in panel.firm_ids), dtype=bool)
    wmask = np.fromiter((w in conn.workers for w in panel.worker_ids), dtype=bool)
    kept = fmask[panel.firm_idx] & wmask[panel.worker_idx]
    return {
        "schema_version": 1,
        "kind": conn.kind,
        "n_firms_kept": conn.n_firms,
        "n_workers_kept": conn.n_workers,
        "share_of_observations": float(kept.mean()),
    }
