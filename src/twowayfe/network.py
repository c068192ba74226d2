"""Worker-firm mobility graph and connected-set extraction.

Firms are nodes; an edge joins two firms whenever at least one worker is
observed at both, weighted by the number of distinct such movers. Worker and
firm effects are only identified relative to each other inside a connected
component of this graph, so estimation restricts to one: usually the largest.

The leave-one-out connected set additionally survives the deletion of any
single worker, which is what gives every observation a regression leverage
strictly below one and makes the heteroskedastic-robust bias correction
feasible.

Everything here reads one primitive: the worker x firm incidence A (CSR, one
nonzero per distinct (worker, firm) pair, built in O(n log n) for n
observations). Edges and mover counts are triu(A'A, 1); components come from
scipy's `connected_components` on the bipartite graph of A. The leave-one-out
set masks A, with observation counts, by keep vectors over workers and firms,
so each of its steps costs O(pairs); its articulation workers come from low
points over scipy's depth-first forest, one Python pass over its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, depth_first_order

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


def _pair_counts(panel: Panel) -> sp.csr_matrix:
    """W x F count of the panel's observations per (worker, firm) pair. Row w
    lists w's distinct firms in ascending order."""
    ones = np.ones(panel.n_obs, dtype=np.int64)
    return sp.csr_matrix(
        (ones, (panel.worker_idx, panel.firm_idx)), shape=(panel.n_workers, panel.n_firms)
    )


def worker_firm_incidence(panel: Panel) -> sp.csr_matrix:
    """Binary W x F incidence: entry (w, j) is 1 iff worker w is observed at
    firm j. Row w lists w's distinct firms in ascending order."""
    return _pair_counts(panel).sign()


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
        firms=frozenset(compress(graph.firm_ids, fmask.tolist())),
        workers=frozenset(compress(graph.worker_ids, wmask.tolist())),
        kind="largest_connected",
    )


def _cut_movers(incidence: sp.csr_matrix, movers: np.ndarray) -> np.ndarray:
    """Movers that are articulation points of the graph whose nodes are the
    firms and `movers` and whose edges join each mover to the firms they
    visit (Hopcroft-Tarjan low points).

    Nodes 0..F-1 are firms, F+k is movers[k], and node F+M points at every
    firm with an edge, so scipy's `depth_first_order` from it (a true DFS:
    every non-tree edge joins an ancestor and a descendant) grows one tree
    per component, rooted at a firm. low[v], the least preorder number next
    to v's subtree, is one reduceat plus one pass in reverse preorder. A
    non-root u is an articulation point iff some tree child v has low[v] >=
    disc[u] (low[v] may be disc[u] through the tree edge); roots are firms,
    so the root rule is never needed.
    """
    n_f = incidence.shape[1]
    rows = incidence[movers]
    n = n_f + len(movers)  # the extra node
    adjacency = sp.bmat([[None, rows.T], [rows, None]], format="csr")
    linked = np.flatnonzero(np.diff(adjacency.indptr[: n_f + 1]))
    ptr = np.append(adjacency.indptr, adjacency.nnz + linked.size)
    indices = np.concatenate([adjacency.indices, linked])
    forest = sp.csr_matrix((np.ones(ptr[-1]), indices, ptr), shape=(n + 1, n + 1))
    order, parent = depth_first_order(forest, n, directed=True, return_predecessors=True)
    disc = np.full(n + 1, n + 1, dtype=np.int64)  # unreached nodes have no edges
    disc[order] = np.arange(order.size)
    # reduceat reads past an empty row (into the sentinel at worst): mask those
    near = np.minimum.reduceat(np.append(disc[forest.indices], n + 1), ptr[:-1])
    low = np.minimum(disc, np.where(np.diff(ptr) > 0, near, n + 1)).tolist()
    for v, u in zip(order[:0:-1].tolist(), parent[order[:0:-1]].tolist()):
        if low[v] < low[u]:
            low[u] = low[v]
    up = parent[order[1:]]
    cut = (up >= n_f) & (up < n) & (np.array(low)[order[1:]] >= disc[up])
    return movers[np.unique(up[cut]) - n_f]


def leave_one_out_connected_set(graph: MobilityGraph, panel: Panel) -> ConnectedSet:
    """Largest subset of the largest connected set that stays connected when
    any single worker's observations are deleted.

    Iterates to a fixed point: keep the largest component, drop workers with
    a single observation (their one row would otherwise carry leverage one),
    then drop every worker whose deletion disconnects the remaining firms.
    Each step drops whole workers or whole firms, so it runs on keep vectors
    over workers and firms that mask the (worker, firm) observation counts,
    in O(pairs) rather than O(n). Articulation workers are found on the
    auxiliary graph whose nodes are firms plus movers and whose edges join
    each mover to the firms they visit: deleting a worker splits the firm
    set exactly when that worker is an articulation point there. The
    (worker, firm) counts come from `panel`; `graph` must be the panel's own
    (the same worker and firm ids), else a DataError says so.
    """
    for ours, theirs in ((graph.worker_ids, panel.worker_ids), (graph.firm_ids, panel.firm_ids)):
        if ours is not theirs and ours != theirs:  # a graph of this panel shares its id tuples
            raise DataError("the mobility graph was built from another panel: "
                            "its worker or firm ids differ from this panel's")
    n_w, n_f = panel.n_workers, panel.n_firms
    pairs = _pair_counts(panel).tocoo()  # graph.incidence's pattern, with counts
    wkeep, fkeep = np.ones(n_w, dtype=bool), np.ones(n_f, dtype=bool)

    while True:
        live = wkeep[pairs.row] & fkeep[pairs.col]
        workers, firms, counts = pairs.row[live], pairs.col[live], pairs.data[live]
        inc = sp.csr_matrix((counts, (workers, firms)), shape=(n_w, n_f))
        obs_per_worker = np.bincount(workers, weights=counts, minlength=n_w)
        obs_per_firm = np.bincount(firms, weights=counts, minlength=n_f)
        n_live_firms = np.count_nonzero(obs_per_firm)

        fmask = _pick_component(inc, obs_per_firm)[1]
        if np.count_nonzero(fmask) < n_live_firms:
            # keep the largest component of the current set
            fkeep &= fmask
        elif np.any(obs_per_worker == 1):
            # single-observation workers carry leverage one: drop them
            if not np.any(obs_per_worker >= 2):
                raise DataError("leave-one-out connected set is empty: data too sparse")
            wkeep &= obs_per_worker >= 2
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
            wkeep[cut] = False

    return ConnectedSet(
        firms=frozenset(compress(panel.firm_ids, (obs_per_firm > 0).tolist())),
        workers=frozenset(compress(panel.worker_ids, (obs_per_worker > 0).tolist())),
        kind="leave_one_out",
    )


def connected_set_summary(panel: Panel, conn: ConnectedSet) -> dict:
    """JSON-ready membership summary for a connected set of `panel`."""
    fmask = np.fromiter(map(conn.firms.__contains__, panel.firm_ids), bool, panel.n_firms)
    wmask = np.fromiter(map(conn.workers.__contains__, panel.worker_ids), bool, panel.n_workers)
    kept = fmask[panel.firm_idx] & wmask[panel.worker_idx]
    return {
        "schema_version": 1,
        "kind": conn.kind,
        "n_firms_kept": conn.n_firms,
        "n_workers_kept": conn.n_workers,
        "share_of_observations": float(kept.mean()),
    }
