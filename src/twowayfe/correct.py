"""Bias corrections for plug-in variance components.

Estimated effects carry noise, and noise does not average out of variances
and covariances: the plug-in firm-effect variance is biased upward and the
worker-firm covariance downward, most severely when firms have few movers.
Writing each component as a quadratic form phi' A phi in the stacked
identified parameter vector, the sampling bias of the plug-in is

    E[phihat' A phihat] - phi' A phi = trace(A S^{-1} D' Omega D S^{-1})

with S = D'D and Omega the diagonal noise covariance. Two corrections:

homoskedastic_trace : Omega = sigma^2 I collapses the bias to
    sigma^2 trace(A S^{-1}); plug in sigma2hat = RSS / dof.
leave_out : allows unrestricted per-observation variances. The bias equals
    sum_o B_oo sigma_o^2 with B_oo = x_o' S^{-1} A S^{-1} x_o, and
    sigma_o^2 is estimated without bias by y_o * resid_o / (1 - P_oo), the
    leave-one-out residual product. Requires every leverage P_oo < 1, i.e. a
    leave-one-out connected estimation set.

A correction takes a fit and component names (keys of COMPONENTS) and runs on
the fit's own Design (`Estimates.design`: the one a conjugate-gradient fit
solved on, so a correction builds no second Design), on an exact backend or a
stochastic one (Rademacher probes, Schur-space solves) for scale. The rows of
one distinct (worker, firm, covariate row) cell (`Design.cells`) share their
P_oo and B_oo, so the exact backend builds one (P_c, B_c) table per cell, for
all components, keeps it on the Design for every exact correction of that
fit, and takes each correction as one sum over the cells, sum_c B_c w_c:
w_c = T_c, the cell's rows, for the trace (sum_o x_o x_o' = S, so
trace(A S^{-1}) = sum_o B_oo), the cell's sum of sigma_o^2 for the leave-out.
Per cell it forms y = V t, V the explicit inverse of the
m = (F-1+K)-dimensional Schur complement of S (`Design.schur_inverse`, in
place of a direct fit's kept factor) and t sparse, and every B_c from sums in
that space: O(m^3) for V plus O(m * nnz(t)) per mover cell (stayer cells
without covariates need no product). Memory is one m x m array while the
table is built, plus chunk * m per block of cells, then 5 floats per cell
kept. Quadratic-form matrices are never materialized.

The stochastic backend works in the same Schur space. The homoskedastic trace
probes are Rademacher over the m Schur coordinates, O(m) to draw: one solve
u = V z per probe, each component's value, centring included, read from u, z
and G'G u (`_trace_probes`). The leave-out probes work on the distinct cells
(`Design.cells`). A leave-out probe z over observations exists only as its
per-cell sums s_c: the T_c signs of a cell are the bits of ceil(T_c / 64) raw
64-bit words of the stream, so s_c = 2 popcount - T_c, O(cells) to draw. D'z,
P z, the alpha and psi weight maps and the JLA M^ (averaged over each cell's
rows) read only s, and every solve runs in the Schur space through T
(`_schur_rows`), the cells' reduced rows. Only the mover cells have rows of
their own in a batch's arrays: a stayer cell, the only cell of its worker and
a zero row of T (`_split_cells`), reads every value from its worker's sum,
and the maps' centring is applied to the worker and firm sums. So beyond the
draw a probe costs O(mover cells + nnz(T) + W + F) outside the solve, with no
pass over observations (sigma2_o is reduced to per-cell sums once per call),
and each batch's arrays are freed before the next is drawn: memory is one
batch's arrays. Per-cell values are weighted by the cell's sum of sigma2_o.
Every probe solve runs on the Design's own Schur solver
(`Design.solve_schur`), chosen once per Design and shared with the fit: one
cho_solve on the dense Cholesky factor the Design keeps from its first solve,
O(m^2 b) per batch, when that factor fits one probe temporary
(8 m^2 <= PROBE_BLOCK_BYTES); otherwise one batched CG run against the sparse
m x m Schur complement to a relative residual of CG_TOL per column,
O(iterations * nnz(Schur) * b). Each stage solves its probes in batches of
b = PROBE_BLOCK_BYTES // (8 cells) columns (8m for the trace probes), at
least 1 on the dense factor and at least CG_MIN_WIDTH under CG (`_width`);
the sparse transposes a leave-out batch reads are formed once per stage.
Probes follow the seeded stream in one-at-a-time order, so the draws do not
depend on the width; sums over a batch's columns do, in their last bits.
Leave-out leverages are JLA-normalized, P^/(P^ + M^), so they stay below one.
All components of one call share one probe stream, default_rng(seed): at P
probes a homoskedastic decomposition solves P columns (one V z serves every
component), a leave-out one P * (1 + distinct observation maps) = 3P (one
leverage estimate, then the alpha and psi maps), whatever the number of
components. The components' Monte Carlo errors are therefore correlated;
each mc_stderr is still that of its own component.

Every correction takes its plug-in value from the plug-in decomposition
(`decompose_variance`), so a corrected value is that decomposition's
component minus the correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .decompose import Decomposition, decompose_variance
from .design import PROBE_BLOCK_BYTES, Cells, Design, check_connected
from .errors import ConfigError, DataError, NumericalError
from .network import ConnectedSet
from .panel import Panel, restrict_panel
from .solver import Estimates

COMPONENTS = {
    "var_alpha": ("alpha", "alpha"),
    "var_psi": ("psi", "psi"),
    "cov_alpha_psi": ("alpha", "psi"),
    "var_alpha_plus_psi": ("alpha_plus_psi", "alpha_plus_psi"),
}

BACKENDS = ("exact", "stochastic")

LEVERAGE_CAP = 1.0 - 1e-10
DEFAULT_PROBES = 100
CG_TOL = 1e-8  # the relative residual at which every CG probe solve stops
# The fewest probes in a batch solved by CG: one CG iteration on k columns
# costs much less than k iterations on one column, and PROBE_BLOCK_BYTES holds
# a single cell-length column once cells exceed 32k. Chosen at 1M observations
# (128.6k cells): 4 columns cut the stochastic leave-out by about a third at
# a peak a few MB higher; 8 cut it by about 40% at a peak some 40 MB higher.
CG_MIN_WIDTH = 4


@dataclass(frozen=True)
class QuadraticForm:
    """One variance component (a key of COMPONENTS) on one Design, validated
    on construction: the handle that the trace functions take. `blocks` names
    the two per-observation effects (alpha, psi or their sum) whose
    person-year covariance the component is."""

    component: str
    design: Design

    def __post_init__(self):
        _check_component(self.component)

    @property
    def blocks(self) -> tuple:
        return COMPONENTS[self.component]


@dataclass(frozen=True)
class CorrectionResult:
    component: str
    plug_in: float
    correction: float
    corrected: float
    method: str
    backend: str
    probes_used: int = 0
    seed: int | None = None
    mc_stderr: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "component": self.component,
            "plug_in": self.plug_in,
            "correction": self.correction,
            "corrected": self.corrected,
            "method": self.method,
            "backend": self.backend,
            "probes": self.probes_used,
            "seed": self.seed,
            "mc_stderr": self.mc_stderr,
        }


@dataclass(frozen=True)
class LeverageTable:
    """Per-observation leverage P_oo and component weight B_oo."""

    leverage: np.ndarray
    component_weight: np.ndarray
    component: str
    backend: str
    probes_used: int = 0


def _plug_ins(plug: Decomposition) -> dict:
    """Every component's plug-in value, read from the plug-in decomposition."""
    c = plug.components
    return {
        "var_alpha": c["var_alpha"],
        "var_psi": c["var_psi"],
        "cov_alpha_psi": c["cov2"] / 2.0,
        "var_alpha_plus_psi": c["var_alpha"] + c["var_psi"] + c["cov2"],
    }


def _width(design: Design, size: int) -> int:
    """Probes per solve batch for float64 columns of length `size`: as many as
    this module's PROBE_BLOCK_BYTES holds, and at least 1 on the dense factor
    (cache-bound batches) or CG_MIN_WIDTH under CG (`design.direct`)."""
    return max(PROBE_BLOCK_BYTES // (8 * size), 1 if design.direct else CG_MIN_WIDTH)


def _spans(count: int, width: int) -> list[slice]:
    """Consecutive slices of range(count), `width` wide (the last one less)."""
    return [slice(lo, min(lo + width, count)) for lo in range(0, count, width)]


_SIGNS = np.array([-1, 1], dtype=np.int8)


def _rademacher(rng, cols: slice, size: int) -> np.ndarray:
    """The probes `cols` of a batch as a (k, size) int8 array of +-1, written
    in one pass over the draw: drawn as k rows of `size`, so row r is the
    probe a one-at-a-time draw would give next and results do not depend on
    how draws are split."""
    draw = rng.integers(0, 2, (cols.stop - cols.start, size))
    return _SIGNS.take(draw, mode="clip")  # indices are 0 or 1: clipping skips the bounds check


def _stderr(vals: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of per-probe values (at least
    two, see _check_probes)."""
    return float(vals.std(ddof=1) / np.sqrt(vals.size))


def _trace_probes(design: Design, components: list[str], probes: int, rng) -> dict:
    """Per-probe estimates of trace(A S^{-1}) of every named component, z
    Rademacher over the m Schur coordinates: one solve u = V z per probe
    (V = Schur^{-1}, `Design.solve_schur`, CG at CG_TOL) serves them all.

    S^{-1} has the worker block D^{-1} + D^{-1} C V C' D^{-1} and the cross
    block -D^{-1} C V (C = contact, D = diag(d_w)). With s = G'1, n_F its firm
    coordinates, P the projection on the firm coordinates and
    C' D^{-1} C = G'G - Schur, z'V C'D^{-1}C z = u'G'G z - m and
    z'V C'D^{-1}C P z = u'G'G P z - z'P z, so each probe's value of
    n trace(A S^{-1}) is, centring included,
        var_alpha: W - 1 - m + u'G'G z - (u's)(s'z)/n,
        var_psi:   sum over firms of n_F u z - (n_F'u)(n_F'z)/n,
        cov:       F - 1 - (G'G u)_P'z_P + (u's)(n_F'z)/n,
    and var_alpha_plus_psi their sum with the covariance twice."""
    n, F1, m = design.n, design.F - 1, design.m
    s = np.concatenate([design.g_firm[:F1], design.panel.covariates.sum(axis=0)])
    n_f = s[:F1]
    vals = {c: [] for c in components}
    for batch in _spans(probes, _width(design, max(m, 1))):
        z = _rademacher(rng, batch, m).T.astype(np.float64, order="C")
        u = design.solve_schur(z, CG_TOL)[0]
        gu = design.gtg @ u  # G'G u, so u'G'G z = (G'G u)'z, G'G being symmetric
        u_s, s_z = s @ u, s @ z
        f_z = n_f @ z[:F1]
        value = {
            "var_alpha": design.W - 1 - m + np.einsum("ij,ij->j", gu, z) - u_s * s_z / n,
            "var_psi": (np.einsum("ij,ij,i->j", u[:F1], z[:F1], n_f)
                        - (n_f @ u[:F1]) * f_z / n),
            "cov_alpha_psi": F1 - np.einsum("ij,ij->j", gu[:F1], z[:F1]) + u_s * f_z / n,
        }
        value["var_alpha_plus_psi"] = (
            value["var_alpha"] + value["var_psi"] + 2.0 * value["cov_alpha_psi"]
        )
        for c in components:
            vals[c].append(value[c] / n)
    return {c: np.concatenate(v) for c, v in vals.items()}


def hutchinson_trace_quadratic(form: QuadraticForm, probes: int, seed: int) -> tuple[float, float]:
    """trace(A S^{-1}) by Rademacher probing in the Schur space: the mean of
    the per-probe values of `_trace_probes`. Returns (estimate, MC standard
    error)."""
    _check_probes(probes)
    rng = np.random.default_rng(seed)
    vals = _trace_probes(form.design, [form.component], probes, rng)[form.component]
    return float(vals.mean()), _stderr(vals)


def _schur_rows(design: Design) -> sp.csr_matrix:
    """T, the cells x m matrix with rows t_c = g_c - contact_w / d_w for a
    cell of worker w. For u = S^{-1} b split as (a, y) over the worker block
    and the firm/covariate block, a = D^{-1}(b_a - C y) (C = contact,
    D = diag(d_w)), so (D u)_c = a_w + g_c'y = b_{a,w} / d_w + t_c'y: both
    backends read every per-cell value of a solve from T and y."""
    cells = design.cells
    d = design.d_worker[cells.worker_idx]
    contact = design.contact[cells.worker_idx]
    contact.data /= np.repeat(d, np.diff(contact.indptr))  # divided, so stayers get t = 0 exactly
    return cells.g_mat - contact  # CSR difference: zeros are not stored


def _exact_tables(design: Design, chunk: int = 512):
    """Exact leverages P_c and the B_c weights of every component, one
    per distinct (worker, firm, covariate row) cell, whose rows share them,
    from V = the inverse of the Schur complement, `chunk` cells at a time.

    Split u = S^{-1} x_o as (a, y) over the worker block and the firm/covariate
    block G of D: y = V t for t = g_o - contact_w / d_w, nonzero only on the
    worker's firms and the covariates, P_oo = 1/d_w + t'y, D u = a_{w(.)} + G y,
    ||D u||^2 = P_oo, G' D u = g_o and 1' D u = 1, so every person-year sum
    that B_oo needs is an (F-1+K)-space expression in y: sum d a^2 = P_oo -
    2 g_o'y + y'G'G y, sum d a = 1 - 1'G y, and with psi = (y_psi, 0) over
    firms: sum n psi^2, sum n psi and sum a psi = psi_{j(o)} - y_psi'(G'G y)_psi.
    """
    cells = design.cells
    n, F1 = design.n, design.F - 1
    T = _schur_rows(design)
    live = np.flatnonzero(np.diff(T.indptr))
    V = design.schur_inverse() if live.size else None
    n_firm = design.g_firm[:F1]
    g_sums = np.concatenate([n_firm, design.panel.covariates.sum(axis=0)])

    lev = 1.0 / design.d_worker[cells.worker_idx]
    # sum d a^2, sum d a, sum n psi^2, sum n psi, sum a psi; their values at y = 0
    sums = np.vstack([lev, np.ones_like(lev), np.zeros((3, lev.size))])
    for lo in range(0, live.size, chunk):
        c = live[lo : lo + chunk]
        t = T[c]
        y = np.ascontiguousarray((t @ V).T)  # column i is V t_i, V being symmetric
        lev[c] += np.asarray(t.multiply(y.T).sum(axis=1)).ravel()
        y_psi = y[:F1]
        g_y = np.asarray(cells.g_mat[c].multiply(y.T).sum(axis=1)).ravel()
        own_psi = g_y - np.einsum("ij,ji->i", design.panel.covariates[cells.rep[c]], y[F1:])
        gtg_y = design.gtg @ y
        sums[0, c] = lev[c] - 2.0 * g_y + np.einsum("ij,ij->j", y, gtg_y)
        sums[1, c] = 1.0 - g_sums @ y
        sums[2, c], sums[3, c] = n_firm @ y_psi**2, n_firm @ y_psi
        sums[4, c] = own_psi - np.einsum("ij,ij->j", y_psi, gtg_y[:F1])

    sa2, sa, sp2, sp, sap = sums
    b = {
        "var_alpha": (sa2 - sa * sa / n) / n,
        "var_psi": (sp2 - sp * sp / n) / n,
        "cov_alpha_psi": (sap - sa * sp / n) / n,
    }
    b["var_alpha_plus_psi"] = b["var_alpha"] + b["var_psi"] + 2.0 * b["cov_alpha_psi"]
    return lev, b


def _exact_table(design: Design):
    """Per cell, (P_c, {component: B_c}) of every component, built once per design."""
    if design.exact_table is None:
        design.exact_table = _exact_tables(design)
    return design.exact_table


def exact_trace_quadratic(form: QuadraticForm) -> float:
    """trace(A S^{-1}) = sum_o B_oo = sum_c B_c T_c, since sum_o x_o x_o' = S."""
    return float(_exact_table(form.design)[1][form.component] @ form.design.cells.counts)


_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _probe_sums(cells: Cells, probes: int, rng, width: int):
    """Per solve batch of b = `width` Rademacher probes z over observations
    (fewer in the last batch), the probes' per-cell sums s_c as the columns
    of a fresh (cells, b) array.

    Only the sums are drawn: a cell of T_c rows reads its T_c signs as the
    bits of ceil(T_c / 64) raw 64-bit words of the stream, the last one masked
    to its remaining low bits, and s_c = 2 popcount - T_c. Probe r reads the
    r-th run of words, as a one-at-a-time draw would, so results do not
    depend on b. Each batch is drawn in a call (`_draw_sums`), so the
    generator holds no batch it has yielded: a caller that drops its
    references frees the batch before the next draw."""
    rows = cells.counts.astype(np.int64)
    words = (rows + 63) // 64
    ends = np.cumsum(words)
    mask = np.full(ends[-1], _ALL_BITS)
    mask[ends - 1] = _ALL_BITS >> (64 - rows + 64 * (words - 1)).astype(np.uint64)
    starts = ends - words if ends[-1] > cells.size else None  # some cell has more than 64 rows
    for batch in _spans(probes, width):
        yield _draw_sums(cells, rng, batch.stop - batch.start, mask, starts)


def _draw_sums(cells: Cells, rng, k: int, mask: np.ndarray, starts) -> np.ndarray:
    """The per-cell sums of the next k probes (`_probe_sums`), as (cells, k):
    each probe's raw words masked to the cells' rows, their set bits counted,
    and the counts of each cell's words added up where `starts` (the cells'
    first words) is given."""
    bits = rng.bit_generator.random_raw(k * mask.size).reshape(k, -1)
    ones = np.bitwise_count(np.bitwise_and(bits, mask, out=bits))
    del bits
    if starts is not None:
        ones = np.add.reduceat(ones, starts, axis=1, dtype=np.int64)
    sums = np.multiply(ones.T, 2.0, order="C")
    del ones
    sums -= cells.counts[:, None]
    return sums


def _split_cells(design: Design) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """(T, movers, stayers): T (`_schur_rows`) and the indices of the mover
    and of the stayer cells. A stayer cell is the only cell of its worker and
    its row in T is zero (with covariates, its covariate row is its worker's
    mean), so each probe's value at it is a worker term: (P z)_c =
    (W's)_w / d_w, which is also the probe's mean over the cell's rows, its
    alpha map is the centred worker term and its psi map 0. Every other cell
    is a mover cell, with its own row in a batch's arrays."""
    cells = design.cells
    T = _schur_rows(design)
    alone = np.bincount(cells.worker_idx, minlength=design.W)[cells.worker_idx] == 1
    stayer = alone & (np.diff(T.indptr) == 0)
    return T, np.flatnonzero(~stayer), np.flatnonzero(stayer)


def _leverage_sums(design: Design, T: sp.csr_matrix, movers: np.ndarray, stayers: np.ndarray,
                   probes: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the sums over the probes of P^ and of M^ (`_stochastic_leverages`).

    Everything reads the probes' per-cell sums s: D'z has the worker block
    W's and the firm/covariate block G's, so its reduced right-hand side is
    T's, and (P z)_c = (W's)_w / d_w + t_c'y (`_schur_rows`). P_oo and M_oo
    are the same for the rows of a cell, so M^ is averaged over them: with
    pi = (P z)_c, sum_{o in c} (z_o - pi)^2 / T_c = (pi - s_c/T_c)^2 +
    1 - (s_c/T_c)^2, both terms >= 0. At a stayer cell pi = s_c/T_c
    (`_split_cells`), so its P^ is sum_r (s_c/T_c)^2 and the first term of its
    M^ is 0: only the mover cells and their workers have rows in a batch's
    arrays besides s."""
    cells = design.cells
    workers, worker_of = np.unique(cells.worker_idx[movers], return_inverse=True)
    d = design.d_worker[workers, None]
    # formed once, not per batch
    T_t, worker_t, T_movers = T.T, cells.worker_mat.T.tocsr()[workers], T[movers]
    p_hat = np.zeros(cells.size)
    m_hat = np.zeros(cells.size)
    for sums in _probe_sums(cells, probes, rng, _width(design, cells.size)):
        y = design.solve_schur(T_t @ sums, CG_TOL)[0]
        pz = worker_t @ sums
        pz /= d
        pz = pz[worker_of]
        pz += T_movers @ y
        p_hat[movers] += np.einsum("ij,ij->i", pz, pz)
        sums /= cells.counts[:, None]  # each probe's mean over the cell's rows
        pz -= sums[movers]
        m_hat[movers] += np.einsum("ij,ij->i", pz, pz)
        del pz
        squares = np.einsum("ij,ij->i", sums, sums)
        p_hat[stayers] += squares[stayers]
        m_hat += sums.shape[1] - squares
        del sums  # one batch alive at a time: freed before the next draw
    return p_hat, m_hat


def _stochastic_leverages(design: Design, T: sp.csr_matrix, movers: np.ndarray,
                          stayers: np.ndarray, probes: int, rng) -> np.ndarray:
    """JLA leverage estimates P^/(P^ + M^) per cell, which lie in (0, 1].

    With S w_r = D' z_r, z_r Rademacher over observations, D w_r = P z_r and
    z_r - D w_r = M z_r, so P^_oo = mean_r (D w_r)_o^2 and
    M^_oo = mean_r (z_r - D w_r)_o^2 estimate P_oo and M_oo = 1 - P_oo without
    bias from the same solves (Kline, Saggio & Solvsten 2020). The ratio is
    not unbiased, but unlike P^ alone it cannot reach one unless M^_oo = 0.

    Per probe, O(cells) to draw and O(mover cells + nnz(T) + W) besides the
    solve (`_leverage_sums`); memory is one batch's arrays."""
    p_hat, m_hat = _leverage_sums(design, T, movers, stayers, probes, rng)
    m_hat += p_hat
    return np.divide(p_hat, m_hat, out=m_hat)


def _cell_maps(design: Design, components: list[str], T: sp.csr_matrix, movers: np.ndarray,
               stayers: np.ndarray, probes: int, rng):
    """Per batch of Rademacher probes z over observations, (maps, stay):
    maps[b] = D S^{-1} H_b' z at the mover cells (movers x batch) for each
    distinct observation map b of the components (H_b its centred selector),
    the maps' reduced right-hand sides solved together in one Schur-space
    solve, and stay = the alpha and alpha_plus_psi map at the stayer cells
    (stayers x batch); their psi map is 0 (`_split_cells`).

    H_b' z is block b's incidence applied to centred z: W's~ = W's - d zbar on
    the workers for an alpha map, F's~ = F's - n_F zbar on the non-reference
    firms for a psi map, s the probes' per-cell sums and zbar their means over
    observations. Its reduced right-hand side is (F's~, 0) - C'(W's~ / d), and
    its value at a cell (W's~)_w / d_w + t_c'y (`_schur_rows`), at a stayer
    cell the first term alone. The caller drops its references to a batch
    before asking for the next, so one batch is alive at a time."""
    cells = design.cells
    F1 = design.F - 1
    blocks = list(dict.fromkeys(b for c in components for b in COMPONENTS[c]))
    worker_t, contact_t, g_t = cells.worker_mat.T, design.contact.T, cells.g_mat.T
    T_movers = T[movers]
    at_movers, at_stayers = cells.worker_idx[movers], cells.worker_idx[stayers]
    d, n_firm = design.d_worker[:, None], design.g_firm[:F1]
    for sums in _probe_sums(cells, probes, rng, _width(design, cells.size)):
        mean = sums.sum(axis=0) / design.n
        worker = worker_t @ sums
        psi_rhs = (g_t @ sums)[:F1]
        del sums  # read through these aggregates alone
        worker /= d
        worker -= mean
        psi_rhs -= np.outer(n_firm, mean)
        k = mean.size
        alpha_rhs = contact_t @ worker
        alpha, stay = worker[at_movers], worker[at_stayers]
        del worker
        rhs = np.zeros((T.shape[1], len(blocks) * k))
        for i, b in enumerate(blocks):
            if b in ("alpha", "alpha_plus_psi"):
                rhs[:, i * k : (i + 1) * k] -= alpha_rhs
            if b in ("psi", "alpha_plus_psi"):
                rhs[:F1, i * k : (i + 1) * k] += psi_rhs
        y = design.solve_schur(rhs, CG_TOL)[0]
        del rhs
        values = T_movers @ y
        del y
        maps = {b: values[:, i * k : (i + 1) * k] for i, b in enumerate(blocks)}
        for b in blocks:
            if b in ("alpha", "alpha_plus_psi"):
                maps[b] += alpha
        del alpha
        yield maps, stay
        del maps, values, stay


def compute_leverages(
    panel: Panel,
    conn: ConnectedSet | None = None,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    component: str = "var_psi",
    seed: int = 0,
) -> LeverageTable:
    """Per-observation leverages and component weights on a connected set (a
    disconnected one is a DataError, as in `estimate`).

    Exact backend: one y = V t per distinct (worker, firm, covariate row) cell,
    broadcast to its observations; the leverages sum to the design rank.
    Stochastic backend: JLA-normalized leverages P^/(P^ + M^) in (0, 1] and
    unbiased Rademacher-probe weights B_oo, with the same probes for every
    block width. The ratio is not unbiased; the small-sample nonlinearity it
    and 1/(1 - P_oo) induce downstream is documented and left uncorrected.
    """
    _check_backend(backend, probes)
    _check_component(component)
    est_panel = panel if conn is None else restrict_panel(panel, conn.workers, conn.firms)
    check_connected(est_panel)
    design = Design(est_panel)
    if backend == "exact":
        lev, weights = _exact_table(design)
        bw, probes = weights[component], 0
    else:
        rng = np.random.default_rng(seed)
        T, movers, stayers = _split_cells(design)
        lev = _stochastic_leverages(design, T, movers, stayers, probes, rng)
        # per probe, the weight product averages to n * B_oo (Rademacher
        # coordinates are independent)
        left, right = COMPONENTS[component]
        bw = np.zeros(design.cells.size)
        for maps, stay in _cell_maps(design, [component], T, movers, stayers, probes, rng):
            bw[movers] += np.einsum("ij,ij->i", maps[left], maps[right])
            if "psi" not in (left, right):  # a stayer cell's psi map is 0
                bw[stayers] += np.einsum("ij,ij->i", stay, stay)
            del maps, stay
        bw /= probes * design.n
    inverse = design.cells.inverse  # a cell's rows share its values
    return LeverageTable(
        leverage=lev[inverse],
        component_weight=bw[inverse],
        component=component,
        backend=backend,
        probes_used=probes,
    )


def _sigma2(estimates: Estimates) -> float:
    if estimates.dof < 1:
        raise DataError("no residual degrees of freedom: cannot estimate sigma^2")
    return estimates.rss / estimates.dof


def _leave_out_sums(design: Design, estimates: Estimates, lev: np.ndarray,
                    probes: int | None = None) -> np.ndarray:
    """Per cell, sum_{o in c} y_o resid_o / (1 - P_c): the sum of its rows'
    leave-one-out variances sigma2_o, the rows sharing the cell's leverage
    P_c, exact or (from `probes` probes) a JLA estimate."""
    _require_below_one(lev, probes)
    return design.cells.sums(design.panel.log_wage * estimates.residuals) / (1.0 - lev)


def _leave_out_probes(estimates: Estimates, components: list[str], probes: int, rng) -> dict:
    """Per-probe z'Hl S^{-1} D' diag(sigma2_o) D S^{-1} Hr' z / n of every named
    component, whose mean over probes is sum_o B_oo sigma2_o, sigma2_o the
    leave-one-out variances from one JLA leverage estimate: 1 + b solved
    columns per probe for the components' b distinct observation maps."""
    design = estimates.design
    T, movers, stayers = _split_cells(design)
    lev = _stochastic_leverages(design, T, movers, stayers, probes, rng)
    sigma2_cell = _leave_out_sums(design, estimates, lev, probes)
    sigma2_movers, sigma2_stayers = sigma2_cell[movers], sigma2_cell[stayers]
    vals = {c: [] for c in components}
    for maps, stay in _cell_maps(design, components, T, movers, stayers, probes, rng):
        for c in components:
            left, right = COMPONENTS[c]
            v = np.einsum("ij,ij,i->j", maps[left], maps[right], sigma2_movers)
            if "psi" not in (left, right):  # a stayer cell's psi map is 0
                v += np.einsum("ij,ij,i->j", stay, stay, sigma2_stayers)
            vals[c].append(v / design.n)
        del maps, stay
    return {c: np.concatenate(v) for c, v in vals.items()}


def _corrections(estimates: Estimates, components: list[str], method: str, backend: str,
                 plug: Decomposition, probes: int, seed: int) -> dict:
    """The named components' CorrectionResults on the fit's Design, plug-ins
    read from `plug`, the plug-in decomposition of the fit. A component's
    correction is the mean of its values, times sigma2hat for the
    homoskedastic trace: on the exact backend one value, sum_c B_c w_c over
    the cells' table (w_c = T_c for the trace, the cell's sum of sigma2_o for
    the leave-out); on the stochastic backend one per probe of the stream
    default_rng(seed), shared by every component, so a decomposition pays for
    its solves once, and each component's mc_stderr is the standard error of
    its own values (their errors are correlated)."""
    design = estimates.design
    homoskedastic = method == "homoskedastic_trace"
    scale = _sigma2(estimates) if homoskedastic else 1.0  # leave-out values carry each sigma2_o
    if backend == "exact":
        lev, weights = _exact_table(design)
        w = design.cells.counts if homoskedastic else _leave_out_sums(design, estimates, lev)
        vals = {c: np.array([weights[c] @ w]) for c in components}
        stochastic = {}
    else:
        rng = np.random.default_rng(seed)
        if homoskedastic:
            vals = _trace_probes(design, components, probes, rng)
        else:
            vals = _leave_out_probes(estimates, components, probes, rng)
        stochastic = {"probes_used": probes, "seed": seed}
    plug_in = _plug_ins(plug)
    results = {}
    for c in components:
        v = vals[c]
        correction = scale * float(v.mean())
        results[c] = CorrectionResult(
            component=c,
            plug_in=plug_in[c],
            correction=correction,
            corrected=plug_in[c] - correction,
            method=method,
            backend=backend,
            mc_stderr=scale * _stderr(v) if v.size > 1 else 0.0,
            **stochastic,
        )
    return results


def _check_backend(backend: str, probes: int) -> None:
    if backend not in BACKENDS:
        raise ConfigError(f"unknown backend {backend!r}")
    if backend == "stochastic":
        _check_probes(probes)


def _check_component(component: str) -> None:
    """A component is named by a key of COMPONENTS, and by nothing else."""
    if not isinstance(component, str) or component not in COMPONENTS:
        raise ConfigError(f"unknown component {component!r}: one of {', '.join(COMPONENTS)}")


def _check_probes(probes: int) -> None:
    if probes < 2:
        raise ConfigError(
            f"probes={probes}: the stochastic backend needs at least 2 probes, "
            f"the fewest that give a Monte Carlo standard error"
        )


def _correct_one(panel: Panel, estimates: Estimates, component: str, method: str,
                 backend: str, probes: int, seed: int) -> CorrectionResult:
    _check_component(component)
    plug = decompose_variance(panel, estimates)  # raises if the fit is not of `panel`
    _check_backend(backend, probes)
    return _corrections(estimates, [component], method, backend, plug, probes, seed)[component]


def correct_homoskedastic(
    panel: Panel,
    estimates: Estimates,
    component: str,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
) -> CorrectionResult:
    """Trace-based correction under a common idiosyncratic variance."""
    return _correct_one(panel, estimates, component, "homoskedastic_trace", backend, probes, seed)


def correct_leave_out(
    panel: Panel,
    estimates: Estimates,
    component: str,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
) -> CorrectionResult:
    """Leave-one-out correction allowing unrestricted variance heterogeneity.

    The estimation set must be leave-one-out connected: an exact leverage at
    or above one is reported as a data error rather than clipped, a
    stochastic one as a numerical error.
    """
    return _correct_one(panel, estimates, component, "leave_out", backend, probes, seed)


def _require_below_one(lev: np.ndarray, probes: int | None = None) -> None:
    """Reject leverages at or above one: on exact leverages the set is not
    leave-one-out connected; a JLA-normalized estimate reaches one only when
    every probe gave M^_oo = 0, which more probes make unlikely."""
    worst = float(lev.max())
    if worst < LEVERAGE_CAP:
        return
    if probes is None:
        raise DataError(
            f"an observation has leverage {worst:.12f} >= 1: the estimation set "
            f"is not leave-one-out connected"
        )
    raise NumericalError(
        f"a Monte Carlo leverage estimate is {worst:.6f} >= 1 at probes={probes}; "
        f"use more probes or backend='exact'"
    )


def corrected_decomposition(
    panel: Panel,
    estimates: Estimates,
    method: str,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
) -> Decomposition:
    """Decomposition with var_alpha, var_psi, and the covariance corrected by
    the chosen method; the residual is recomputed as total minus the corrected
    systematic components so additivity is preserved by construction. Its
    `mc_stderr` holds each corrected component's Monte Carlo standard error
    (twice the covariance's for cov2; zeros on the exact backend), `plug_in`
    the decomposition it corrects."""
    if method not in ("homoskedastic_trace", "leave_out"):
        raise ConfigError(f"unknown correction method {method!r}")
    _check_backend(backend, probes)
    plug = decompose_variance(panel, estimates)
    components = ["var_alpha", "var_psi", "cov_alpha_psi"]
    results = _corrections(estimates, components, method, backend, plug, probes, seed)

    var_alpha = results["var_alpha"].corrected
    var_psi = results["var_psi"].corrected
    cov2 = 2.0 * results["cov_alpha_psi"].corrected
    mc_stderr = {
        "var_alpha": results["var_alpha"].mc_stderr,
        "var_psi": results["var_psi"].mc_stderr,
        "cov2": 2.0 * results["cov_alpha_psi"].mc_stderr,
    }
    components = {
        "var_alpha": var_alpha,
        "var_psi": var_psi,
        "cov2": cov2,
        "var_resid": plug.total - var_alpha - var_psi - cov2,
    }
    for name in ("var_alpha", "var_psi"):
        if components[name] < 0:
            warnings.warn(
                f"corrected {name} is negative ({components[name]:.3e}); "
                f"reported as-is, not clamped",
                stacklevel=2,
            )
    flavor = "homoskedastic_corrected" if method == "homoskedastic_trace" else "leave_out_corrected"
    dec = Decomposition.from_components(components, flavor, total=plug.total, mc_stderr=mc_stderr)
    return replace(dec, plug_in=plug)
