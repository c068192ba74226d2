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

Each correction runs on an exact backend or a stochastic one (Rademacher
probes, Schur-space solves) for scale, on the fit's own Design
(`Estimates.design`: the one a conjugate-gradient fit solved on, so a
correction builds no second Design). The rows of one distinct (worker, firm,
covariate row) cell (`Design.cells`) share their P_oo and B_oo, so the exact
backend builds one (P_c, B_c) table per cell, for all components, keeps it on
the Design for every exact correction of that fit, and takes each correction
as one sum over the cells, sum_c B_c w_c: w_c = T_c, the cell's rows, for the
trace (sum_o x_o x_o' = S, so trace(A S^{-1}) = sum_o B_oo), the cell's sum of
sigma_o^2 for the leave-out. Per cell it forms y = V t, V the explicit inverse
of the m = (F-1+K)-dimensional Schur complement of S (`Design.schur_inverse`,
in place of a direct fit's kept factor) and t sparse, and every B_c from sums
in that space: O(m^3) for V plus O(m * nnz(t)) per mover cell (stayer cells
without covariates need no product). Memory is one m x m array while the table
is built, plus chunk * m per block of cells, then 5 floats per cell kept.
Quadratic-form matrices are never materialized.

The stochastic backend works in the same Schur space. The homoskedastic
trace probes are Rademacher over the m Schur coordinates, O(m) to draw: one
solve u = V z per probe, each form's value, centring included, read from u,
z and G'G u (`_trace_probes`). The leave-out probes work on the distinct
cells (`Design.cells`). A leave-out probe z over observations exists only as
its per-cell sums s_c: the T_c signs of a cell are the bits of
ceil(T_c / 64) raw 64-bit words of the stream, so s_c = 2 popcount - T_c,
O(cells) to draw. D'z, P z, the alpha and psi weight maps and the JLA M^
(averaged over each cell's rows) read only s, and every solve runs in the
Schur space through T (`_schur_rows`), the cells' reduced rows:
O(cells + nnz(T)) per probe outside the solve, with no pass over
observations (sigma2_o is reduced to per-cell sums once per call). Per-cell
values are weighted by the cell's sum of sigma2_o.
Every probe solve runs on the Design's own Schur solver (`Design.solve_schur`),
chosen once per Design and shared with the fit: one cho_solve on the dense
Cholesky factor the Design keeps from its first solve, O(m^2 b) per batch,
when that factor fits one probe temporary (8 m^2 <= PROBE_BLOCK_BYTES);
otherwise one batched CG run against the sparse m x m Schur complement,
O(iterations * nnz(Schur) * b). Each stage solves its probes in batches of
b = PROBE_BLOCK_BYTES // (8 cells) columns (8m for the trace probes), at
least 1 on the dense factor and at least CG_MIN_WIDTH under CG (`_width`);
the sparse transposes a leave-out batch reads are formed once per stage.
Probes follow the seeded stream in one-at-a-time order, so the draws do not
depend on the width; sums over a batch's columns do, in their last bits.
Leave-out leverages are JLA-normalized, P^/(P^ + M^), so they stay below one.
All components of one call share one probe stream, default_rng(seed): at P
probes a homoskedastic decomposition solves P columns (one V z serves every
form), a leave-out one P * (1 + distinct observation maps) = 3P (one
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
from .design import PROBE_BLOCK_BYTES, Cells, Design
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
DEFAULT_CG_TOL = 1e-8
# The fewest probes in a batch solved by CG: one CG iteration on k columns
# costs much less than k iterations on one column, and PROBE_BLOCK_BYTES holds
# a single cell-length column once cells exceed 32k. Chosen at 1M observations
# (128.6k cells): 4 columns cut the stochastic leave-out by about a third at
# a peak a few MB higher; 8 cut it by about 40% at a peak some 40 MB higher.
CG_MIN_WIDTH = 4


@dataclass(frozen=True)
class QuadraticForm:
    """One variance component (a key of COMPONENTS) on one Design, validated
    on construction: the handle that the trace functions and the correction
    engines take. `blocks` names the two per-observation effects (alpha, psi
    or their sum) whose person-year covariance the component is."""

    component: str
    design: Design

    def __post_init__(self):
        if self.component not in COMPONENTS:
            raise ConfigError(f"unknown component {self.component!r}")

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


def _trace_probes(forms: list[QuadraticForm], probes: int, rng, cg_tol: float) -> dict:
    """Per-probe estimates of trace(A S^{-1}) of every form, z Rademacher over
    the m Schur coordinates: one solve u = V z per probe (V = Schur^{-1},
    `Design.solve_schur`, CG at `cg_tol`) serves all forms.

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
    design = forms[0].design
    n, F1, m = design.n, design.F - 1, design.m
    s = np.concatenate([design.g_firm[:F1], design.panel.covariates.sum(axis=0)])
    n_f = s[:F1]
    vals = {f.component: [] for f in forms}
    for batch in _spans(probes, _width(design, max(m, 1))):
        z = _rademacher(rng, batch, m).T.astype(np.float64, order="C")
        u = design.solve_schur(z, cg_tol)[0]
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
        for f in forms:
            vals[f.component].append(value[f.component] / n)
    return {c: np.concatenate(v) for c, v in vals.items()}


def hutchinson_trace_quadratic(
    form: QuadraticForm, probes: int, seed: int, cg_tol: float = DEFAULT_CG_TOL
) -> tuple[float, float]:
    """trace(A S^{-1}) by Rademacher probing in the Schur space: the mean of
    the per-probe values of `_trace_probes`. Returns (estimate, MC standard
    error)."""
    _check_probes(probes)
    vals = _trace_probes([form], probes, np.random.default_rng(seed), cg_tol)[form.component]
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


def _exact_tables(design: Design, forms: list[QuadraticForm], chunk: int = 512):
    """Exact leverages P_c and the B_c weights of every requested form, one
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
    return lev, {f.component: b[f.component] for f in forms}


def _exact_table(design: Design):
    """Per cell, (P_c, {component: B_c}) of every component, built once per design."""
    if design.exact_table is None:
        design.exact_table = _exact_tables(design, [QuadraticForm(c, design) for c in COMPONENTS])
    return design.exact_table


def exact_trace_quadratic(form: QuadraticForm) -> float:
    """trace(A S^{-1}) = sum_o B_oo = sum_c B_c T_c, since sum_o x_o x_o' = S."""
    return float(_exact_table(form.design)[1][form.component] @ form.design.cells.counts)


_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _probe_sums(cells: Cells, probes: int, rng, width: int):
    """Per solve batch of b = `width` Rademacher probes z over observations
    (fewer in the last batch), the probes' per-cell sums s_c as the columns
    of a (cells, b) array.

    Only the sums are drawn: a cell of T_c rows reads its T_c signs as the
    bits of ceil(T_c / 64) raw 64-bit words of the stream, the last one masked
    to its remaining low bits, and s_c = 2 popcount - T_c. Probe r reads the
    r-th run of words, as a one-at-a-time draw would, so results do not
    depend on b."""
    rows = cells.counts.astype(np.int64)
    words = (rows + 63) // 64
    ends = np.cumsum(words)
    mask = np.full(ends[-1], _ALL_BITS)
    mask[ends - 1] = _ALL_BITS >> (64 - rows + 64 * (words - 1)).astype(np.uint64)
    long_cells = ends[-1] > cells.size  # some cell has more than 64 rows
    for batch in _spans(probes, width):
        k = batch.stop - batch.start
        bits = rng.bit_generator.random_raw(k * ends[-1]).reshape(k, -1)
        ones = np.bitwise_count(np.bitwise_and(bits, mask, out=bits))
        del bits
        if long_cells:
            ones = np.add.reduceat(ones, ends - words, axis=1, dtype=np.int64)
        sums = np.multiply(ones.T, 2.0, order="C")
        del ones
        sums -= cells.counts[:, None]
        yield sums


def _stochastic_leverages(design: Design, T: sp.csr_matrix, probes: int, rng,
                          cg_tol: float) -> np.ndarray:
    """JLA leverage estimates P^/(P^ + M^) per cell, which lie in (0, 1].

    With S w_r = D' z_r, z_r Rademacher over observations, D w_r = P z_r and
    z_r - D w_r = M z_r, so P^_oo = mean_r (D w_r)_o^2 and
    M^_oo = mean_r (z_r - D w_r)_o^2 estimate P_oo and M_oo = 1 - P_oo without
    bias from the same solves (Kline, Saggio & Solvsten 2020). The ratio is
    not unbiased, but unlike P^ alone it cannot reach one unless M^_oo = 0.

    Everything reads the probes' per-cell sums s: D'z has the worker block
    W's and the firm/covariate block G's, so its reduced right-hand side is
    T's, and (P z)_c = (W's)_w / d_w + t_c'y (`_schur_rows`). P_oo and M_oo
    are the same for the rows of a cell, so M^ is averaged over them: with
    pi = (P z)_c, sum_{o in c} (z_o - pi)^2 / T_c = (pi - s_c/T_c)^2 +
    1 - (s_c/T_c)^2, both terms >= 0.
    """
    cells = design.cells
    d = design.d_worker[:, None]
    T_t, worker_t = T.T, cells.worker_mat.T  # formed once, not per batch
    p_hat = np.zeros(cells.size)
    m_hat = np.zeros(cells.size)
    for sums in _probe_sums(cells, probes, rng, _width(design, cells.size)):
        pz = T @ design.solve_schur(T_t @ sums, cg_tol)[0]
        pz += ((worker_t @ sums) / d)[cells.worker_idx]
        p_hat += np.einsum("ij,ij->i", pz, pz)
        sums /= cells.counts[:, None]  # each probe's mean over the cell's rows
        pz -= sums
        m_hat += np.einsum("ij,ij->i", pz, pz)
        m_hat += sums.shape[1] - np.einsum("ij,ij->i", sums, sums)
    m_hat += p_hat
    return np.divide(p_hat, m_hat, out=m_hat)


def _cell_maps(forms: list[QuadraticForm], T: sp.csr_matrix, probes: int, rng, cg_tol: float):
    """Per batch of Rademacher probes z over observations, {b: D S^{-1} H_b' z}
    per cell (cells x batch) for each distinct observation map b of the forms
    (H_b its centered selector), the maps' reduced right-hand sides solved
    together in one Schur-space solve.

    H_b' z is block b's incidence applied to centered z: W's~ on the workers
    for an alpha map, F's~ on the non-reference firms for a psi map, s~ the
    probes' centered per-cell sums. Its reduced right-hand side is
    (F's~, 0) - C'(W's~ / d), and its value per cell (W's~)_w / d_w + t_c'y
    (`_schur_rows`)."""
    design = forms[0].design
    cells = design.cells
    F1 = design.F - 1
    blocks = list(dict.fromkeys(b for f in forms for b in f.blocks))
    worker_t, contact_t, g_t = cells.worker_mat.T, design.contact.T, cells.g_mat.T
    for sums in _probe_sums(cells, probes, rng, _width(design, cells.size)):
        # per cell, the probe's sum minus the cell's person-years times its mean
        sums -= np.outer(cells.counts, sums.sum(axis=0) / design.n)
        k = sums.shape[1]
        worker = (worker_t @ sums) / design.d_worker[:, None]
        alpha_rhs = contact_t @ worker
        psi_rhs = (g_t @ sums)[:F1]
        rhs = np.zeros((T.shape[1], len(blocks) * k))
        for i, b in enumerate(blocks):
            if b in ("alpha", "alpha_plus_psi"):
                rhs[:, i * k : (i + 1) * k] -= alpha_rhs
            if b in ("psi", "alpha_plus_psi"):
                rhs[:F1, i * k : (i + 1) * k] += psi_rhs
        y = design.solve_schur(rhs, cg_tol)[0]
        del rhs
        values = T @ y
        del y
        maps = {b: values[:, i * k : (i + 1) * k] for i, b in enumerate(blocks)}
        worker = worker[cells.worker_idx]
        for b in blocks:
            if b in ("alpha", "alpha_plus_psi"):
                maps[b] += worker
        yield maps
        maps.clear()  # the caller is done with them: free them before the next draw


def compute_leverages(
    panel: Panel,
    conn: ConnectedSet | None = None,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    component: str = "var_psi",
    seed: int = 0,
    cg_tol: float = DEFAULT_CG_TOL,
) -> LeverageTable:
    """Per-observation leverages and component weights on a connected set.

    Exact backend: one y = V t per distinct (worker, firm, covariate row) cell,
    broadcast to its observations; the leverages sum to the design rank.
    Stochastic backend: JLA-normalized leverages P^/(P^ + M^) in (0, 1] and
    unbiased Rademacher-probe weights B_oo, with the same probes for every
    block width. The ratio is not unbiased; the small-sample nonlinearity it
    and 1/(1 - P_oo) induce downstream is documented and left uncorrected.
    """
    _check_backend(backend, probes)
    est_panel = panel if conn is None else restrict_panel(panel, conn.workers, conn.firms)
    design = Design(est_panel)
    form = QuadraticForm(component=component, design=design)
    if backend == "exact":
        lev, weights = _exact_table(design)
        bw, probes = weights[component], 0
    else:
        rng = np.random.default_rng(seed)
        T = _schur_rows(design)
        lev = _stochastic_leverages(design, T, probes, rng, cg_tol)
        # per probe, the weight product averages to n * B_oo (Rademacher
        # coordinates are independent)
        left, right = form.blocks
        bw = np.zeros(design.cells.size)
        for maps in _cell_maps([form], T, probes, rng, cg_tol):
            bw += np.einsum("ij,ij->i", maps[left], maps[right])
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


def _leave_out_probes(estimates: Estimates, forms: list[QuadraticForm], probes: int,
                      rng, cg_tol: float) -> dict:
    """Per-probe z'Hl S^{-1} D' diag(sigma2_o) D S^{-1} Hr' z / n of every form,
    whose mean over probes is sum_o B_oo sigma2_o, sigma2_o the leave-one-out
    variances from one JLA leverage estimate: 1 + b solved columns per probe
    for the forms' b distinct observation maps."""
    design = forms[0].design
    T = _schur_rows(design)
    lev = _stochastic_leverages(design, T, probes, rng, cg_tol)
    sigma2_cell = _leave_out_sums(design, estimates, lev, probes)
    vals = {f.component: [] for f in forms}
    for maps in _cell_maps(forms, T, probes, rng, cg_tol):
        for f in forms:
            left, right = f.blocks
            v = np.einsum("ij,ij,i->j", maps[left], maps[right], sigma2_cell)
            vals[f.component].append(v / design.n)
    return {c: np.concatenate(v) for c, v in vals.items()}


def _corrections(estimates: Estimates, forms: list[QuadraticForm], method: str, backend: str,
                 plug: Decomposition, probes: int, seed: int, cg_tol: float) -> dict:
    """The forms' CorrectionResults, plug-ins read from `plug`, the plug-in
    decomposition of the fit. A form's correction is the mean of its values,
    times sigma2hat for the homoskedastic trace: on the exact backend one
    value, sum_c B_c w_c over the cells' table (w_c = T_c for the trace, the
    cell's sum of sigma2_o for the leave-out); on the stochastic backend one
    per probe of the stream default_rng(seed), shared by every form, so a
    decomposition pays for its solves once, and each form's mc_stderr is the
    standard error of its own values (the forms' errors are correlated)."""
    design = forms[0].design
    homoskedastic = method == "homoskedastic_trace"
    scale = _sigma2(estimates) if homoskedastic else 1.0  # leave-out values carry each sigma2_o
    if backend == "exact":
        lev, weights = _exact_table(design)
        w = design.cells.counts if homoskedastic else _leave_out_sums(design, estimates, lev)
        vals = {f.component: np.array([weights[f.component] @ w]) for f in forms}
        stochastic = {}
    else:
        rng = np.random.default_rng(seed)
        if homoskedastic:
            vals = _trace_probes(forms, probes, rng, cg_tol)
        else:
            vals = _leave_out_probes(estimates, forms, probes, rng, cg_tol)
        stochastic = {"probes_used": probes, "seed": seed}
    plug_in = _plug_ins(plug)
    results = {}
    for f in forms:
        v = vals[f.component]
        correction = scale * float(v.mean())
        results[f.component] = CorrectionResult(
            component=f.component,
            plug_in=plug_in[f.component],
            correction=correction,
            corrected=plug_in[f.component] - correction,
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


def _check_probes(probes: int) -> None:
    if probes < 2:
        raise ConfigError(
            f"probes={probes}: the stochastic backend needs at least 2 probes, "
            f"the fewest that give a Monte Carlo standard error"
        )


def _correct_one(panel: Panel, estimates: Estimates, form: QuadraticForm | str, method: str,
                 backend: str, probes: int, seed: int, cg_tol: float) -> CorrectionResult:
    plug = decompose_variance(panel, estimates)  # raises if the fit is not of `panel`
    _check_backend(backend, probes)
    if isinstance(form, str):
        form = QuadraticForm(form, estimates.design)
    results = _corrections(estimates, [form], method, backend, plug, probes, seed, cg_tol)
    return results[form.component]


def correct_homoskedastic(
    panel: Panel,
    estimates: Estimates,
    form: QuadraticForm | str,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
    cg_tol: float = DEFAULT_CG_TOL,
) -> CorrectionResult:
    """Trace-based correction under a common idiosyncratic variance."""
    return _correct_one(panel, estimates, form, "homoskedastic_trace", backend, probes, seed, cg_tol)


def correct_leave_out(
    panel: Panel,
    estimates: Estimates,
    form: QuadraticForm | str,
    backend: str = "exact",
    probes: int = DEFAULT_PROBES,
    seed: int = 0,
    cg_tol: float = DEFAULT_CG_TOL,
) -> CorrectionResult:
    """Leave-one-out correction allowing unrestricted variance heterogeneity.

    The estimation set must be leave-one-out connected: an exact leverage at
    or above one is reported as a data error rather than clipped, a
    stochastic one as a numerical error.
    """
    return _correct_one(panel, estimates, form, "leave_out", backend, probes, seed, cg_tol)


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
    cg_tol: float = DEFAULT_CG_TOL,
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
    forms = [QuadraticForm(c, estimates.design) for c in ("var_alpha", "var_psi", "cov_alpha_psi")]
    results = _corrections(estimates, forms, method, backend, plug, probes, seed, cg_tol)

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
