"""Sparse design and normal-equation solvers for the worker-firm regression.

The regression of log wages on worker indicators, firm indicators, and
covariates has one exact collinearity on a connected set (worker and firm
levels trade off one constant), so the design used here drops the last
internal firm's indicator: that firm's effect is pinned to zero and results
are re-normalized afterwards. The identified parameter vector is

    phi = (alpha_0..alpha_{W-1}, psi_0..psi_{F-2}, beta_0..beta_{K-1})

of length p = W + F - 1 + K. All solvers work on the normal equations
S phi = D' y with S = D'D, exploiting that the worker block of S is diagonal:
eliminating it leaves the Schur complement G'G - C' D_w^{-1} C of dimension
m = F - 1 + K (G the firm/covariate block of D, C = contact). It is assembled
once as a sparse m x m matrix.

A Design is the one place that decides how the Schur system is solved, once,
on first use (`direct`): when the lower Cholesky factor of its dense form
fits one PROBE_BLOCK_BYTES temporary (8 m^2 bytes, so m <= 256), the factor
is formed then and kept, and every solve is one cho_solve on it; otherwise
every solve runs Jacobi-preconditioned CG on the sparse form. The fit, the
covariate check and every stochastic probe solve go through `solve_schur`,
and the exact backend's `schur_inverse` turns the kept factor into the dense
inverse in place and drops it, so an exact correction of a fit that solved
directly forms no factor of its own.

A Design holds its panel's distinct (worker, firm, covariate row) cells
(`Design.cells`), built with it, and no observation-level copy of D: the
rows of one cell share their row of D, so D'v is the cells' rows applied to
v's per-cell sums, D phi each cell's value read by its observations, and the
contact and G'G blocks of S sum the cells' rows weighted by the observations
per cell. Both correction backends work on the same cells.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DataError, NumericalError
from .network import _components, worker_firm_incidence
from .panel import Panel

# Bytes of one float64 temporary: a Design keeps its dense Schur factor if it
# fits (8 m^2 at most). correct.py binds this value at import for its probe
# batch widths (`_width`) alone, so setting one module's name keeps the other.
PROBE_BLOCK_BYTES = 1 << 19


class Cells:
    """A panel's distinct (worker, firm, covariate row) cells and their rows of
    the design matrix D: worker indicators (`worker_mat`), then firm indicators
    without the reference firm and covariates (`g_mat`). The rows of one cell
    share their row of D, so every product of D runs on the cells' rows:
    `inverse` maps each observation to its cell, `rep` names one observation
    of each cell and `counts` holds the observations per cell (float64)."""

    def __init__(self, panel: Panel):
        # rows sorted by (worker * F + firm, covariates), stably: the cells, rep
        # and inverse of np.unique(axis=0) over (worker, firm, covariates),
        # without its n x (2+K) sort temporaries
        columns = [panel.worker_idx * panel.n_firms + panel.firm_idx, *panel.covariates.T]
        order = np.lexsort(columns[::-1])
        first = np.zeros(panel.n_obs, dtype=bool)
        first[0] = True
        for col in columns:
            col = col[order]
            first[1:] |= col[1:] != col[:-1]
        del columns, col  # freed before the three n-length arrays below
        starts = np.flatnonzero(first)
        self.rep = order[starts]
        cell = np.cumsum(first, dtype=np.intp)
        cell -= 1  # each sorted row's cell
        self.inverse = np.empty_like(cell)
        self.inverse[order] = cell
        self.counts = np.diff(starts, append=panel.n_obs).astype(np.float64)
        self.size = starts.size

        self.worker_idx = panel.worker_idx[self.rep]
        rows, ones, F = np.arange(self.size), np.ones(self.size), panel.n_firms
        self.worker_mat = sp.csr_matrix((ones, (rows, self.worker_idx)),
                                        shape=(self.size, panel.n_workers))
        firms = sp.csr_matrix((ones, (rows, panel.firm_idx[self.rep])), shape=(self.size, F))
        self.g_mat = firms[:, : F - 1].tocsr()
        if panel.covariate_count:
            covariates = sp.csr_matrix(panel.covariates[self.rep])
            self.g_mat = sp.hstack([self.g_mat, covariates]).tocsr()

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-cell sums of an observation-space array (n,) or (n, k)."""
        if v.ndim == 1:
            return np.bincount(self.inverse, v, self.size)
        return np.column_stack([np.bincount(self.inverse, col, self.size) for col in v.T])


class Design:
    """Design matrix machinery for one estimation panel, on its cells.

    Parameters
    ----------
    panel : Panel restricted to a single connected set. The last internal firm
        index is the dropped reference.
    """

    def __init__(self, panel: Panel):
        self.panel = panel
        self.n = panel.n_obs
        self.W, self.F, self.K = panel.n_workers, panel.n_firms, panel.covariate_count
        self.m = self.F - 1 + self.K  # the Schur complement's dimension
        self.p = self.W + self.m
        self.cells = Cells(panel)
        self.d_worker = np.bincount(panel.worker_idx, minlength=self.W).astype(np.float64)
        self.g_firm = np.bincount(panel.firm_idx, minlength=self.F).astype(np.float64)
        weighted = sp.diags(self.cells.counts) @ self.cells.g_mat
        self.contact = (self.cells.worker_mat.T @ weighted).tocsr()  # W x (F-1+K)
        self.exact_table = None  # per cell (P_c, {component: B_c}), see correct._exact_table
        self.schur_factor = None  # kept where `direct` holds, see solve_schur

    # -- block slices ----------------------------------------------------
    @property
    def alpha_slice(self):
        return slice(0, self.W)

    @property
    def psi_slice(self):
        return slice(self.W, self.W + self.F - 1)

    @property
    def beta_slice(self):
        return slice(self.W + self.F - 1, self.p)

    # -- design application ------------------------------------------------
    def apply(self, phi: np.ndarray) -> np.ndarray:
        """D @ phi, fitted value per observation (supports (p,) or (p, k)):
        each cell's value, read by its observations."""
        cells = self.cells
        out = cells.g_mat @ phi[self.W :]
        out += phi[self.alpha_slice][cells.worker_idx]
        return out[cells.inverse]

    def apply_T(self, v: np.ndarray) -> np.ndarray:
        """D' @ v for an observation-space v (supports (n,) or (n, k)): the
        cells' rows of D applied to v's per-cell sums."""
        cells = self.cells
        sums = cells.sums(v)
        out = np.empty((self.p,) + v.shape[1:])
        out[self.alpha_slice] = cells.worker_mat.T @ sums
        out[self.W :] = cells.g_mat.T @ sums
        return out

    # -- normal equations --------------------------------------------------
    @cached_property
    def gtg(self) -> sp.csr_matrix:
        """G'G, the firm/covariate block of S, from the cells' rows weighted by
        their counts."""
        g = self.cells.g_mat
        return (g.T @ sp.diags(self.cells.counts) @ g).tocsr()

    @cached_property
    def schur(self) -> sp.csr_matrix:
        """The m x m Schur complement G'G - C' D_w^{-1} C, C = contact."""
        dinv = sp.diags(1.0 / self.d_worker)
        return (self.gtg - self.contact.T @ dinv @ self.contact).tocsr()

    def schur_diag(self) -> np.ndarray:
        return self.schur.diagonal()

    @cached_property
    def direct(self) -> bool:
        """Whether Schur solves run on the dense Cholesky factor rather than CG:
        when the factor fits one PROBE_BLOCK_BYTES temporary (0 < 8 m^2 <=
        PROBE_BLOCK_BYTES, so m <= 256). Decided on first use, then fixed."""
        return 0 < 8 * self.m * self.m <= PROBE_BLOCK_BYTES

    def schur_cholesky(self) -> np.ndarray:
        """The lower Cholesky factor of the dense m x m Schur complement, for
        scipy.linalg.cho_solve(..., lower=True): cho_factor overwrites one
        Fortran-ordered array in place (its upper triangle keeps the Schur
        complement's entries, which cho_solve does not read). A NumericalError
        names m if the complement is not positive definite, and m, the 8 m^2
        bytes and the stochastic backend if that array cannot be allocated."""
        m = self.m
        try:
            L = self.schur.toarray(order="F")
        except MemoryError:
            raise NumericalError(
                f"the exact backend needs a dense {m} x {m} Schur matrix ({8 * m * m} "
                f"bytes), which could not be allocated; use backend='stochastic'"
            ) from None
        try:
            return scipy.linalg.cho_factor(L, lower=True, overwrite_a=True, check_finite=False)[0]
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                f"the {m} x {m} Schur complement is not positive definite ({exc})"
            ) from None

    def schur_inverse(self) -> np.ndarray:
        """V, the inverse of the dense m x m Schur complement, C-ordered (V is
        symmetric): LAPACK dpotri overwrites the kept factor in place, or a
        `schur_cholesky` factor formed here where none is kept, and its lower
        triangle is mirrored a block of rows at a time. The Design keeps no
        factor afterwards: its next direct solve forms one again."""
        V = self.schur_factor if self.schur_factor is not None else self.schur_cholesky()
        self.schur_factor = None  # V is about to overwrite it
        V, info = scipy.linalg.lapack.dpotri(V, lower=1, overwrite_c=1)
        if info:
            raise NumericalError(f"LAPACK dpotri failed on the Schur factor (info={info})")
        for lo in range(0, self.m, 256):  # rows lo:hi of the upper triangle from columns lo:hi
            hi = min(lo + 256, self.m)
            V[lo:hi, lo:] = np.triu(V[lo:, lo:hi].T) + np.tril(V[lo:hi, lo:], -1)
        return V.T

    def solve_cg(self, b: np.ndarray, rtol=1e-12, maxiter=10000):
        """S^{-1} b for b of shape (p,) or (p, k): the worker block eliminated,
        the reduced right-hand sides solved by `solve_schur`, the worker
        block back-substituted. Returns (solution, iterations of the slowest
        column), 0 for a direct solve; `rtol` and `maxiter` apply to CG only.
        """
        d = self.d_worker if b.ndim == 1 else self.d_worker[:, None]
        b_a = b[self.alpha_slice]
        y, iters = self.solve_schur(b[self.W :] - self.contact.T @ (b_a / d), rtol, maxiter)
        return np.concatenate([(b_a - self.contact @ y) / d, y]), iters

    def solve_schur(self, t: np.ndarray, rtol=1e-12, maxiter=10000):
        """Schur^{-1} t for t of shape (m,) or (m, k); returns (solution,
        iterations of the slowest column). Where `direct` holds, one cho_solve
        on the kept factor, formed on first use, and 0 iterations; otherwise
        Jacobi-preconditioned CG (`_pcg`)."""
        if not self.direct:
            return self._pcg(t, rtol, maxiter)
        if self.schur_factor is None:
            self.schur_factor = self.schur_cholesky()
        return scipy.linalg.cho_solve((self.schur_factor, True), t, check_finite=False), 0

    def _pcg(self, t: np.ndarray, rtol, maxiter):
        """Schur^{-1} t by Jacobi-preconditioned conjugate gradient; returns
        (solution, iterations of the slowest column).

        The k columns run k independent CG recurrences side by side (batched,
        not block-Krylov), so each column's result is that of a solve on its
        own; column c stops once ||r_c|| <= rtol * ||t_c||. The columns still
        iterating are kept side by side and updated in place, in preallocated
        buffers; a column is written to the solution when it stops. Cost is
        O(iterations * nnz(Schur) * k). Raises NumericalError if a column has
        not reached `rtol` within `maxiter` iterations.
        """
        m = t.shape[0]
        y = np.zeros(t.shape)
        if m == 0:  # single firm, no covariates: nothing to iterate on
            return y, 0
        schur, diag = self.schur, self.schur_diag()[:, None]
        solved = y.reshape(m, -1)
        r = t.reshape(m, -1).copy()  # residuals of the live columns
        t_norm = np.linalg.norm(r, axis=0)
        stop = rtol * t_norm
        live = np.arange(r.shape[1])  # columns still iterating
        x = np.zeros_like(r)  # their iterates
        buffers = (np.empty(r.size), np.empty(r.size))
        z, sq = (buf.reshape(r.shape) for buf in buffers)  # r / diag; r * r, then alpha * p
        p = rho_prev = None
        iters = 0
        while True:
            # each column's 2-norm, formed as np.linalg.norm(r, axis=0) forms it
            going = ~(np.sqrt(np.add.reduce(np.multiply(r, r, out=sq), axis=0)) <= stop[live])
            if not going.all():  # a NaN keeps going
                solved[:, live[~going]] = x[:, ~going]
                live, r, x = live[going], r[:, going], x[:, going]
                if p is not None:
                    p, rho_prev = p[:, going], rho_prev[going]
                if live.size == 0:
                    break
                z, sq = (buf[: r.size].reshape(r.shape) for buf in buffers)
            if iters == maxiter:
                resid = np.linalg.norm(r, axis=0) / np.maximum(t_norm[live], 1e-300)
                raise NumericalError(
                    f"conjugate gradient did not converge in {maxiter} iterations "
                    f"(relative residual {resid.max():.3e})"
                )
            np.divide(r, diag, out=z)
            rho = np.einsum("ij,ij->j", r, z)
            if p is None:
                p = z.copy()
            else:
                p *= rho / rho_prev
                p += z
            q = schur @ p
            alpha = rho / np.einsum("ij,ij->j", p, q)
            x += np.multiply(p, alpha, out=sq)
            q *= alpha
            r -= q
            rho_prev = rho
            iters += 1
        return y, iters


def check_covariate_collinearity(panel: Panel, tol=1e-10) -> None:
    """Reject covariates that cannot be separated from the worker and firm
    effects or from each other; failing here beats a singular solve.

    A column constant within every (worker, firm) cell raises
    CollinearCovariateError (conservatively: its cell-level values need not
    be additively decomposable). If the columns' within-cell deviations are
    linearly dependent, their residuals on the worker and firm effects decide
    (one batched solve), and a DataError names the columns if those are too.
    """
    from .errors import CollinearCovariateError

    if panel.covariate_count == 0:
        return
    design = Design(Panel._from_sorted(  # the worker and firm indicators alone
        panel.worker_ids, panel.firm_ids, panel.worker_idx, panel.firm_idx,
        panel.period, panel.log_wage, np.empty((panel.n_obs, 0)), ()))
    cells = design.cells  # the (worker, firm) cells
    X = panel.covariates
    resid = X - (cells.sums(X) / cells.counts[:, None])[cells.inverse]
    scale = np.maximum(1.0, np.abs(X).max(axis=0))
    flat = np.flatnonzero(np.abs(resid).max(axis=0) <= tol * scale)
    if flat.size:
        raise CollinearCovariateError(int(flat[0]), panel.covariate_names[flat[0]])
    if not _dependent_columns(resid, tol).size:
        return
    fit, _ = design.solve_cg(design.apply_T(X))
    # the solve's error, not the data, sets how small a dependent residual gets
    dependent = _dependent_columns(X - design.apply(fit), np.sqrt(tol))
    if dependent.size:
        names = ", ".join(repr(panel.covariate_names[k]) for k in dependent)
        raise DataError(
            f"covariate matrix is rank deficient: columns {names} are linearly "
            f"dependent once the worker and firm effects are removed"
        )


def _dependent_columns(M: np.ndarray, tol: float) -> np.ndarray:
    """The columns of M in a linear dependence, counting singular values of M
    scaled to unit columns at or below tol of the largest as zero."""
    _, sv, vt = np.linalg.svd(M / np.linalg.norm(M, axis=0), full_matrices=False)
    null = vt[sv <= tol * sv[0]]
    return np.flatnonzero(np.abs(null).max(axis=0, initial=0.0) > np.sqrt(tol))


def check_connected(panel: Panel) -> None:
    """Raise DataError unless the panel's firms form one connected set."""
    inc = worker_firm_incidence(panel)
    count = _components(inc)[0]  # every worker has a firm: no isolated workers
    if count > 1:
        raise DataError(
            "estimation panel is not connected: extract a connected set first "
            f"({count} components found)"
        )
