"""Variance decompositions of log wages into worker, firm, sorting, and
residual components.

All moments are person-year weighted (each observation counts once) with
population denominators, so the plug-in decomposition is exactly additive:

    Var(Y - X beta) = Var(alpha_i) + Var(psi_{j(it)})
                      + 2 Cov(alpha_i, psi_{j(it)}) + Var(resid)

The firm effect enters evaluated at the realized match, so the covariance
term measures sorting: it is zero when matching is unrelated to the effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .panel import Panel
from .solver import Estimates

CORE_COMPONENTS = ("var_alpha", "var_psi", "cov2", "var_resid")


def _pvar(x: np.ndarray) -> float:
    return float(np.var(x))


def _pcov(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a - a.mean()) * (b - b.mean())))


def core_components(alpha_obs: np.ndarray, psi_obs: np.ndarray, resid: np.ndarray) -> dict:
    """Person-year moments of per-observation worker effects, firm effects
    and residuals: the four CORE_COMPONENTS."""
    return {
        "var_alpha": _pvar(alpha_obs),
        "var_psi": _pvar(psi_obs),
        "cov2": 2.0 * _pcov(alpha_obs, psi_obs),
        "var_resid": _pvar(resid),
    }


@dataclass(frozen=True)
class Decomposition:
    """Named variance components, their shares of the total, and provenance tags."""

    total: float
    components: dict
    shares: dict
    flavor: str
    weighting: str = "person_year"
    corr_alpha_psi: float = float("nan")
    # Monte Carlo standard error of each bias-corrected component (0.0 for an
    # exact correction); empty for an uncorrected decomposition
    mc_stderr: dict = field(default_factory=dict)
    # the plug-in decomposition a corrected one was built from, else None
    plug_in: Decomposition | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_components(cls, components: dict, flavor: str = "plug_in",
                        total: float | None = None,
                        mc_stderr: dict | None = None) -> "Decomposition":
        """Build a decomposition from component values, adding each one's share
        of `total` (default: the components' sum), the implied alpha-psi
        correlation and the corrected components' Monte Carlo errors."""
        total = float(sum(components.values())) if total is None else total
        shares = {k: v / total for k, v in components.items()} if total else {}
        nan = float("nan")
        product = components.get("var_alpha", nan) * components.get("var_psi", nan)
        corr = 0.5 * components.get("cov2", nan) / np.sqrt(product) if product > 0 else nan
        return cls(
            total=total,
            components=dict(components),
            shares=shares,
            flavor=flavor,
            corr_alpha_psi=float(corr),
            mc_stderr=dict(mc_stderr or {}),
        )

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "total": self.total,
            "flavor": self.flavor,
            "weighting": self.weighting,
            "shares": dict(self.shares),
            "corr_alpha_psi": self.corr_alpha_psi,
        }
        if self.mc_stderr:
            out["mc_stderr"] = dict(self.mc_stderr)
        out.update(self.components)
        return out


@dataclass(frozen=True)
class BetweenWithinSplit:
    between_firm_variance: float
    within_firm_variance: float

    @property
    def total(self) -> float:
        return self.between_firm_variance + self.within_firm_variance


def _check_fit(panel: Panel, estimates: Estimates) -> None:
    """Raise DataError unless `estimates` were computed on `panel`: the same
    observations and log wages."""
    if estimates.panel.n_obs != panel.n_obs or not np.array_equal(
        estimates.panel.log_wage, panel.log_wage
    ):
        raise DataError("estimates were not computed on this panel")


def decompose_variance(panel: Panel, estimates: Estimates, include_covariates: bool = False) -> Decomposition:
    """Plug-in decomposition of wage variance on the estimation panel.

    With include_covariates=False the object decomposed is Var(Y - X beta);
    with True it is Var(Y), adding the covariate-index variance and its two
    covariance terms. Residual orthogonality from the solver guarantees the
    components sum to the total up to rounding.
    """
    _check_fit(panel, estimates)
    a = estimates.alpha_obs()
    p = estimates.psi_obs()
    xb = estimates.xb_obs()

    components = core_components(a, p, estimates.residuals)
    if include_covariates:
        components["var_xb"] = _pvar(xb)
        components["cov_xb_alpha2"] = 2.0 * _pcov(xb, a)
        components["cov_xb_psi2"] = 2.0 * _pcov(xb, p)
        total = _pvar(panel.log_wage)
    else:
        total = _pvar(panel.log_wage - xb)
    return Decomposition.from_components(components, "plug_in", total=total)


def between_within_split(panel: Panel, estimates: Estimates | None = None) -> BetweenWithinSplit:
    """Person-year-weighted ANOVA split of wage variance by firm.

    Decomposes Var(Y), or Var(Y - X beta) when estimates are supplied, into
    the variance of firm means plus the mean within-firm variance.
    """
    y = panel.log_wage
    if estimates is not None:
        _check_fit(panel, estimates)
        y = y - estimates.xb_obs()
    firm_sums = np.bincount(panel.firm_idx, weights=y, minlength=panel.n_firms)
    firm_counts = np.bincount(panel.firm_idx, minlength=panel.n_firms)
    firm_means = firm_sums / np.maximum(firm_counts, 1)
    mean_obs = firm_means[panel.firm_idx]
    between = _pvar(mean_obs)
    within = float(np.mean((y - mean_obs) ** 2))
    return BetweenWithinSplit(between_firm_variance=between, within_firm_variance=within)


@dataclass(frozen=True)
class ChangeTable:
    """Per-component change between two decompositions."""

    changes: dict
    total_change: float
    shares_of_change: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "total_change": self.total_change,
            "changes": dict(self.changes),
            "shares_of_change": dict(self.shares_of_change),
        }


def compare_decompositions(a: Decomposition, b: Decomposition) -> ChangeTable:
    """Component-by-component change from `a` to `b` and each component's
    share of the total change."""
    if set(a.components) != set(b.components):
        raise DataError(
            f"component sets differ: {sorted(a.components)} vs {sorted(b.components)}"
        )
    changes = {k: b.components[k] - a.components[k] for k in a.components}
    total_change = b.total - a.total
    if total_change != 0.0:
        shares = {k: v / total_change for k, v in changes.items()}
    else:
        shares = {k: float("nan") if v else 0.0 for k, v in changes.items()}
    return ChangeTable(changes=changes, total_change=total_change, shares_of_change=shares)
