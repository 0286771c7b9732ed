"""Measured constants of standard estimates, run only by the tests.

Each check draws random fields, evaluates both sides of a Littlewood-Paley
estimate (Bahouri-Chemin-Danchin, 2011, ch. 2) and reports the measured
ratios as an `lp.CheckReport`; the tests bound the ratio or its slope
against the scale.
"""

import numpy as np

from paratorus.errors import ConfigurationError
from paratorus.lp import (
    BesovIndex,
    CheckReport,
    DyadicPartition,
    besov_norm,
    random_field_with_decay,
)
from paratorus.torus import field_from_coeffs


def check_smoothing(
    P: DyadicPartition,
    lam_list: list[float],
    beta: float,
    kappa: float,
    mu: float,
    trials: int,
    seed: int = 0,
) -> CheckReport:
    """Measured constant of the resolvent smoothing bound

        |(lam - Delta)^{-1} f|_{B^beta_{mu,inf}}
            <= C lam^{-kappa} |f|_{B^{beta-2+kappa}_{mu,inf}}.

    Reports the per-lam maxima; the log-log slope against lam should be
    non-positive for kappa in (0, beta).
    """
    if not kappa < beta:
        raise ConfigurationError(f"need kappa < beta, got {kappa} >= {beta}")
    g = P.grid
    rng = np.random.default_rng(seed)
    idx_out = BesovIndex(beta, mu, np.inf)
    idx_in = BesovIndex(beta - 2.0 + kappa, mu, np.inf)
    per_scale = []
    for lam in lam_list:
        ratios = []
        for _ in range(trials):
            f = random_field_with_decay(g, beta - 2.0 + kappa, rng, kmax=2.0**P.j_max)
            rf = field_from_coeffs(g, f.coeffs / (lam + 4.0 * np.pi**2 * g.ksq))
            den = lam ** (-kappa) * besov_norm(f, idx_in, P)
            ratios.append(besov_norm(rf, idx_out, P) / den if den > 0 else 0.0)
        per_scale.append((lam, max(ratios), min(ratios)))
    params = {"beta": beta, "kappa": kappa, "mu": mu, "trials": trials}
    return CheckReport(
        "resolvent_smoothing", params,
        max(m for _, m, _ in per_scale), min(m for _, _, m in per_scale),
        g.n, seed, per_scale,
    )
