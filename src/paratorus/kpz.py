"""Fixed-point solver for the elliptic KPZ-type auxiliary equation

    (lam - Delta) W - |grad W|^2 + grad W . grad V + xi = 0

solved by Picard iteration on

    kpz_map(W) = (lam - Delta)^{-1} (|grad W|^2 - grad W . grad V - xi)

whose fixed points satisfy the equation exactly as displayed.  For rough
data the iteration contracts once lam is large enough.  solve_kpz is the
one Picard loop: its first TRIAL_STEPS steps test for contraction and a
lam at which they do not contract is refused there, so auto_lambda
doubles lam from 1 until a solve is accepted and returns that solve.
The nonlinearity is evaluated as sum_l d_l W . d_l(W - V), by
bilinearity d dealiased products instead of 2d, once per step: at W_k
it gives both the residual of W_k and the next iterate W_{k+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataTooRoughError, SolverDivergenceError
from .lp import BesovIndex, CheckReport, DyadicPartition, besov_norm, random_field_with_decay
from .torus import (
    SpectralField,
    field_from_coeffs,
    grad,
    l2_norm,
    pointwise_product,
    sobolev_norm,
    zero_field,
)

LAMBDA_CAP = 2.0**20
CONTRACTION_WINDOW = 5
CONTRACTION_RATIO = 0.9
TRIAL_STEPS = 20


@dataclass(frozen=True)
class KpzProblem:
    """The equation at relaxation parameter lam."""

    xi: SpectralField
    V: SpectralField
    lam: float
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigurationError(f"relaxation parameter must be > 0, got {self.lam}")
        if self.tol <= 0:
            raise ConfigurationError(f"tolerance must be > 0, got {self.tol}")


@dataclass
class KpzResult:
    W: SpectralField
    iterations: int
    residual: float
    trace: list = field(default_factory=list)  # (iteration, residual) pairs


def nonlinearity(W: SpectralField, V: SpectralField) -> SpectralField:
    """|grad W|^2 - grad W . grad V = sum_l d_l W . d_l(W - V), dealiased."""
    acc = zero_field(W.grid)
    for a, b in zip(grad(W), grad(W - V)):
        acc = acc + pointwise_product(a, b)
    return acc


def _step(W: SpectralField, nonlin: SpectralField, prob: KpzProblem) -> SpectralField:
    """(lam - Delta)^{-1}(nonlin - xi), nonlin the nonlinearity at W."""
    h1 = sobolev_norm(W, 1.0)
    if not np.isfinite(h1) or h1 > 1e8:
        raise SolverDivergenceError(
            f"iterate exploded (H^1 norm {h1:.3g}); try a larger relaxation parameter"
        )
    rhs = nonlin - prob.xi
    g = W.grid
    return field_from_coeffs(g, rhs.coeffs / (prob.lam + 4.0 * np.pi**2 * g.ksq))


def _residual(W: SpectralField, nonlin: SpectralField, prob: KpzProblem) -> float:
    g = W.grid
    lhs = field_from_coeffs(g, (prob.lam + 4.0 * np.pi**2 * g.ksq) * W.coeffs)
    return l2_norm(lhs - nonlin + prob.xi)


def kpz_map(W: SpectralField, prob: KpzProblem) -> SpectralField:
    """One Picard step (lam - Delta)^{-1}(|grad W|^2 - grad W.grad V - xi)."""
    return _step(W, nonlinearity(W, prob.V), prob)


def kpz_residual(W: SpectralField, prob: KpzProblem) -> float:
    """L^2 norm of (lam - Delta)W - |grad W|^2 + grad W.grad V + xi."""
    return _residual(W, nonlinearity(W, prob.V), prob)


class _NoContraction(SolverDivergenceError):
    """The first TRIAL_STEPS Picard steps did not contract."""


def solve_kpz(prob: KpzProblem) -> KpzResult:
    """Picard iteration from W = 0 until the residual drops below tol.

    The first TRIAL_STEPS steps test for contraction: it is seen when,
    after some step, the last CONTRACTION_WINDOW increment ratios
    |W_{m+1} - W_m|_{H^1} / |W_m - W_{m-1}|_{H^1} all stay below
    CONTRACTION_RATIO.  A solve that has not contracted by step
    TRIAL_STEPS, or blows up before it, is refused there; one that
    reaches tol or an increment of at most 1e-14 first is accepted for
    good.  After that a blow-up, or max_iter steps, is a refusal.
    """
    W, it, trace = kpz_map(zero_field(prob.xi.grid), prob), 1, []
    increments, contracted, trial = [sobolev_norm(W, 1.0)], False, True
    while True:
        trial = trial and increments[-1] > 1e-14  # else at the fixed point
        if trial:
            window = increments[-CONTRACTION_WINDOW - 1:]
            if len(window) > CONTRACTION_WINDOW:
                ratios = [b / a for a, b in zip(window, window[1:]) if a > 0]
                contracted = contracted or bool(ratios) and max(ratios) <= CONTRACTION_RATIO
            if it == TRIAL_STEPS:
                if not contracted:
                    raise _NoContraction(
                        f"no contraction in {TRIAL_STEPS} iterations; try a "
                        f"larger relaxation parameter than {prob.lam:g}"
                    )
                trial = False
        nonlin = nonlinearity(W, prob.V)
        res = _residual(W, nonlin, prob)
        trace.append((it, res))
        if res <= prob.tol:
            return KpzResult(W, it, res, trace)
        if it >= prob.max_iter:
            raise SolverDivergenceError(
                f"no convergence after {prob.max_iter} iterations "
                f"(residual {res:.3e} > tol {prob.tol:.1e}); "
                f"try a larger relaxation parameter than {prob.lam:g}"
            )
        it += 1
        try:
            W_next = _step(W, nonlin, prob)
        except SolverDivergenceError as exc:
            error = _NoContraction if trial else SolverDivergenceError
            raise error(f"{exc} (at iteration {it})") from None
        if trial:
            increments.append(sobolev_norm(W_next - W, 1.0))
        W = W_next


def auto_lambda(
    xi: SpectralField, V: SpectralField, tol: float = 1e-10
) -> tuple[KpzProblem, KpzResult]:
    """Double lam from 1 until solve_kpz accepts the problem, that is until
    its first TRIAL_STEPS steps from W = 0 contract, and return the problem
    with its finished solve.  Capped at 2^20."""
    lam = 1.0
    while lam <= LAMBDA_CAP:
        prob = KpzProblem(xi, V, lam, tol)
        try:
            return prob, solve_kpz(prob)
        except _NoContraction:
            lam *= 2.0
    raise DataTooRoughError(
        f"no contraction found up to relaxation parameter {LAMBDA_CAP:g}"
    )


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
