"""Fixed-point solver for the elliptic KPZ-type auxiliary equation

    (lam - Delta) W - |grad W|^2 + grad W . grad V + xi = 0

solved by Picard iteration on

    kpz_map(W) = (lam - Delta)^{-1} (|grad W|^2 - grad W . grad V - xi)

whose fixed points satisfy the equation exactly as displayed.  For rough
data the iteration contracts once lam is large enough.  solve_kpz is the
one Picard loop: its first TRIAL_STEPS steps test for contraction and a
lam at which they do not contract is refused there, so auto_lambda
doubles lam from 1 until a solve is accepted and returns that solve.

The nonlinearity sum_l d_l W . d_l(W - V) is evaluated once per step: at
W_k it gives both the residual of W_k and the next iterate W_{k+1}.  It is
one pass on the product grid (`product_size`), where the dealiased
product is exact: d inverse transforms give the values of the d_l W,
which serve both factors, the values of the d_l V come from the problem,
which computes them once, and one forward transform takes the summed
products back.  So a step costs d + 1 transforms.  A constant W, such as
the start W = 0, gives an exact zero with none, and a constant V (V = 0
for Anderson data) adds no cross term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataTooRoughError, SolverDivergenceError
from .torus import (
    SpectralField,
    constant_value,
    field_from_coeffs,
    fold_half,
    l2_norm,
    product_size,
    reflected_spectrum,
    sobolev_norm,
    true_values,
    zero_field,
)

LAMBDA_CAP = 2.0**20
CONTRACTION_WINDOW = 5
CONTRACTION_RATIO = 0.9
TRIAL_STEPS = 20


@dataclass(frozen=True)
class KpzProblem:
    """The equation at relaxation parameter lam.  The symbol of lam - Delta
    and the values of grad V on the product grid are computed once per
    problem, on first use, and shared by all its steps."""

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

    @cached_property
    def symbol(self) -> np.ndarray:
        """lam + 4 pi^2 |k|^2, the symbol of lam - Delta."""
        return self.lam + 4.0 * np.pi**2 * self.xi.grid.ksq

    @cached_property
    def grad_V_values(self) -> list[np.ndarray] | None:
        """The values of grad V on the product grid (None for V constant)."""
        return _gradient_values(self.V)


@dataclass
class KpzResult:
    W: SpectralField
    iterations: int
    residual: float
    trace: list = field(default_factory=list)  # (iteration, residual) pairs


def _gradient_values(f: SpectralField) -> list[np.ndarray] | None:
    """The values of the d_l f on the product grid, listed at -x as
    true_values lists them, one inverse transform each; None for a
    constant f, whose gradient is zero."""
    if constant_value(f.coeffs) is not None:
        return None
    n = f.grid.n
    m = product_size(n)
    return [true_values(f.coeffs, n, m, (s,)) for s in f.grid.deriv_symbols]


def _nonlinearity(W: SpectralField, grad_V: list[np.ndarray] | None) -> SpectralField:
    """sum_l d_l W . d_l(W - V), dealiased, from the values grad_V of
    grad V (None for V constant): d + 1 transforms, none for W constant."""
    g = W.grid
    grad_W = _gradient_values(W)
    if grad_W is None:
        return zero_field(g)
    for i, a in enumerate(grad_W):
        a *= a if grad_V is None else a - grad_V[i]
    total = grad_W[0]
    for a in grad_W[1:]:
        total += a
    # reflected_spectrum reads sqrt 2 times the values, so the product's
    # coefficients are sqrt 2 times what it returns
    coeffs = fold_half(reflected_spectrum(total), product_size(g.n), g.n)
    coeffs *= np.sqrt(2.0)
    return field_from_coeffs(g, coeffs)


def nonlinearity(W: SpectralField, V: SpectralField) -> SpectralField:
    """|grad W|^2 - grad W . grad V = sum_l d_l W . d_l(W - V), dealiased,
    in one pass on the product grid: d inverse transforms for grad W, d
    more for grad V unless V is constant, and one forward transform.  A
    constant W gives an exact zero without transforms."""
    return _nonlinearity(W, _gradient_values(V))


def _step(W: SpectralField, nonlin: SpectralField, prob: KpzProblem) -> SpectralField:
    """(lam - Delta)^{-1}(nonlin - xi), nonlin the nonlinearity at W."""
    h1 = sobolev_norm(W, 1.0)
    if not np.isfinite(h1) or h1 > 1e8:
        raise SolverDivergenceError(
            f"iterate exploded (H^1 norm {h1:.3g}); try a larger relaxation parameter"
        )
    rhs = nonlin - prob.xi
    return field_from_coeffs(W.grid, rhs.coeffs / prob.symbol)


def _residual(W: SpectralField, nonlin: SpectralField, prob: KpzProblem) -> float:
    lhs = field_from_coeffs(W.grid, prob.symbol * W.coeffs)
    return l2_norm(lhs - nonlin + prob.xi)


def kpz_map(W: SpectralField, prob: KpzProblem) -> SpectralField:
    """One Picard step (lam - Delta)^{-1}(|grad W|^2 - grad W.grad V - xi)."""
    return _step(W, _nonlinearity(W, prob.grad_V_values), prob)


def kpz_residual(W: SpectralField, prob: KpzProblem) -> float:
    """L^2 norm of (lam - Delta)W - |grad W|^2 + grad W.grad V + xi."""
    return _residual(W, _nonlinearity(W, prob.grad_V_values), prob)


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
        nonlin = _nonlinearity(W, prob.grad_V_values)
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

