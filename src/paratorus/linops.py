"""Matrix-free linear operators on coefficient arrays with exact adjoints.

Everything the transform stack composes is one of: a Fourier multiplier
(adjoint: conjugate symbol), a dealiased multiplication by a real field
(self-adjoint in the grid-mean inner product), or a fixed-side
paraproduct (adjoint: mirrored block composition).  Carrying the adjoint
alongside each operator lets operator norms be estimated by power
iteration on T* T, including in Sobolev-weighted spaces via conjugation
with the diagonal weights.

The multiplications and paraproducts are block lists of the one
dealiased-product engine, `paraproducts._FixedSidePara`: a field
multiplication is a single unfiltered block on the doubled grid 2n.
The engine runs real FFTs on the half spectrum (last-axis frequency
index 0..n/2) and returns its Hermitian completion, so the other half of
the input is never read: the operators act on Hermitian coefficient
arrays, the coefficients of real fields, and are linear over the reals.
Solvers and eigen iterations that use them must therefore combine
vectors with real scalars only.

The inner product throughout is the plain l^2 product of coefficient
arrays, which by the transform normalization equals the grid-mean L^2
product of the physical fields; on Hermitian arrays it is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError
from .paraproducts import HighSidePara, LowSidePara, _FixedSidePara
from .torus import Grid, constant_value

Array = np.ndarray


@dataclass
class LinOp:
    apply: Callable[[Array], Array]
    adjoint: Callable[[Array], Array]

    def __call__(self, x: Array) -> Array:
        return self.apply(x)


def identity_op() -> LinOp:
    return LinOp(lambda x: x, lambda x: x)


def multiplier_op(sym: Array) -> LinOp:
    conj = np.conj(sym)
    return LinOp(lambda x: sym * x, lambda x: conj * x)


def compose(*ops: LinOp) -> LinOp:
    """compose(A, B, C) applies C first: x -> A(B(C(x)))."""
    def apply(x):
        for op in reversed(ops):
            x = op.apply(x)
        return x

    def adjoint(x):
        for op in ops:
            x = op.adjoint(x)
        return x

    return LinOp(apply, adjoint)


def add(*ops: LinOp) -> LinOp:
    def apply(x):
        acc = ops[0].apply(x)
        for op in ops[1:]:
            acc = acc + op.apply(x)
        return acc

    def adjoint(x):
        acc = ops[0].adjoint(x)
        for op in ops[1:]:
            acc = acc + op.adjoint(x)
        return acc

    return LinOp(apply, adjoint)


def subtract(a: LinOp, b: LinOp) -> LinOp:
    return LinOp(
        lambda x: a.apply(x) - b.apply(x),
        lambda x: a.adjoint(x) - b.adjoint(x),
    )


def scale(op: LinOp, c: float) -> LinOp:
    return LinOp(lambda x: c * op.apply(x), lambda x: np.conj(c) * op.adjoint(x))


def mult_field_op(g: Grid, coeffs: Array) -> LinOp:
    """Dealiased multiplication by the real field with the given coefficients:
    one unfiltered block of the paraproduct engine on the doubled grid,
    where the field's physical values are cached.  Self-adjoint up to the
    Nyquist-edge weight bookkeeping, which the adjoint handles exactly.
    A constant field multiplies by its value, exactly and without
    transforms."""
    c = constant_value(coeffs)
    if c is not None:
        return LinOp(lambda x: c * x, lambda x: c * x)
    eng = _FixedSidePara(g, coeffs, [(2 * g.n, None, None)])
    return LinOp(eng.apply, eng.adjoint)


def deriv_op(g: Grid, axis: int) -> LinOp:
    return multiplier_op(np.broadcast_to(g.deriv_symbols[axis], g.shape))


def sobolev_op(g: Grid, s: float) -> LinOp:
    return multiplier_op(g.sobolev_symbol(s))


def para_low_op(P, f_coeffs: Array) -> LinOp:
    eng = LowSidePara(P, f_coeffs)
    return LinOp(eng.apply, eng.adjoint)


def para_high_op(P, z_coeffs: Array) -> LinOp:
    eng = HighSidePara(P, z_coeffs)
    return LinOp(eng.apply, eng.adjoint)


def coeff_norm(x: Array) -> float:
    return float(np.sqrt(np.vdot(x, x).real))


def sobolev_coeff_norm(g: Grid, x: Array, s: float) -> float:
    return coeff_norm(g.sobolev_symbol(s) * x)


def neumann_inverse_apply(
    step: LinOp,
    x: Array,
    g: Grid,
    s: float = 1.0,
    tol: float = 1e-12,
    max_terms: int = 60,
    use_adjoint: bool = False,
) -> Array:
    """(I - step)^{-1} x as the truncated series sum_m step^m x.

    Truncates when the increment's H^s norm drops below tol relative to
    the input; raises if the contraction certificate must be violated."""
    fn = step.adjoint if use_adjoint else step.apply
    ref = sobolev_coeff_norm(g, x, s)
    if ref == 0.0:
        return x.copy()
    acc = x.copy()
    term = x
    for _ in range(max_terms):
        term = fn(term)
        acc = acc + term
        if sobolev_coeff_norm(g, term, s) <= tol * ref:
            return acc
    raise CertificateError(
        f"geometric series did not converge within {max_terms} terms "
        f"(last increment {sobolev_coeff_norm(g, term, s):.3e} vs "
        f"target {tol:.0e} relative); the contraction certificate is violated"
    )


def neumann_inverse_op(step: LinOp, g: Grid, s: float = 1.0,
                       tol: float = 1e-12, max_terms: int = 60) -> LinOp:
    return LinOp(
        lambda x: neumann_inverse_apply(step, x, g, s, tol, max_terms),
        lambda x: neumann_inverse_apply(step, x, g, s, tol, max_terms,
                                        use_adjoint=True),
    )


def random_hermitian(g: Grid, rng: np.random.Generator, kmax: float | None = None) -> Array:
    z = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) / np.sqrt(2)
    c = g.hermitian_part(z)
    if kmax is not None:
        c = np.where(g.kabs <= kmax, c, 0.0)
    return c


def operator_norm(
    T: LinOp,
    g: Grid,
    s_in: float = 0.0,
    s_out: float = 0.0,
    iters: int = 30,
    restarts: int = 2,
    seed: int = 0,
    kmax: float | None = None,
) -> float:
    """Power-iteration estimate of |T|_{H^{s_in} -> H^{s_out}}.

    Conjugates with the diagonal Sobolev weights and iterates B* B with
    the requested number of steps and random restarts."""
    B = compose(sobolev_op(g, s_out), T, sobolev_op(g, -s_in))
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max(1, restarts)):
        x = random_hermitian(g, rng, kmax=kmax)
        nx = coeff_norm(x)
        if nx == 0.0:
            continue
        x = x / nx
        lam = 0.0
        for _ in range(iters):
            y = B.apply(x)
            lam = np.vdot(y, y).real
            if lam == 0.0:
                break
            z = B.adjoint(y)
            nz = coeff_norm(z)
            if nz == 0.0:
                break
            x = z / nz
        best = max(best, np.sqrt(max(lam, 0.0)))
    return float(best)
