"""Matrix-free linear operators on coefficient arrays with exact adjoints.

Everything the transform stack composes is one of: a Fourier multiplier
(adjoint: conjugate symbol), a dealiased multiplication by a real field
(self-adjoint), or a fixed-side paraproduct (adjoint: mirrored block
composition).  Carrying the adjoint alongside each operator lets operator
norms be estimated by Golub-Kahan-Lanczos bidiagonalization, which runs T
and T* alternately, also in Sobolev-weighted spaces via conjugation with
the diagonal weights.

The multiplications and paraproducts are block lists of the one
dealiased-product engine, `paraproducts._FixedSidePara`, and `blocks_op`
runs any such list as one operator in one transform pass: a field
multiplication is one unfiltered block on the product grid
`torus.product_size(n)` (about 3n/2, where it is exact), a sum of
multiplications with derivatives before or after them is
`field_products_op`, and a sum of paraproducts with derivatives, such as
sum_l d_l (f prec d_l w), concatenates the lists of
`paraproducts.low_side_blocks` and `high_side_blocks`, the blocks carrying
the derivatives.

The operators act on the stored coefficients of real fields (`torus`: the
half lattice in orthonormal coordinates, zero Nyquist entries, a
Hermitian column k_d = 0).  They are linear over the reals only, so
solvers and eigen iterations that use them must combine vectors with real
scalars.  The inner product throughout is the real part of the plain l^2
product of coefficient arrays, which in these coordinates is the
grid-mean L^2 product of the fields.  The engine reads and writes the
kept modes only, so a multiplication by a real field is exactly
symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError, ConfigurationError
from .paraproducts import Block, _FixedSidePara
from .torus import Grid, constant_value, gaussian_coeffs, product_size

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


def blocks_op(g: Grid, blocks) -> LinOp:
    """The sum of the engine's blocks (paraproducts.Block) on g, run in
    one transform pass, with its exact adjoint."""
    eng = _FixedSidePara(g, blocks)
    return LinOp(eng.apply, eng.adjoint)


def _or_one(sym):
    return 1.0 if sym is None else sym


def field_products_op(g: Grid, terms) -> LinOp:
    """x -> sum over terms (f, b, c) of c(D) (f * b(D) x): dealiased
    multiplications by real fields f, given by their coefficients, with
    b and c Fourier symbols (derivatives, say) or None.

    The products by non-constant fields are blocks of the paraproduct
    engine on the product grid, where each field's physical values are
    cached, and run in one transform pass: one inverse transform per
    distinct b, one forward transform per distinct c (symbols are told
    apart by identity, as Grid.deriv_symbols hands them out).  A constant
    field multiplies by its value, exactly and without transforms, and a
    zero field is dropped."""
    m = product_size(g.n)
    blocks, ops = [], []
    for coeffs, b, c in terms:
        value = constant_value(coeffs)
        if value is None:
            blocks.append(Block(m, coeffs, None, b, c))
        elif value != 0.0:
            ops.append(multiplier_op(value * _or_one(b) * _or_one(c)))
    if blocks:
        ops.append(blocks_op(g, blocks))
    return add(*ops) if ops else multiplier_op(0.0)


def mult_field_op(g: Grid, coeffs: Array) -> LinOp:
    """Dealiased multiplication by the real field with the given coefficients
    (one term of field_products_op), truncated to the kept modes: a
    symmetric operator, whose adjoint runs the same code."""
    return field_products_op(g, [(coeffs, None, None)])


def sobolev_op(g: Grid, s: float) -> LinOp:
    return multiplier_op(g.sobolev_symbol(s))


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
    c = gaussian_coeffs(g, rng)
    if kmax is not None:
        c = np.where(g.kabs <= kmax, c, 0.0)
    return c


# Relative growth of the top Ritz value below which operator_norm stops.
# With 1e-6, an isolated top value (K + R on n=128 drift data) stopped up
# to 3e-8 below what 60 power steps reach; 1e-8 costs a few more steps.
NORM_SETTLE_TOL = 1e-8
# Failure probability p of one step of operator_norm's bound stop: the
# chance that the stop certifies |T| <= bound at that step although |T|
# exceeds it.
NORM_BOUND_FAILURE = 1e-6


def _bound_certified(sigma: float, bound: float | None, k: int, dim: int) -> bool:
    """The Kuczynski-Wozniakowski stop.  For a fixed delta in (0, 1), k
    Lanczos steps on B* B from a start uniform on the unit sphere of R^dim
    give sigma^2 >= (1 - delta) |B|^2 except with probability at most
    1.648 sqrt(dim) e^{-sqrt(delta)(2k - 1)} (SIAM J. Matrix Anal. Appl.
    13, 1992).  True when sigma < bound and that tail, at delta = 1 -
    (sigma / bound)^2, is at most NORM_BOUND_FAILURE (operator_norm says
    what that certifies)."""
    if bound is None or not sigma < bound:
        return False
    delta = 1.0 - (sigma / bound) ** 2
    tail = 1.648 * np.sqrt(dim) * np.exp(-np.sqrt(delta) * (2 * k - 1))
    return bool(tail <= NORM_BOUND_FAILURE)


def operator_norm(
    T: LinOp,
    g: Grid,
    s_in: float = 0.0,
    s_out: float = 0.0,
    iters: int = 30,
    restarts: int = 2,
    seed: int = 0,
    kmax: float | None = None,
    bound: float | None = None,
) -> float:
    """Golub-Kahan-Lanczos estimate of |T|_{H^{s_in} -> H^{s_out}}.

    Bidiagonalizes B = S_out T S_in^{-1}, with S_s the diagonal Sobolev
    weights, from one random Hermitian start drawn from seed: step k
    applies B once and B* once, and the top singular value of the k x k
    bidiagonal matrix is the largest |Bx| / |x| over the Krylov space
    K_k(B* B, x_0), which holds the k-th power iterate.  The estimate is
    a lower bound; it stops when the value grows by less than
    NORM_SETTLE_TOL relative from one step to the next, on an invariant
    subspace (then it is exact), or after iters * restarts steps, a cap
    that never exceeds the applies of iters power steps from each of
    restarts starts.  The plain three-term recurrence keeps four vectors
    and no basis; it combines them with real scalars only.

    Given a bound, it also stops at the first step k whose estimate
    sigma certifies |T| <= bound (the Kuczynski-Wozniakowski stop): sigma
    < bound and 1.648 sqrt(N) e^{-sqrt(delta)(2k - 1)} <= p, with delta =
    1 - (sigma / bound)^2, N = (n - 1)^d the real dimension of the fields
    of g and p = NORM_BOUND_FAILURE.  The stop needs a start uniform on
    the unit sphere of those fields, a Gaussian draw on every kept mode,
    so a bound requires kmax=None.  p holds per step: the stop fires at
    step k only if sigma <= sqrt(1 - d_k) bound, where d_k is the delta
    at which the tail equals p, so while |T| > bound it fires there only
    if sigma^2 < (1 - d_k) |T|^2, which has probability at most p; over
    the whole estimate that is at most cap * p.  The bound holds in exact
    arithmetic, and the recurrence keeps no basis, so it loses
    orthogonality in floating point; the dense-SVD tests of the
    certificates are the check.  A stop by settling, on an invariant
    subspace or at the cap certifies nothing by itself: the caller
    compares the returned lower bound with its bound."""
    if bound is not None and kmax is not None:
        raise ConfigurationError(
            "operator_norm's bound stop needs a start on every kept mode "
            f"(kmax=None), got kmax={kmax:g}"
        )
    B = compose(sobolev_op(g, s_out), T, sobolev_op(g, -s_in))
    cap = max(1, iters) * max(1, restarts)
    dim = (g.n - 1) ** g.d
    v = random_hermitian(g, np.random.default_rng(seed), kmax=kmax)
    nv = coeff_norm(v)
    if nv == 0.0:
        return 0.0
    v = v / nv
    u = B.apply(v)
    alphas, betas = [coeff_norm(u)], []
    best = alphas[0]
    if best == 0.0:
        return 0.0
    u = u / best
    for _ in range(cap - 1):
        w = B.adjoint(u) - alphas[-1] * v
        beta = coeff_norm(w)
        if beta == 0.0:
            break
        betas.append(beta)
        v = w / beta
        p = B.apply(v) - beta * u
        alpha = coeff_norm(p)
        alphas.append(alpha)
        bidiag = np.diag(alphas) + np.diag(betas, 1)
        sigma = float(np.linalg.norm(bidiag, 2))
        settled = sigma - best < NORM_SETTLE_TOL * sigma
        best = max(best, sigma)
        if alpha == 0.0 or settled or _bound_certified(best, bound, len(alphas), dim):
            break
        u = p / alpha
    return float(best)
