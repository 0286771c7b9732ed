"""Apply the singular operator, verify its factorization through the
change of variables, solve resolvents, compute spectra, and run the
mollification-removal convergence study.

The factorization check is deliberately one-sided: the lower-order part
is measured as  A(Theta v) - (1-Delta) v  with both pieces evaluated by
direct application, never by reusing the algebraic expansion, so it
genuinely tests that the assembled transforms produce a lower-order
remainder.

Spectra come from a block Krylov iteration on the resolvent
(lam0 + A)^{-1} with thick restarts, in numpy alone (importing scipy
costs more set-up time and memory than the solver saves).

Studies fan out over the mollification schedule with one shared cutoff
pair (M, N), re-certified at every scale; reductions are deterministic
for fixed seeds.  The control eigenvalue, with the renormalization
constant c_eps dropped, is the renormalized one minus c_eps exactly (A
changes by -c_eps times the identity), so it is not computed twice.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    CertificateError,
    ConfigurationError,
    EigenSolverError,
    ShiftTooSmallError,
)
from .linops import (
    LinOp,
    add,
    compose,
    field_products_op,
    multiplier_op,
    operator_norm,
    random_hermitian,
    sobolev_op,
    subtract,
)
from .lp import DyadicPartition, build_partition
from .noise import EnhancedData, NoiseSpec, enhance_anderson2d, enhance_generic
from .torus import (
    SpectralField,
    constant_field,
    div,
    field_from_coeffs,
    grad,
    grid,
    l2_norm,
    pointwise_product,
    project_frequencies,
    zero_field,
)
from .transforms import (
    TransformStack,
    build_stack,
    choose_cutoffs,
    exponential_certificates,
    EXP_SMALLNESS,
)


class AOperator:
    """Matrix-free (1-Delta) + grad V . grad + (xi + c) + div(rho .).

    The lower-order terms are applied in drift form, b . grad u + q u with
    b_l = d_l V + rho_l and q = xi + c + div rho.  By Leibniz,
    sum_l d_l (rho_l u) = (div rho) u + rho . grad u for the untruncated
    product, and truncation to the kept modes commutes with d_l, so the
    dealiased drift form is the same operator in exact arithmetic; div rho
    stays in q, so this does not rest on rho being divergence-free.  The
    sum of products is one linops.field_products_op pass on the product
    grid: in 2d three inverse transforms (of u, d_1 u, d_2 u) and one
    forward transform, three forward and one inverse for the adjoint.  A
    constant potential multiplies exactly, without transforms, and zero
    terms are left out, so on such data A is (1-Delta) + c exactly.  That
    pass is `lower`."""

    def __init__(self, data: EnhancedData):
        g = data.grid
        self.data = data
        potential = data.xi + constant_field(g, data.c_eps)
        drift = grad(data.V) if l2_norm(data.V) > 0.0 else []
        if not data.is_symmetric():
            potential = potential + div(list(data.rho))
            drift = [r + b for r, b in zip(data.rho, drift)] if drift else data.rho
        terms = [(potential.coeffs, None, None)] if np.any(potential.coeffs != 0.0) else []
        terms += [(b.coeffs, g.deriv_symbols[l], None) for l, b in enumerate(drift)]
        self.lower = field_products_op(g, terms)
        self.op = add(multiplier_op(g.sobolev_symbol(2.0)), self.lower)
        # symmetric as a plain L^2 operator only without drift and potential
        # gradient terms (the xi + c multiplication is always symmetric)
        self.l2_symmetric = data.is_symmetric() and l2_norm(data.V) == 0.0

    def apply(self, u: SpectralField) -> SpectralField:
        return field_from_coeffs(u.grid, self.op.apply(u.coeffs))


def apply_A_tilde(v: SpectralField, stack: TransformStack):
    """Conjugated operator, computed both ways.

    (a) the conjugation  e^{P>M(W+V)} A(e^{P>M W} v);
    (b) the exact expansion  L_M v + V~^M . grad v + Z~^M v + rho-term
    with L_M = 1 - div(e^{P>M(V+2W)} grad .).  Returns (a) and the
    relative discrepancy |a - b| / |a| as an algebra diagnostic.
    """
    data = stack.data
    g = data.grid
    inner = pointwise_product(stack.e_pw, v)
    a = pointwise_product(stack.e_pwv, AOperator(data).apply(inner))

    gv = grad(v)
    flux = [pointwise_product(stack.e_pv2w, c) for c in gv]
    b = v - div(flux)
    # V~^M = e^{P>M(V+2W)} (grad V + grad P>M V)
    Vp = project_frequencies(data.V, stack.M, "high")
    for cf, cp, c in zip(grad(data.V), grad(Vp), gv):
        b = b + pointwise_product(pointwise_product(stack.e_pv2w, cf + cp), c)
    b = b + pointwise_product(stack.Z_tilde_M, v)
    if not data.is_symmetric():
        carried = [pointwise_product(r, inner) for r in data.rho]
        b = b + pointwise_product(stack.e_pwv, div(carried))
    denom = l2_norm(a)
    discrepancy = l2_norm(a - b) / denom if denom > 0 else 0.0
    return a, discrepancy


@dataclass
class FactorizationReport:
    eps: float
    M: int
    N: int
    delta_prime: float
    norm_h2_l2: float
    norm_h2_hdelta: float
    c_lo: float
    c_hi: float
    residual_factorization: float
    residual_theta_roundtrip: float

    def __post_init__(self):
        if not self.c_lo > 0:
            raise CertificateError(f"norm-equivalence floor c_lo = {self.c_lo} <= 0")
        if self.residual_factorization < 0 or self.residual_theta_roundtrip < 0:
            raise ConfigurationError("residuals must be nonnegative")


def _h2_model_field(g, rng, kmax) -> SpectralField:
    """Unit-H^2 random probe: an L^2-normalized band-limited draw pushed
    through the inverse Sobolev weight."""
    c = random_hermitian(g, rng, kmax=kmax)
    c = c / np.sqrt(np.vdot(c, c).real)
    return field_from_coeffs(g, g.sobolev_symbol(-2.0) * c)


def equivalence_constants(stack: TransformStack, trials: int = 50,
                          seed: int = 3000):
    """Measured constants of (|A Theta u| + |Theta u|) / (|(1-Delta)u| + |u|)
    over random H^2 probes; equal to one identically for zero data."""
    g = stack.grid
    a_op = AOperator(stack.data)
    theta = stack.theta
    rng = np.random.default_rng(seed)
    kmax = 2.0**stack.partition.j_max
    ratios = []
    for _ in range(trials):
        u = _h2_model_field(g, rng, kmax)
        tu = field_from_coeffs(g, theta.apply(u.coeffs))
        atu = a_op.apply(tu)
        num = l2_norm(atu) + l2_norm(tu)
        den = l2_norm(field_from_coeffs(g, g.sobolev_symbol(2.0) * u.coeffs)) \
            + l2_norm(u)
        ratios.append(num / den)
    return min(ratios), max(ratios)


def factorization_remainder(stack: TransformStack, trials: int = 20,
                            seed: int = 2000, delta_prime: float = 0.1,
                            power_iters: int = 10) -> FactorizationReport:
    """Measure lower(v) := A(Theta v) - (1-Delta) v as a map H^2 -> L^2 and
    H^2 -> H^{delta'}, plus the norm-equivalence constants.  power_iters
    caps the steps of each operator norm."""
    g = stack.grid
    a_op = AOperator(stack.data)
    theta = stack.theta
    lap1 = multiplier_op(g.sobolev_symbol(2.0))
    lower = subtract(compose(a_op.op, theta), lap1)
    kmax = 2.0**stack.partition.j_max
    norm_l2 = operator_norm(lower, g, s_in=2.0, s_out=0.0, iters=power_iters,
                            restarts=1, seed=seed, kmax=kmax)
    norm_hd = operator_norm(lower, g, s_in=2.0, s_out=delta_prime,
                            iters=power_iters, restarts=1, seed=seed + 1,
                            kmax=kmax)
    c_lo, c_hi = equivalence_constants(stack, trials=trials, seed=seed + 2)

    rng = np.random.default_rng(seed + 3)
    probe = _h2_model_field(g, rng, kmax)
    lam_w = stack.lambda_.apply(probe.coeffs)
    ups_w = g.sobolev_symbol(2.0) * stack.upsilon.apply(probe.coeffs)
    res_fact = float(np.sqrt(np.vdot(lam_w - ups_w, lam_w - ups_w).real))
    round_ = theta.apply(stack.theta_inv.apply(probe.coeffs))
    res_round = float(np.sqrt(np.vdot(round_ - probe.coeffs,
                                      round_ - probe.coeffs).real))
    return FactorizationReport(
        eps=stack.data.eps, M=stack.M, N=stack.N, delta_prime=delta_prime,
        norm_h2_l2=norm_l2, norm_h2_hdelta=norm_hd, c_lo=c_lo, c_hi=c_hi,
        residual_factorization=res_fact, residual_theta_roundtrip=res_round,
    )


# ---------------------------------------------------------------------------
# preconditioned iterative solvers (matrix-free, deterministic)

def _inner(a, b) -> float:
    """The real inner product, the L^2 product of the fields: exact for the
    real-linear operators, and it keeps every Krylov iterate real."""
    return float(np.vdot(a, b).real)


def _pcg(apply_s, precond, b, tol, max_iter):
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(_inner(b, b))
    if bnorm == 0.0:
        return x, 0.0, 0
    z = precond(r)
    p = z.copy()
    rz = _inner(r, z)
    for it in range(1, max_iter + 1):
        sp = apply_s(p)
        denom = _inner(p, sp)
        if denom <= 0.0:
            raise ShiftTooSmallError(
                "conjugate gradients found non-positive curvature; "
                "increase the resolvent shift"
            )
        alpha = rz / denom
        x += alpha * p
        r -= alpha * sp
        rn = np.sqrt(_inner(r, r))
        if rn <= tol * bnorm:
            return x, rn / bnorm, it
        z = precond(r)
        rz_new = _inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ShiftTooSmallError(
        f"resolvent solve stagnated after {max_iter} iterations "
        f"(relative residual {rn / bnorm:.3e}); increase the shift"
    )


def _bicgstab(apply_s, precond, b, tol, max_iter):
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(_inner(b, b))
    if bnorm == 0.0:
        return x, 0.0, 0
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        rho_new = _inner(r0, r)
        if rho_new == 0.0:
            break
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        ph = precond(p)
        v = apply_s(ph)
        alpha = rho / _inner(r0, v)
        s = r - alpha * v
        sn = np.sqrt(_inner(s, s))
        if sn <= tol * bnorm:
            x += alpha * ph
            return x, sn / bnorm, it
        sh = precond(s)
        t = apply_s(sh)
        omega = _inner(t, s) / _inner(t, t)
        x += alpha * ph + omega * sh
        r = s - omega * t
        rn = np.sqrt(_inner(r, r))
        if rn <= tol * bnorm:
            return x, rn / bnorm, it
    raise ShiftTooSmallError(
        f"resolvent solve (bicgstab) stagnated after {max_iter} iterations; "
        f"increase the shift"
    )


# restarts of the Krylov solver on the true residual in ResolventOperator.solve
_REFINEMENTS = 3


@dataclass
class ResolventResult:
    u: SpectralField
    residual: float
    iterations: int


class ResolventOperator:
    """Matrix-free (lam0 + A)^{-1} via a preconditioned Krylov solver with
    the constant-coefficient preconditioner (lam0 + 1 - Delta)^{-1}; lam0 + A
    is that symbol plus A's lower-order pass."""

    def __init__(self, data: EnhancedData, lam0: float, tol: float = 1e-10,
                 max_iter: int = 400):
        g = data.grid
        self.g = g
        self.lam0 = lam0
        self.tol = tol
        self.max_iter = max_iter
        a = AOperator(data)
        self.a_op = a
        shifted = lam0 + g.sobolev_symbol(2.0)
        self.s_op = add(multiplier_op(shifted), a.lower)
        psym = 1.0 / shifted
        self.precond = lambda r: psym * r
        self.symmetric = a.l2_symmetric
        self.last_iterations = 0

    def solve_coeffs(self, b):
        solver = _pcg if self.symmetric else _bicgstab
        x, res, it = solver(self.s_op.apply, self.precond, b, self.tol,
                            self.max_iter)
        self.last_iterations = it
        return x

    def solve_adjoint_coeffs(self, b):
        solver = _pcg if self.symmetric else _bicgstab
        apply_adj = self.s_op.adjoint
        x, res, it = solver(apply_adj, self.precond, b, self.tol, self.max_iter)
        self.last_iterations = it
        return x

    def linop(self) -> LinOp:
        return LinOp(self.solve_coeffs, self.solve_adjoint_coeffs)

    def solve(self, f: SpectralField) -> ResolventResult:
        """Solve (lam0 + A) u = f to a true relative residual <= tol.

        The Krylov loops stop on their recurrence residual, which can sit
        just below tol while the true one does not; the solver then runs
        again on the true residual and adds the correction, at most
        _REFINEMENTS times, before ShiftTooSmallError."""
        fnorm = max(np.sqrt(_inner(f.coeffs, f.coeffs)), 1e-300)
        x = self.solve_coeffs(f.coeffs)
        iterations = self.last_iterations
        for refinement in range(_REFINEMENTS + 1):
            u = field_from_coeffs(self.g, x)
            resid = self.s_op.apply(u.coeffs) - f.coeffs
            rel = float(np.sqrt(_inner(resid, resid)) / fnorm)
            if rel <= self.tol:
                return ResolventResult(u, rel, iterations)
            if refinement < _REFINEMENTS:
                x = u.coeffs - self.solve_coeffs(resid)
                iterations += self.last_iterations
        raise ShiftTooSmallError(
            f"resolvent solve kept a true relative residual of {rel:.3e} > "
            f"{self.tol:g} after {_REFINEMENTS} refinements; increase the shift"
        )


def resolvent(f: SpectralField, data: EnhancedData, lam0: float,
              tol: float = 1e-10) -> SpectralField:
    """Solve (lam0 + A) u = f to the requested relative residual."""
    return ResolventOperator(data, lam0, tol).solve(f).u


# ---------------------------------------------------------------------------
# spectrum by block Krylov iteration on the resolvent

# Krylov basis size in blocks, the block not yet applied included, and the
# blocks of Ritz vectors a full basis restarts from (keeping half took
# 77-84 solves per call on the n = 64 Anderson study, about what an
# uncapped basis needs; keeping one block took 91-98)
_BASIS_BLOCKS = 6
_RESTART_BLOCKS = 3


def _row(coeffs: np.ndarray) -> np.ndarray:
    """The basis row of a coefficient array: the array viewed as reals, so
    that the dot product of two rows is the real inner product `_inner`."""
    return np.ascontiguousarray(coeffs).reshape(-1).view(np.float64)


def _field(row: np.ndarray, g) -> np.ndarray:
    """The coefficient array of a basis row, projected onto those of real
    fields: an anti-Hermitian round-off remainder on the column k_d = 0
    (an imaginary k = 0 entry, say) would otherwise be an eigenvector too,
    which removing converged directions amplifies into a spurious copy."""
    return field_from_coeffs(g, row.view(np.complex128).reshape(g.half_shape)).coeffs


def _orthonormalize_block(V, W):
    """Orthonormalize the rows of W against the orthonormal rows of V and
    among themselves, by two passes of block Gram-Schmidt with a QR of the
    block.  Returns (Q, C, B) with W = C^T V + B^T Q up to round-off."""
    C = V @ W.T
    W -= C.T @ V
    q, B = np.linalg.qr(W.T)
    C2 = V @ q
    q -= V.T @ C2
    q, B2 = np.linalg.qr(q)
    return q.T, C + C2 @ B, B2 @ B


def _invariant_basis(H, r):
    """Orthonormal columns spanning the invariant subspace of H for its r
    eigenvalues of largest real part (r + 1 rather than split a complex
    pair).  Restarting from it keeps R basis = basis H + (next block)
    exact although the computed R, its solves being inexact, is symmetric
    only to their tolerance.  Restarting from the Ritz vectors of the
    symmetrized projection breaks that relation: on n = 64 Anderson data
    (seeds 0-3, tol 1e-8 to 1e-7) it failed 80 block steps in 7 of the 8
    cases this restart solves in 12-55."""
    vals, vecs = np.linalg.eig(H)
    order = np.argsort(-vals.real, kind="stable")
    if vals[order[r - 1]].imag != 0.0 and vals[order[r]] == np.conj(vals[order[r - 1]]):
        r += 1
    E = vecs[:, order[:r]]
    return np.linalg.svd(np.hstack([E.real, E.imag]), full_matrices=False)[0][:, :r]


def _rayleigh_checked(phis, a_apply, g, tol):
    """Rayleigh quotients on A of the basis rows `phis`, or None as soon as
    one has |A phi - lam phi| > tol |phi|."""
    eigs = []
    for row in phis:
        phi = _field(row, g)
        aphi = a_apply(phi)
        norm2 = _inner(phi, phi)
        lam = _inner(phi, aphi) / norm2
        r = aphi - lam * phi
        if _inner(r, r) > tol * tol * norm2:
            return None
        eigs.append(lam)
    return np.sort(eigs)


def spectrum(data: EnhancedData, lam0: float, k_eigs: int, seed: int = 0,
             tol: float = 1e-6, max_sweeps: int = 500,
             buffer: int = 4) -> np.ndarray:
    """Lowest k eigenvalues by block Krylov iteration on R = (lam0 + A)^{-1}.

    A block holds k + buffer vectors, so every copy of an eigenvalue of up
    to that multiplicity is found (one start vector finds one copy).  Each
    block step applies R to the newest block and orthonormalizes the images
    against the basis in the real inner product; the Ritz pairs come from
    the symmetrized projection of R, which those orthonormalizations give
    without further solves.  A full basis restarts from its lowest Ritz
    directions and the newest block (a Krylov-Schur thick restart: Wu and
    Simon, SIAM J. Matrix Anal. Appl. 2000; Stewart, ibid. 2001).

    Both cases first wait until every Ritz residual on R, which H gives
    without a solve, is <= tol mu.  The symmetric case (rho = 0, V = 0)
    then applies R once more to the Ritz vectors phi and returns the
    Rayleigh quotients on A of the images psi = R phi once each has
    |A psi - lam psi| <= tol |psi|.  Otherwise the iteration runs on
    S = (R + R*)/2 and returns 1/mu - lam0 with a warning: these are not
    eigenvalues of A.  Raises EigenSolverError after `max_sweeps` block
    steps.
    """
    g = data.grid
    # the solves run 1000x tighter than tol (and never looser than the
    # resolvent's default).  A Ritz vector phi sums solve outputs and
    # carries their errors at high frequencies, where A is large, so its
    # residual on A has a floor 100-1000x above (lam0 + lam) x solve
    # residual (measured, n = 64-256), at times above tol.  psi = R phi has
    # no such floor: (A - lam) psi = -(lam0 + lam)(R phi - mu phi) up to the
    # last solve's error, and the iteration drives R phi - mu phi to zero
    rop = ResolventOperator(data, lam0, tol=min(1e-10, 1e-3 * tol))
    symmetric = rop.symmetric
    if not symmetric:
        warnings.warn(
            "operator is not symmetric; returning Ritz values of the "
            "symmetrized resolvent (singular-value-like, not eigenvalues)",
            RuntimeWarning,
            stacklevel=2,
        )

    def apply_r(row):
        x = _field(row, g)
        if symmetric:
            return _row(rop.solve_coeffs(x))
        return _row(0.5 * (rop.solve_coeffs(x) + rop.solve_adjoint_coeffs(x)))

    rng = np.random.default_rng(seed)
    m = k_eigs + buffer
    cap = _BASIS_BLOCKS * m
    W = np.array([_row(random_hermitian(g, rng)) for _ in range(m)])
    basis = np.empty((cap, W.shape[1]))
    basis[:m] = np.linalg.qr(W.T)[0].T
    # H[i, j] = <basis_i, R basis_j> for the first p basis rows j; the rows
    # below p hold the couplings of the next block
    H = np.zeros((cap + m, cap))
    p = 0
    for _ in range(max_sweeps):
        for row, x in zip(W, basis[p:p + m]):
            row[:] = apply_r(x)
        Q, C, B = _orthonormalize_block(basis[:p + m], W)
        H[:p + m, p:p + m] = C
        p += m
        H[p:p + m, p - m:p] = B
        mu, S = np.linalg.eigh(0.5 * (H[:p, :p] + H[:p, :p].T))
        mu, S = mu[::-1], S[:, ::-1]  # lowest eigenvalues of A first
        resid = H[:p + m, :p] @ S[:, :k_eigs]
        resid[:p] -= S[:, :k_eigs] * mu[:k_eigs]
        if np.all(np.linalg.norm(resid, axis=0) <= tol * mu[:k_eigs]):
            if not symmetric:
                return np.sort(1.0 / mu[:k_eigs] - lam0)
            smoothed = (apply_r(phi) for phi in S[:, :k_eigs].T @ basis[:p])
            eigs = _rayleigh_checked(smoothed, rop.a_op.op.apply, g, tol)
            if eigs is not None:
                return eigs
        if p + m > cap:
            keep = _invariant_basis(H[:p, :p], _RESTART_BLOCKS * m)
            r = keep.shape[1]
            restarted = np.zeros_like(H)
            restarted[:r, :r] = keep.T @ H[:p, :p] @ keep
            restarted[r:r + m, :r] = H[p:p + m, :p] @ keep
            H = restarted
            chunk = -(-basis.shape[1] // _BASIS_BLOCKS)
            for c in range(0, basis.shape[1], chunk):  # no second basis
                basis[:r, c:c + chunk] = keep.T @ basis[:p, c:c + chunk]
            p = r
        basis[p:p + m] = Q
    raise EigenSolverError(
        f"block Krylov iteration did not converge in {max_sweeps} block "
        f"steps (tolerance {tol:g})"
    )


# ---------------------------------------------------------------------------
# the mollification-removal convergence study

@dataclass
class StudyConfig:
    n: int = 256
    d: int = 2
    eps_list: tuple = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
    seed: int = 0
    kind: str = "anderson2d"
    k_eigs: int = 5
    lam0: float | None = None
    tol_resolvent: float = 1e-10
    # step caps of the operator norms behind d_res, d_fac and the
    # certificates (linops.operator_norm)
    power_iters_res: int = 8
    power_iters_fac: int = 8
    power_iters_cert: int = 30
    equivalence_trials: int = 12
    eig_tol: float = 1e-6
    eig_buffer: int = 4
    noise: NoiseSpec | None = None

    def __post_init__(self):
        eps = tuple(self.eps_list)
        if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigurationError("eps schedule must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)


@dataclass
class StudyResult:
    config: StudyConfig
    lam0: float
    M: int
    N: int
    rows: list = dc_field(default_factory=list)
    pairs: list = dc_field(default_factory=list)
    stage_seconds: dict = dc_field(default_factory=dict)

    def eigenvalue_gap_shrink_fraction(self) -> float:
        """Fraction of (eigenvalue, adjacent-pair) combinations whose gaps
        shrink from one mollification step to the next."""
        eigs = np.array([row["eigs"] for row in self.rows])
        gaps = np.abs(np.diff(eigs, axis=0))
        if gaps.shape[0] < 2:
            return 1.0
        shrink = gaps[1:] < gaps[:-1]
        return float(np.mean(shrink))

    def control_drift_ratio(self) -> float:
        lam1_control = [row["lambda1_control"] for row in self.rows]
        lam1 = [row["eigs"][0] for row in self.rows]
        control = abs(lam1_control[-1] - lam1_control[0])
        renorm = abs(lam1[-1] - lam1[0])
        return control / max(renorm, 1e-300)


def _make_data(cfg: StudyConfig, eps: float) -> EnhancedData:
    g = grid(cfg.d, cfg.n)
    if cfg.kind == "anderson2d":
        return enhance_anderson2d(g, eps, cfg.seed)
    spec = cfg.noise or NoiseSpec(cfg.kind, seed=cfg.seed)
    return enhance_generic(spec, g, eps)


def select_shift(datasets, tol: float, seed: int, start: float = 10.0,
                 cap: float = 1e6) -> float:
    """Double the shift from `start` until the preconditioned solver
    converges within 200 iterations on every dataset; fixed once per
    study so resolvent differences are comparable across eps."""
    g = datasets[0].grid
    rng = np.random.default_rng(seed)
    probe = random_hermitian(g, rng)
    probe /= np.sqrt(_inner(probe, probe))
    lam0 = start
    while lam0 <= cap:
        try:
            for data in datasets:
                rop = ResolventOperator(data, lam0, tol=tol, max_iter=200)
                rop.solve_coeffs(probe)
            return lam0
        except ShiftTooSmallError:
            lam0 *= 2.0
    raise ShiftTooSmallError(f"no workable shift below {cap:g}")


def convergence_study(cfg: StudyConfig) -> StudyResult:
    times: dict[str, float] = {}
    tic = time.perf_counter()
    g = grid(cfg.d, cfg.n)
    P = build_partition(g)
    datasets = [_make_data(cfg, eps) for eps in cfg.eps_list]
    times["enhance"] = time.perf_counter() - tic

    # one cutoff pair for the whole schedule, chosen at the roughest scale
    # and re-certified at every other scale
    tic = time.perf_counter()
    ref = choose_cutoffs(datasets[-1], P, probe_seed=cfg.seed * 997 + 11,
                         power_iters=cfg.power_iters_cert)
    stacks = []
    for data in datasets:
        if data is datasets[-1]:
            stacks.append(ref)
            continue
        plus, minus = exponential_certificates(data, ref.M)
        if plus > EXP_SMALLNESS or minus > EXP_SMALLNESS:
            raise CertificateError(
                f"cutoff M={ref.M} chosen at eps={datasets[-1].eps:g} fails "
                f"re-certification at eps={data.eps:g}: ({plus:.3f}, {minus:.3f})"
            )
        stacks.append(build_stack(data, P, ref.M, ref.N,
                                  probe_seed=cfg.seed * 997 + 11,
                                  power_iters=cfg.power_iters_cert))
    times["stacks"] = time.perf_counter() - tic

    tic = time.perf_counter()
    lam0 = cfg.lam0 or select_shift(datasets, cfg.tol_resolvent,
                                    cfg.seed * 31 + 7)
    times["shift"] = time.perf_counter() - tic

    result = StudyResult(cfg, lam0, ref.M, ref.N)

    tic = time.perf_counter()
    for data, stack in zip(datasets, stacks):
        eigs = spectrum(data, lam0, cfg.k_eigs, seed=cfg.seed * 13 + 3,
                        tol=cfg.eig_tol, buffer=cfg.eig_buffer)
        c_lo, c_hi = equivalence_constants(stack, trials=cfg.equivalence_trials,
                                           seed=cfg.seed * 77 + 5)
        result.rows.append({
            "seed": cfg.seed, "eps": data.eps, "M": stack.M, "N": stack.N,
            "c_eps": data.c_eps, "eigs": list(eigs),
            # dropping c_eps shifts A, and so every eigenvalue, by -c_eps
            "lambda1_control": float(eigs[0] - data.c_eps),
            "c_lo": c_lo, "c_hi": c_hi,
        })
    times["spectra"] = time.perf_counter() - tic

    tic = time.perf_counter()
    lap2_inv = sobolev_op(g, -2.0)
    for (d1, s1), (d2, s2) in zip(zip(datasets, stacks),
                                  list(zip(datasets, stacks))[1:]):
        r1 = ResolventOperator(d1, lam0, tol=cfg.tol_resolvent).linop()
        r2 = ResolventOperator(d2, lam0, tol=cfg.tol_resolvent).linop()
        d_res = operator_norm(subtract(r1, r2), g, iters=cfg.power_iters_res,
                              restarts=1, seed=cfg.seed * 51 + 9)
        t1 = compose(AOperator(d1).op, s1.theta)
        t2 = compose(AOperator(d2).op, s2.theta)
        d_fac = operator_norm(subtract(t1, t2), g, s_in=2.0, s_out=0.0,
                              iters=cfg.power_iters_fac, restarts=1,
                              seed=cfg.seed * 53 + 13)
        result.pairs.append({
            "eps_coarse": d1.eps, "eps_fine": d2.eps,
            "d_res": d_res, "d_fac": d_fac,
        })
    times["differences"] = time.perf_counter() - tic

    result.stage_seconds = times
    return result
