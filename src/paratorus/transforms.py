"""The certified change-of-variables stack.

Given an enhanced tuple at scale eps, a frequency cutoff M tames the
high-frequency part of the exponentials (L-infinity smallness) and a
cutoff N tames the paracontrolled correction (operator-norm smallness).
build_stack assembles, as named operator fields of one TransformStack,

    lambda_     w = (1-Delta)w - div((e^{P>M(V+2W)} - 1) prec grad w)
    lambda_bar  w = (1-Delta)w + (e^{P>M(-W-V)} - 1) prec (1-Delta)w
    upsilon, upsilon_bar  with  Lambda = (1-Delta) Upsilon  exactly,
    upsilon_inv, upsilon_bar_inv
    phi         w = (1-Delta)^{-1} ( Lambda w - P_{>N} G w ) = w - K w - R w,
                G w = w prec Z~^M + div(grad w prec (e^{P>M(V+2W)} - 1))
                      + e^{P>M(V+W)} div(rho e^{P>M W} w)
    gamma       = Phi^{-1} = sum_m (K + R)^m  (one geometric series)
    theta       = e^{P>M W} . Gamma . UpsilonBar^{-1}
    theta_inv   = UpsilonBar . Phi . e^{-P>M W}

from the five cached exponentials e_pw = e^{P>M W}, e_pw_inv, e_pwv =
e^{P>M(V+W)}, e_pwv_inv and e_pv2w = e^{P>M(V+2W)}, which save_stack
persists and verify_stack compares bit for bit.  save_stack also stamps
the version of the operator kernels and of the stack's composition, and
verify_stack refuses a stack saved under another version.  The
paraproducts of Lambda, sum_l d_l (E2 prec d_l w), run in one engine pass
and those of G in another, the blocks carrying the derivatives, so an
apply of K + R makes two paraproduct passes.

Here Upsilon = I - K and R = (1-Delta)^{-1} P_{>N} G.  The paracontrolled
correction proper is I - Upsilon^{-1} R; inverting it as a series would
run a whole Upsilon^{-1} series inside each of its terms.  Phi is that
correction premultiplied by Upsilon, since Upsilon (I - Upsilon^{-1} R)
= I - K - R, so e^{P>M W} (I - Upsilon^{-1} R)^{-1} Upsilon^{-1}
UpsilonBar^{-1} = e^{P>M W} Gamma UpsilonBar^{-1}: Theta runs one series
in K + R and Theta^{-1} runs none.  cert_phi is the measured norm
|K + R|_{H^1 -> H^1} <= 1/2: it certifies exactly the series Theta runs,
and measuring it runs no series at all.  Every operator-norm certificate
is a Golub-Kahan-Lanczos estimate (linops.operator_norm) that stops once
it has settled, capped at power_iters x restarts steps.

The modified potential Z~^M is the exact zeroth-order coefficient of the
conjugated operator (see operators.apply_A_tilde), so the paracontrolled
subtraction inside Phi matches the conjugation identically; by bilinearity
of the product, the second form takes d products instead of 3d:

    Z~^M = e^{P>M(V+2W)} ( Z - W + Delta P<=M W + |grad W|^2
           - |grad P>M W|^2 - grad V . grad P<=M W ) + (e^{P>M(V+2W)} - 1)
         = e^{P>M(V+2W)} ( Z - W + Delta P<=M W
           + grad P<=M W . grad(W + P>M W - V) ) + (e^{P>M(V+2W)} - 1).

All inverses are geometric series of certified contractions, truncated
at a 1e-12 relative increment or 60 terms.  The stack is a frozen value
built once with its certificates measured; applications are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import CertificateError, ConfigurationError, ResolutionError
from .linops import (
    LinOp,
    add,
    blocks_op,
    compose,
    field_products_op,
    identity_op,
    mult_field_op,
    multiplier_op,
    neumann_inverse_op,
    operator_norm,
    scale,
    subtract,
)
from .lp import DyadicPartition
from .noise import EnhancedData, read_meta, save_enhanced, load_enhanced
from .paraproducts import high_side_blocks, low_side_blocks
from .torus import (
    SpectralField,
    constant_field,
    exp_field,
    field_from_coeffs,
    grad,
    laplacian,
    pointwise_product,
    project_frequencies,
    read_pcf1,
    to_physical,
    write_pcf1,
)

EXP_SMALLNESS = 0.25
OPERATOR_SMALLNESS = 0.5
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 60
DEFAULT_SIGMAS = (-2.0, 0.0, 1.0, 2.0)


@dataclass(frozen=True, eq=False)
class TransformStack:
    data: EnhancedData
    partition: DyadicPartition
    M: int
    N: int
    sigma_list: tuple
    probe_seed: int
    power_iters: int
    restarts: int
    # cached exponentials e^{+-P>M W}, e^{+-P>M(V+W)}, e^{P>M(V+2W)}
    e_pw: SpectralField
    e_pw_inv: SpectralField
    e_pwv: SpectralField
    e_pwv_inv: SpectralField
    e_pv2w: SpectralField
    Z_tilde_M: SpectralField
    lambda_: LinOp
    lambda_bar: LinOp
    upsilon: LinOp
    upsilon_inv: LinOp
    upsilon_bar: LinOp
    upsilon_bar_inv: LinOp
    phi: LinOp
    gamma: LinOp
    theta: LinOp
    theta_inv: LinOp
    cert_exp_plus: float
    cert_exp_minus: float
    cert_upsilon: MappingProxyType  # keyed by sigma
    cert_phi: float

    @property
    def grid(self):
        return self.data.grid


def _exp_certificate(f: SpectralField) -> float:
    return float(np.max(np.abs(to_physical(f) - 1.0)))


def modified_potential(data: EnhancedData, M: int, e_pv2w: SpectralField):
    """Exact M-modified zeroth-order potential Z~^M, given
    e_pv2w = e^{P>M(V+2W)}."""
    g = data.grid
    Wp = project_frequencies(data.W, M, "high")
    Wq = data.W - Wp
    inner = data.Z - data.W + laplacian(Wq)
    for cq, cu in zip(grad(Wq), grad(data.W + Wp - data.V)):
        inner = inner + pointwise_product(cq, cu)
    return pointwise_product(e_pv2w, inner) + (e_pv2w - constant_field(g, 1.0))


def build_stack(
    data: EnhancedData,
    partition: DyadicPartition,
    M: int,
    N: int,
    sigma_list: tuple = DEFAULT_SIGMAS,
    probe_seed: int = 1000,
    power_iters: int = 30,
    restarts: int = 2,
) -> TransformStack:
    """Assemble the full operator stack at the given cutoffs and measure
    all certificates (no search; see choose_cutoffs for the selection).

    Each operator norm takes at most power_iters x restarts Golub-Kahan-
    Lanczos steps from a start drawn from probe_seed (probe_seed + 1 for
    cert_phi); the names are kept from the power iteration it replaced,
    whose applies that cap never exceeds."""
    g = data.grid
    if partition.grid != g:
        raise ConfigurationError("partition grid does not match the data grid")
    Wp = project_frequencies(data.W, M, "high")
    Vp = project_frequencies(data.V, M, "high")
    e_pw = exp_field(Wp)
    e_pw_inv = exp_field(-1.0 * Wp)
    e_pwv = exp_field(Wp + Vp)
    e_pwv_inv = exp_field(-1.0 * (Wp + Vp))
    e_pv2w = exp_field(Vp + 2.0 * Wp)
    cert_exp_plus = _exp_certificate(e_pv2w)
    cert_exp_minus = _exp_certificate(e_pwv_inv)
    Z_tilde_M = modified_potential(data, M, e_pv2w)

    one = constant_field(g, 1.0)
    E2 = e_pv2w - one
    E3 = e_pwv_inv - one
    lap1 = multiplier_op(g.sobolev_symbol(2.0))        # 1 - Delta
    lap1_inv = multiplier_op(g.sobolev_symbol(-2.0))

    # Lambda = (1-Delta) - sum_l d_l (E2 prec d_l .), one engine pass
    dl = g.deriv_symbols
    para_div = blocks_op(g, [blk for l in range(g.d) for blk in
                             low_side_blocks(partition, E2.coeffs, dl[l], dl[l])])
    lambda_ = subtract(lap1, para_div)
    K = compose(lap1_inv, para_div)
    upsilon = subtract(identity_op(), K)
    upsilon_inv = neumann_inverse_op(K, g, s=1.0, tol=NEUMANN_TOL,
                                     max_terms=NEUMANN_MAX_TERMS)

    # LambdaBar = (1-Delta) + E3 prec (1-Delta) .
    bar_term = compose(blocks_op(g, low_side_blocks(partition, E3.coeffs)), lap1)
    lambda_bar = add(lap1, bar_term)
    Kbar = scale(compose(lap1_inv, bar_term), -1.0)
    upsilon_bar = subtract(identity_op(), Kbar)
    upsilon_bar_inv = neumann_inverse_op(Kbar, g, s=1.0, tol=NEUMANN_TOL,
                                         max_terms=NEUMANN_MAX_TERMS)

    # Phi = I - K - R with R = (1-Delta)^{-1} P_{>N} G; the paraproducts
    # of G, w prec Z~^M + sum_l d_l (d_l w prec E2), run in one engine pass
    g_parts = [blocks_op(g, high_side_blocks(partition, Z_tilde_M.coeffs) + [
        blk for l in range(g.d)
        for blk in high_side_blocks(partition, E2.coeffs, dl[l], dl[l])])]
    m_epw = mult_field_op(g, e_pw.coeffs)
    if not data.is_symmetric():
        # e^{P>M(V+W)} div(rho e^{P>M W} w): e^{P>M W} w once, then the d
        # products by rho_l in one transform pass
        rho_div = field_products_op(g, [(r.coeffs, None, g.deriv_symbols[l])
                                        for l, r in enumerate(data.rho)])
        g_parts.append(compose(mult_field_op(g, e_pwv.coeffs), rho_div, m_epw))
    proj_n = multiplier_op(np.where(g.kabs > 2.0**N, 1.0, 0.0))
    R = compose(lap1_inv, proj_n, add(*g_parts))
    phi_step = add(K, R)
    phi = subtract(identity_op(), phi_step)
    gamma = neumann_inverse_op(phi_step, g, s=1.0, tol=NEUMANN_TOL,
                               max_terms=NEUMANN_MAX_TERMS)

    m_epw_inv = mult_field_op(g, e_pw_inv.coeffs)
    theta = compose(m_epw, gamma, upsilon_bar_inv)
    theta_inv = compose(upsilon_bar, phi, m_epw_inv)

    kmax = 2.0**partition.j_max
    cert_upsilon = {
        s: operator_norm(K, g, s_in=s, s_out=s, iters=power_iters,
                         restarts=restarts, seed=probe_seed, kmax=kmax)
        for s in sigma_list
    }
    cert_phi = operator_norm(phi_step, g, s_in=1.0, s_out=1.0, iters=power_iters,
                             restarts=restarts, seed=probe_seed + 1, kmax=kmax)
    return TransformStack(
        data=data, partition=partition, M=M, N=N, sigma_list=tuple(sigma_list),
        probe_seed=probe_seed, power_iters=power_iters, restarts=restarts,
        e_pw=e_pw, e_pw_inv=e_pw_inv, e_pwv=e_pwv, e_pwv_inv=e_pwv_inv,
        e_pv2w=e_pv2w, Z_tilde_M=Z_tilde_M,
        lambda_=lambda_, lambda_bar=lambda_bar, upsilon=upsilon,
        upsilon_inv=upsilon_inv, upsilon_bar=upsilon_bar,
        upsilon_bar_inv=upsilon_bar_inv, phi=phi, gamma=gamma, theta=theta,
        theta_inv=theta_inv, cert_exp_plus=cert_exp_plus,
        cert_exp_minus=cert_exp_minus, cert_upsilon=MappingProxyType(cert_upsilon),
        cert_phi=cert_phi,
    )


def exponential_certificates(data: EnhancedData, M: int) -> tuple[float, float]:
    """L-infinity smallness of the two governing exponentials at cutoff M
    (used both for selection and for re-certification across eps)."""
    Wp = project_frequencies(data.W, M, "high")
    Vp = project_frequencies(data.V, M, "high")
    plus = _exp_certificate(exp_field(Vp + 2.0 * Wp))
    minus = _exp_certificate(exp_field(-1.0 * (Wp + Vp)))
    return plus, minus


def choose_cutoffs(
    data: EnhancedData,
    partition: DyadicPartition,
    sigma_list: tuple = DEFAULT_SIGMAS,
    probe_seed: int = 1000,
    power_iters: int = 30,
    restarts: int = 2,
) -> TransformStack:
    """Smallest M with both exponential certificates <= 1/4, then the
    smallest N with cert_phi, the measured norm |K + R|_{H^1 -> H^1} of
    the one series behind Gamma and Theta, <= 1/2.
    Both searches are capped at the partition's top block index; hitting
    the cap is a refusal, not a silent degradation.  power_iters x
    restarts is the step cap of every operator norm (see build_stack)."""
    cap = partition.j_max
    M = None
    for candidate in range(cap + 1):
        plus, minus = exponential_certificates(data, candidate)
        if plus <= EXP_SMALLNESS and minus <= EXP_SMALLNESS:
            M = candidate
            break
    if M is None:
        raise ResolutionError(
            f"no cutoff M <= {cap} reaches exponential smallness "
            f"{EXP_SMALLNESS}: last certificates ({plus:.3f}, {minus:.3f})"
        )
    stack = None
    for candidate in range(cap + 1):
        stack = build_stack(data, partition, M, candidate, sigma_list,
                            probe_seed, power_iters, restarts)
        if stack.cert_phi <= OPERATOR_SMALLNESS:
            break
        stack = None
    if stack is None:
        raise ResolutionError(
            f"no cutoff N <= {cap} reaches the paracontrolled smallness "
            f"{OPERATOR_SMALLNESS}"
        )
    worst = max(stack.cert_upsilon.values())
    if worst > OPERATOR_SMALLNESS:
        raise CertificateError(
            f"measured parametrix norm {worst:.3f} exceeds "
            f"{OPERATOR_SMALLNESS} at M={M}; data too rough for this grid"
        )
    return stack


# ---------------------------------------------------------------------------
# Theta and its inverse as maps of fields

def _wrap(stack: TransformStack, coeffs) -> SpectralField:
    return field_from_coeffs(stack.grid, coeffs)


@dataclass
class Theta:
    """Handle for the assembled change of variables and its inverse."""

    stack: TransformStack
    op: LinOp
    inv_op: LinOp

    def forward(self, u: SpectralField) -> SpectralField:
        return _wrap(self.stack, self.op.apply(u.coeffs))

    def inverse(self, u: SpectralField) -> SpectralField:
        return _wrap(self.stack, self.inv_op.apply(u.coeffs))


def assemble_theta(stack: TransformStack) -> Theta:
    return Theta(stack, stack.theta, stack.theta_inv)


# ---------------------------------------------------------------------------
# persistence and re-verification

_EXP_NAMES = ("e_pw", "e_pw_inv", "e_pwv", "e_pwv_inv", "e_pv2w")
# The arithmetic of the field transforms (the operator kernels, and the
# products and exponentials behind the data and cached exponentials) and
# the composition of the stack: a saved stack re-verifies bit for bit only
# under those that certified it.  Unstamped stacks used complex FFTs;
# r2c-1 certified the nested Phi = I - Upsilon^{-1} R (another cert_phi);
# r2c-2 took its products and exponentials from complex FFTs; r2c-3
# measured the operator norms by power iteration (other certificates);
# r2c-4 ran every dealiased product on the doubled grid 2n and each
# product of a sum in its own transforms (certificates moved at round-off);
# r2c-5 formed Z~^M from 3d products, not d (certificates moved at
# round-off); r2c-6 kept the Nyquist planes k_i = n/2, split and folded
# them with weights, and ran its products on 3n/2 + 2 points (other
# fields, products and certificates); r2c-7 applied A's drift term as
# sum_l d_l (rho_l u) and ran each derivative of the paraproduct sums of
# K and R as a full-lattice multiply around its own engine pass, where the
# blocks now carry the derivatives (certificates moved at round-off);
# r2c-8 held fields as full Hermitian arrays and saved PCF1 bodies, now
# half lattices in orthonormal coordinates saved as PCF2 (fields and
# certificates moved at round-off; no PCF1 body is read).  The
# factored KPZ nonlinearity needed no stamp: verify_stack reloads W, never
# solves for it.
KERNEL_VERSION = "r2c-9"


def _certificates(stack: TransformStack) -> dict[str, float]:
    """The persisted certificates keyed as in stack_meta, in file order."""
    certs = {"cert_exp": stack.cert_exp_plus,
             "cert_exp_minus": stack.cert_exp_minus}
    certs.update({f"cert_ups_{s:g}": stack.cert_upsilon[s] for s in stack.sigma_list})
    certs["cert_phi"] = stack.cert_phi
    return certs


def save_stack(stack: TransformStack, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_enhanced(stack.data, d / "data")
    for name in _EXP_NAMES:
        write_pcf1(d / f"{name}.pcf", getattr(stack, name))
    with open(d / "stack_meta", "w") as fh:
        fh.write(f"kernel={KERNEL_VERSION}\n")
        fh.write(f"M={stack.M}\n")
        fh.write(f"N={stack.N}\n")
        for key, value in _certificates(stack).items():
            fh.write(f"{key}={value:.17g}\n")
        fh.write(f"probe_seed={stack.probe_seed}\n")
        fh.write(f"power_iters={stack.power_iters}\n")
        fh.write(f"restarts={stack.restarts}\n")
        fh.write(f"sigma_list={','.join('%g' % s for s in stack.sigma_list)}\n")


def load_stack(directory) -> TransformStack:
    d = Path(directory)
    meta = read_meta(d / "stack_meta")
    data = load_enhanced(d / "data")
    partition = DyadicPartition(data.grid)
    sigma_list = meta.parsed("sigma_list",
                             lambda v: tuple(float(s) for s in v.split(",")))
    stack = build_stack(
        data, partition, meta.parsed("M", int), meta.parsed("N", int), sigma_list,
        meta.parsed("probe_seed", int), meta.parsed("power_iters", int),
        meta.parsed("restarts", int),
    )
    return stack


def verify_stack(directory) -> dict:
    """Rebuild the persisted stack and re-check every certificate bit-exactly.

    Returns the comparison table; raises CertificateError on any mismatch
    or if a certificate is out of bounds, and ConfigurationError if the
    stack was saved under other operator kernels or another composition."""
    d = Path(directory)
    meta = read_meta(d / "stack_meta")
    kernel = meta.get("kernel", "c2c (no kernel stamp)")
    if kernel != KERNEL_VERSION:
        raise ConfigurationError(
            f"stack saved with operator kernel {kernel}, but this build "
            f"computes with kernel {KERNEL_VERSION}; the operator kernels or "
            f"the composition of the stack differ, so its certificates cannot "
            f"be re-verified bit for bit: build and save it again"
        )
    stack = load_stack(d)
    recomputed = _certificates(stack)
    stored = {key: meta.parsed(key) for key in recomputed}
    for key, value in stored.items():
        if recomputed[key] != value:
            raise CertificateError(
                f"certificate {key} mismatch: stored {value:.17g}, "
                f"recomputed {recomputed[key]:.17g}"
            )
    for name in _EXP_NAMES:
        disk = read_pcf1(d / f"{name}.pcf")
        if not np.array_equal(disk.coeffs, getattr(stack, name).coeffs):
            raise CertificateError(f"cached exponential {name} mismatch")
    if stack.cert_exp_plus > EXP_SMALLNESS or stack.cert_exp_minus > EXP_SMALLNESS:
        raise CertificateError("exponential smallness certificate violated")
    if stack.cert_phi > OPERATOR_SMALLNESS:
        raise CertificateError("paracontrolled smallness certificate violated")
    if max(stack.cert_upsilon.values()) > OPERATOR_SMALLNESS:
        raise CertificateError("parametrix norm certificate violated")
    return {"stored": stored, "recomputed": recomputed, "M": stack.M, "N": stack.N}
