"""Dyadic Littlewood-Paley analysis: partition of unity, blocks, Besov norms.

The partition is built from the smooth profile

    theta(t) = psi(t) / (psi(t) + psi(1-t)),  psi(t) = exp(-1/t) for t > 0,

with chi(xi) = theta((4/3 - |xi|) / (4/3 - 3/4)) and
rho(xi) = chi(xi/2) - chi(xi), giving the standard supports
supp chi in {|xi| <= 4/3} and supp rho in {3/4 <= |xi| <= 8/3}.
Block j_max is chosen so the top annulus stays inside the alias-free band:
j_max = floor(log2(n/2)) - 2.

Discrete L^p norms are grid means, so norms are stable across resolutions.
The partition is immutable after construction; all checks are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ResolutionError
from .torus import (
    Grid,
    SpectralField,
    field_from_coeffs,
    gaussian_coeffs,
    lp_norm,
    l2_norm,
)


def _psi(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def transition_profile(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, float)
    a = _psi(t)
    b = _psi(1.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0.0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return out


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Low-frequency bump: 1 on |xi| <= 3/4, 0 on |xi| >= 4/3."""
    return transition_profile((4.0 / 3.0 - np.asarray(r, float)) / (4.0 / 3.0 - 0.75))


def rho_profile(r: np.ndarray) -> np.ndarray:
    """Annulus bump chi(xi/2) - chi(xi), supported in 3/4 <= |xi| <= 8/3."""
    r = np.asarray(r, float)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass(frozen=True)
class BesovIndex:
    """Regularity alpha with integrability indices p, q in [1, inf]."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):
            raise ConfigurationError(f"Besov indices need p, q >= 1, got {self}")


class DyadicPartition:
    """Tabulated chi and rho(2^-j .) on the frequency lattice.

    blocks: index -1 is the chi block, 0..j_max the annuli.
    """

    def __init__(self, g: Grid):
        j_max = int(math.floor(math.log2(g.n / 2))) - 2
        if j_max < 2:
            raise ResolutionError(
                f"grid n={g.n} too small to host j_max >= 2 (got j_max={j_max})"
            )
        self.grid = g
        self.j_max = j_max
        self.chi = chi_profile(g.kabs)
        self.rho = [rho_profile(g.kabs / 2.0**j) for j in range(j_max + 1)]
        self._s_cache: dict[int, np.ndarray] = {}
        self._validate()

    def _validate(self):
        g = self.grid
        resolved = g.kabs <= 2.0**self.j_max
        total = self.chi + sum(self.rho)
        residual = np.max(np.abs(total - 1.0)[resolved])
        if residual > 1e-12:
            raise ConfigurationError(
                f"partition-of-unity residual {residual:.2e} exceeds 1e-12"
            )
        if np.any(self.chi[g.kabs > 4.0 / 3.0] != 0.0):
            raise ConfigurationError("chi support leaks outside |k| <= 4/3")
        for j, r in enumerate(self.rho):
            outside = (g.kabs < 0.75 * 2.0**j) | (g.kabs > (8.0 / 3.0) * 2.0**j)
            if np.any(np.abs(r[outside]) > 1e-15):
                raise ConfigurationError(f"rho block {j} support leak")
        for j in range(2, self.j_max + 1):
            if np.any(self.rho[j] * self.rho[j - 2] != 0.0):
                raise ConfigurationError("non-adjacent blocks overlap")

    def block_symbol(self, j: int) -> np.ndarray:
        if j == -1:
            return self.chi
        if 0 <= j <= self.j_max:
            return self.rho[j]
        raise ConfigurationError(f"block index {j} outside [-1, {self.j_max}]")

    def partial_symbol(self, j: int) -> np.ndarray:
        """Symbol of S_j = sum over blocks i < j; zero operator for j <= -1."""
        if j <= -1:
            return np.zeros(self.grid.half_shape)
        if j not in self._s_cache:
            # telescoping: chi + sum_{i<j} rho(2^-i .) = chi(2^-j .)
            self._s_cache[j] = chi_profile(self.grid.kabs / 2.0**j)
        return self._s_cache[j]

    def resolved_mask(self) -> np.ndarray:
        return self.grid.kabs <= 2.0**self.j_max

    def bandlimit(self, f: SpectralField) -> SpectralField:
        """Project a field onto the fully resolved band |k| <= 2^j_max."""
        return field_from_coeffs(f.grid, np.where(self.resolved_mask(), f.coeffs, 0.0))


def build_partition(g: Grid) -> DyadicPartition:
    return DyadicPartition(g)


def block(f: SpectralField, P: DyadicPartition, j: int) -> SpectralField:
    return field_from_coeffs(f.grid, P.block_symbol(j) * f.coeffs)


def decompose(f: SpectralField, P: DyadicPartition):
    """All blocks Delta_j f (j = -1..j_max) and sums S_j f (j = -1..j_max+1).

    Returns (blocks, sums); blocks[j + 1] is Delta_j f and sums[j + 1] is
    S_j f, so the lists line up with block indices shifted by one.
    """
    if P.grid != f.grid:
        raise ConfigurationError("partition was built on a different grid")
    blocks = [block(f, P, j) for j in range(-1, P.j_max + 1)]
    sums = [field_from_coeffs(f.grid, np.zeros(f.grid.half_shape, complex))]
    acc = np.zeros(f.grid.half_shape, np.complex128)
    for b in blocks:
        acc = acc + b.coeffs
        sums.append(field_from_coeffs(f.grid, acc))
    return blocks, sums


def besov_norm(f: SpectralField, idx: BesovIndex, P: DyadicPartition) -> float:
    """l^q over j of 2^{alpha j} |Delta_j f|_{L^p} (grid-mean L^p norms)."""
    vals = np.array(
        [
            2.0 ** (idx.alpha * j) * lp_norm(block(f, P, j), idx.p)
            for j in range(-1, P.j_max + 1)
        ]
    )
    if np.isinf(idx.q):
        return float(vals.max())
    return float(np.sum(vals**idx.q) ** (1.0 / idx.q))


# ---------------------------------------------------------------------------
# random fields for the measured-constant checks

def random_field_with_decay(
    g: Grid, alpha: float, rng: np.random.Generator, kmax: float | None = None
) -> SpectralField:
    """Spectral model of B^alpha-regular randomness:
    coefficients |k|^{-alpha - d/2} times standard complex Gaussians."""
    with np.errstate(divide="ignore"):
        amp = np.where(g.kabs > 0, g.kabs ** (-(alpha + g.d / 2.0)), 0.0)
    if kmax is not None:
        amp = np.where(g.kabs <= kmax, amp, 0.0)
    return field_from_coeffs(g, amp * gaussian_coeffs(g, rng))


def random_ball_field(g: Grid, lam: float, rng: np.random.Generator) -> SpectralField:
    return field_from_coeffs(g, np.where(g.kabs <= lam, gaussian_coeffs(g, rng), 0.0))


def random_annulus_field(
    g: Grid, lam: float, rng: np.random.Generator, inner: float = 0.5, outer: float = 2.0
) -> SpectralField:
    mask = (g.kabs >= inner * lam) & (g.kabs <= outer * lam)
    return field_from_coeffs(g, np.where(mask, gaussian_coeffs(g, rng), 0.0))


# ---------------------------------------------------------------------------
# measured-constant reports

@dataclass
class CheckReport:
    """One measured-ratio experiment: the check's name and parameters, the
    largest and smallest measured ratio, the grid size n and the seed."""

    name: str
    params: dict
    ratio_max: float
    ratio_min: float
    n: int
    seed: int
    per_scale: list = field(default_factory=list)  # (scale, max, min) triples

    def slope_vs_scale(self) -> float:
        """Least-squares slope of log(ratio_max) against log(scale)."""
        if len(self.per_scale) < 2:
            return 0.0
        xs = np.log([s for s, _, _ in self.per_scale])
        ys = np.log([mx for _, mx, _ in self.per_scale])
        return float(np.polyfit(xs, ys, 1)[0])


def _derivative_symbol(g: Grid, mu: tuple) -> np.ndarray:
    sym = np.ones(g.half_shape, np.complex128)
    for axis, order in enumerate(mu):
        for _ in range(order):
            sym = sym * g.deriv_symbols[axis]
    return sym


def _multi_indices(d: int, k: int):
    for combo in itertools.product(range(k + 1), repeat=d):
        if sum(combo) == k:
            yield combo


def check_bernstein(
    P: DyadicPartition, k: int, p: float, q: float, trials: int, seed: int = 0
) -> tuple[CheckReport, CheckReport]:
    """Measured constants of the frequency-localized derivative inequalities.

    For fields supported in lam*ball the forward ratio is
    max_{|mu|=k} |d^mu u|_{L^q} / (lam^{k + d(1/p - 1/q)} |u|_{L^p});
    for annulus-supported fields the reverse ratio is
    lam^k |u|_{L^p} / max_{|mu|=k} |d^mu u|_{L^p}.
    """
    if not (1 <= p <= q):
        raise ConfigurationError(f"need 1 <= p <= q, got p={p}, q={q}")
    g = P.grid
    rng = np.random.default_rng(seed)
    mus = list(_multi_indices(g.d, k))
    syms = [_derivative_symbol(g, mu) for mu in mus]
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    inv_q = 0.0 if np.isinf(q) else 1.0 / q
    scales = [2.0**j for j in range(3, P.j_max + 1)]

    fwd_scale, rev_scale = [], []
    for lam in scales:
        fwd, rev = [], []
        for _ in range(trials):
            u = random_ball_field(g, lam, rng)
            dmax = max(
                lp_norm(field_from_coeffs(g, s * u.coeffs), q) for s in syms
            )
            fwd.append(dmax / (lam ** (k + g.d * (inv_p - inv_q)) * lp_norm(u, p)))
            v = random_annulus_field(g, lam, rng)
            dmax_p = max(
                lp_norm(field_from_coeffs(g, s * v.coeffs), p) for s in syms
            )
            rev.append(lam**k * lp_norm(v, p) / dmax_p)
        fwd_scale.append((lam, max(fwd), min(fwd)))
        rev_scale.append((lam, max(rev), min(rev)))

    params = {"k": k, "p": p, "q": q, "trials": trials}
    fwd_rep = CheckReport(
        "bernstein_forward", params,
        max(m for _, m, _ in fwd_scale), min(m for _, _, m in fwd_scale),
        g.n, seed, fwd_scale,
    )
    rev_rep = CheckReport(
        "bernstein_reverse", params,
        max(m for _, m, _ in rev_scale), min(m for _, _, m in rev_scale),
        g.n, seed, rev_scale,
    )
    return fwd_rep, rev_rep


def check_embedding(
    P: DyadicPartition,
    alpha: float,
    beta: float,
    p: float,
    r: float,
    q1: float,
    q2: float,
    trials: int,
    seed: int = 0,
) -> CheckReport:
    """Measured constant of the Besov embedding with
    beta = alpha + d (1/r - 1/p), r < p, q1 <= q2."""
    g = P.grid
    inv = lambda v: 0.0 if np.isinf(v) else 1.0 / v
    if abs(beta - (alpha + g.d * (inv(r) - inv(p)))) > 1e-12:
        raise ConfigurationError(
            f"index relation violated: beta != alpha + d(1/r - 1/p) "
            f"({beta} vs {alpha + g.d * (inv(r) - inv(p))})"
        )
    if not (q1 <= q2 and r <= p):
        raise ConfigurationError("embedding needs q1 <= q2 and r <= p")
    rng = np.random.default_rng(seed)
    hi = BesovIndex(alpha, p, q2)
    lo = BesovIndex(beta, r, q1)
    ratios = []
    for _ in range(trials):
        f = random_field_with_decay(g, beta, rng, kmax=2.0**P.j_max)
        den = besov_norm(f, lo, P)
        ratios.append(besov_norm(f, hi, P) / den if den > 0 else 0.0)
    params = {"alpha": alpha, "beta": beta, "p": p, "r": r, "q1": q1, "q2": q2,
              "trials": trials}
    return CheckReport("embedding", params, max(ratios), min(ratios), g.n, seed)
