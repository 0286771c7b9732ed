"""Bony decomposition: paraproducts, resonant product, measured estimates.

The decomposition of a product f g into

    f prec g = sum_j S_{j-1} f  Delta_j g      (low-high)
    f succ g = sum_j Delta_j f  S_{j-1} g      (high-low)
    f reso g = sum_{|i-j|<=1} Delta_i f Delta_j g

with S_{j-1} the zero operator for j - 1 < -1.  Every term is an exact
(dealiased) product of band-limited functions, so the three pieces sum
to the dealiased pointwise product for resolved inputs.

One engine, `_FixedSidePara`, evaluates every product with a cached
factor: a sum of blocks, each the exact product of two filtered fields
on the smallest grid that holds it alias-free, at most the doubled grid.
`LowSidePara`, `HighSidePara`, `ResonantPara`, `bony_decompose` and
`linops.mult_field_op` (one unfiltered block) are block lists for it.
It has an exact adjoint and keeps its private name because benchmark
tooling patches it by that name.  Like `torus.pointwise_product` it
transforms through `torus.reflected_values`/`reflected_spectrum`, so
every dealiased product of the package runs the same real FFTs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .lp import BesovIndex, CheckReport, DyadicPartition, besov_norm, random_field_with_decay
from .torus import (
    Grid,
    SpectralField,
    field_from_coeffs,
    full_spectrum,
    reflected_spectrum,
    reflected_values,
    resample_half,
)

_WHICH = ("prec", "succ", "reso", "preceq", "succeq")


def bony_decompose(
    f: SpectralField, g: SpectralField, P: DyadicPartition
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Return (f prec g, f reso g, f succ g)."""
    if f.grid != g.grid:
        raise ConfigurationError("bony_decompose needs both fields on one grid")
    if P.grid != f.grid:
        raise ConfigurationError("partition was built on a different grid")
    lo = LowSidePara(P, f.coeffs).apply(g.coeffs)
    res = ResonantPara(P, f.coeffs).apply(g.coeffs)
    hi = LowSidePara(P, g.coeffs).apply(f.coeffs)
    return tuple(field_from_coeffs(f.grid, c) for c in (lo, res, hi))


def para_apply(
    f: SpectralField, g: SpectralField, which: str, P: DyadicPartition
) -> SpectralField:
    """Select components of the decomposition; 'preceq' = prec + reso,
    'succeq' = reso + succ."""
    if which not in _WHICH:
        raise ConfigurationError(f"which must be one of {_WHICH}, got {which!r}")
    lo, res, hi = bony_decompose(f, g, P)
    if which == "prec":
        return lo
    if which == "succ":
        return hi
    if which == "reso":
        return res
    if which == "preceq":
        return lo + res
    return res + hi


# ---------------------------------------------------------------------------
# the dealiased-product engine and its block lists

def _on_block_grid(sym: np.ndarray, n: int, m: int) -> np.ndarray:
    """Half spectrum of a radial symbol on the m-lattice (m <= n)."""
    k = np.arange(m)
    src = np.where(k <= m // 2, k, k + n - m)
    return sym[np.ix_(*([src] * (sym.ndim - 1) + [src[: m // 2 + 1]]))]


class _FixedSidePara:
    """w -> sum over blocks of (a(D) fixed) * (b(D) w), each product exact
    on its block's m-lattice; the adjoint is w -> sum b(D) ((a(D) fixed) * w),
    the symbols being real.

    `blocks` lists (m, a, b) with a and b radial symbols on the n-lattice,
    or None for no filter.  A block with m <= n folds its inputs onto the
    m-lattice and splits the product back; one with m > n splits its
    inputs and folds the product.  The symbols act on the smaller of the
    two lattices, where the Nyquist pairs they multiply share one value.
    Every block adds into one half spectrum, completed to the full
    Hermitian array once per call.
    """

    def __init__(self, g: Grid, fixed_coeffs: np.ndarray, blocks):
        self.n = n = g.n
        self.blocks = []
        for m, fixed_sym, moving_sym in blocks:
            small = min(m, n)
            a, b = (None if s is None else _on_block_grid(s, n, small)
                    for s in (fixed_sym, moving_sym))
            cached = reflected_values(resample_half(fixed_coeffs, n, m, 0.5, 1.0, a), m)
            self.blocks.append((m, cached, b))

    def _product(self, m: int, cached: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Half spectrum of the cached factor times the field `half`, on
        the m-lattice."""
        # one expression, so that the inverse transform's output is freed
        # before the forward transform allocates its own
        return reflected_spectrum(cached * reflected_values(half, m))

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        n, out = self.n, None
        for m, cached, b in self.blocks:
            wj = resample_half(coeffs, n, m, 0.5, 1.0, b)
            out = resample_half(self._product(m, cached, wj), m, n, 0.5, 1.0, out=out)
        return full_spectrum(out, n)

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        # the real transforms' normalizations cancel around the real
        # physical factor, leaving the mirrored composition
        n, out = self.n, None
        for m, cached, b in self.blocks:
            wj = resample_half(coeffs, n, m, 1.0, 0.5)
            out = resample_half(self._product(m, cached, wj), m, n, 1.0, 0.5, b, out)
        return full_spectrum(out, n)


class LowSidePara(_FixedSidePara):
    """w -> f prec w with the low-frequency factor f fixed and cached."""

    def __init__(self, P: DyadicPartition, f_coeffs: np.ndarray):
        n = P.grid.n
        super().__init__(P.grid, f_coeffs, [
            (min(n, 2 ** (j + 3)), P.partial_symbol(j - 1), P.block_symbol(j))
            for j in range(1, P.j_max + 1)
        ])


class HighSidePara(_FixedSidePara):
    """w -> w prec z with the high-frequency factor z fixed and cached."""

    def __init__(self, P: DyadicPartition, z_coeffs: np.ndarray):
        n = P.grid.n
        super().__init__(P.grid, z_coeffs, [
            (min(n, 2 ** (j + 3)), P.block_symbol(j), P.partial_symbol(j - 1))
            for j in range(1, P.j_max + 1)
        ])


class ResonantPara(_FixedSidePara):
    """w -> f reso w with f fixed and cached; the top block's product
    reaches past the n-lattice band, so it runs on the doubled grid."""

    def __init__(self, P: DyadicPartition, f_coeffs: np.ndarray):
        n, J = P.grid.n, P.j_max
        super().__init__(P.grid, f_coeffs, [
            (min(2 * n, 2 ** (j + 4)), P.block_symbol(j),
             sum(P.block_symbol(i) for i in (j - 1, j, j + 1) if -1 <= i <= J))
            for j in range(-1, J + 1)
        ])


# ---------------------------------------------------------------------------
# measured paraproduct estimates

def _output_p(p1: float, p2: float) -> float:
    inv = (0.0 if np.isinf(p1) else 1.0 / p1) + (0.0 if np.isinf(p2) else 1.0 / p2)
    if inv > 1.0 + 1e-12:
        raise ConfigurationError(f"1/p1 + 1/p2 = {inv} > 1 is inadmissible")
    return np.inf if inv == 0.0 else 1.0 / inv


def adversarial_pair(P: DyadicPartition, a1: float, a2: float,
                     rng: np.random.Generator):
    """Aligned-phase fields concentrated in the top annuli: the resonant
    products of the pair pile up coherently at frequency zero, attaining
    the 2^{-j_max (a1 + a2)} growth of the resonant bound when a1+a2 < 0."""
    g = P.grid
    top = P.rho[P.j_max] + P.rho[P.j_max - 1]
    with np.errstate(divide="ignore"):
        mag = np.where(g.kabs > 0, g.kabs ** (-(a1 + g.d / 2.0)), 0.0)
    base = np.abs(rng.standard_normal(g.shape))
    f = field_from_coeffs(g, top * mag * base)
    with np.errstate(divide="ignore"):
        mag2 = np.where(g.kabs > 0, g.kabs ** (-(a2 + g.d / 2.0)), 0.0)
    h = field_from_coeffs(g, top * mag2 * base)
    return f, h


def check_para_estimates(
    P: DyadicPartition,
    a1: float,
    a2: float,
    p1: float,
    p2: float,
    q: float,
    trials: int,
    seed: int = 0,
    adversarial: bool = False,
) -> dict[str, CheckReport]:
    """Measured ratios of the paraproduct and resonant estimates.

    paraproduct:  |f prec g|_{B^a_{p,q}} / (|f|_{B^{a1}_{p1,inf}} |g|_{B^{a2}_{p2,q}})
    with a = min(a1, 0) + a2; resonant analogue at a1 + a2 (classically
    meaningful only for a1 + a2 > 0).
    """
    if a1 == 0.0:
        raise ConfigurationError("paraproduct estimate needs a1 != 0")
    p = _output_p(p1, p2)
    g = P.grid
    rng = np.random.default_rng(seed)
    a_lo = min(a1, 0.0) + a2
    idx_lo = BesovIndex(a_lo, p, q)
    idx_res = BesovIndex(a1 + a2, p, q)
    idx_f = BesovIndex(a1, p1, np.inf)
    idx_g = BesovIndex(a2, p2, q)
    kmax = 2.0**P.j_max
    lo_ratios, res_ratios = [], []
    for _ in range(trials):
        if adversarial:
            f, h = adversarial_pair(P, a1, a2, rng)
        else:
            f = random_field_with_decay(g, a1, rng, kmax=kmax)
            h = random_field_with_decay(g, a2, rng, kmax=kmax)
        den = besov_norm(f, idx_f, P) * besov_norm(h, idx_g, P)
        if den == 0.0:
            lo_ratios.append(0.0)
            res_ratios.append(0.0)
            continue
        lo, res, _ = bony_decompose(f, h, P)
        lo_ratios.append(besov_norm(lo, idx_lo, P) / den)
        res_ratios.append(besov_norm(res, idx_res, P) / den)
    params = {"a1": a1, "a2": a2, "p1": p1, "p2": p2, "q": q,
              "trials": trials, "adversarial": int(adversarial)}
    tag = "_adversarial" if adversarial else ""
    return {
        "para": CheckReport(f"para_lo{tag}", params, max(lo_ratios),
                            min(lo_ratios), g.n, seed),
        "resonant": CheckReport(f"para_resonant{tag}", params, max(res_ratios),
                                min(res_ratios), g.n, seed),
    }
