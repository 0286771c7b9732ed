"""Bony decomposition: paraproducts, resonant product, measured estimates.

The decomposition of a product f g into

    f prec g = sum_j S_{j-1} f  Delta_j g      (low-high)
    f succ g = sum_j Delta_j f  S_{j-1} g      (high-low)
    f reso g = sum_{|i-j|<=1} Delta_i f Delta_j g

with S_{j-1} the zero operator for j - 1 < -1.  Every term is an exact
(dealiased) product of band-limited functions, so the three pieces sum
to the dealiased pointwise product for resolved inputs.

Two evaluation paths are provided: a batch path on the doubled grid
(used by `bony_decompose` and `para_apply`) and per-block small-grid
operators with exact adjoints (`LowSidePara`, `HighSidePara`) used in
the transform compositions, where the fixed factor's block data is
cached and the blocks run real FFTs on half spectra.  Both compute the
same exact convolutions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .lp import BesovIndex, CheckReport, DyadicPartition, besov_norm, random_field_with_decay
from .torus import (
    SpectralField,
    add_split_half,
    embed_coeffs,
    field_from_coeffs,
    fold_half,
    full_spectrum,
    restrict_coeffs,
)

_WHICH = ("prec", "succ", "reso", "preceq", "succeq")


def _fine_blocks(P: DyadicPartition, coeffs: np.ndarray):
    """Physical values of all blocks and partial sums on the doubled grid."""
    n, m = P.grid.n, 2 * P.grid.n
    blocks = []
    for j in range(-1, P.j_max + 1):
        c = embed_coeffs(P.block_symbol(j) * coeffs, n, m)
        blocks.append(np.fft.fftn(c))
    sums = [np.zeros_like(blocks[0])]  # S_{-1} = 0; S_{-2} likewise
    acc = np.zeros_like(blocks[0])
    for b in blocks:
        acc = acc + b
        sums.append(acc.copy())
    # sums[j + 1] = S_j on the fine grid, j = -1 .. j_max + 1
    return blocks, sums


def bony_decompose(
    f: SpectralField, g: SpectralField, P: DyadicPartition
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Return (f prec g, f reso g, f succ g)."""
    if f.grid != g.grid:
        raise ConfigurationError("bony_decompose needs both fields on one grid")
    if P.grid != f.grid:
        raise ConfigurationError("partition was built on a different grid")
    n, m = f.grid.n, 2 * f.grid.n
    fb, fs = _fine_blocks(P, f.coeffs)
    gb, gs = _fine_blocks(P, g.coeffs)
    lo = np.zeros((m,) * f.grid.d, np.complex128)
    hi = np.zeros_like(lo)
    res = np.zeros_like(lo)
    for j in range(-1, P.j_max + 1):
        i = j + 1  # list index of block j
        if i >= 1:  # S_{j-1} is the zero operator for j <= 0
            lo += fs[i - 1] * gb[i]   # S_{j-1} f * Delta_j g
            hi += fb[i] * gs[i - 1]
        for i2 in (i - 1, i, i + 1):
            if 0 <= i2 <= P.j_max + 1:
                res += fb[i] * gb[i2]
    out = []
    for phys in (lo, res, hi):
        out.append(field_from_coeffs(f.grid, restrict_coeffs(np.fft.ifftn(phys), m, n)))
    return out[0], out[1], out[2]


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
# per-block small-grid paraproduct operators with exact adjoints

def _small_sizes(P: DyadicPartition) -> dict[int, int]:
    """Smallest dyadic grid hosting S_{j-1} f * Delta_j w alias-free."""
    n = P.grid.n
    return {j: min(n, 2 ** (j + 3)) for j in range(1, P.j_max + 1)}


def _on_block_grid(sym: np.ndarray, n: int, m: int) -> np.ndarray:
    """Half spectrum of a radial symbol on the m-lattice (m <= n)."""
    k = np.arange(m)
    src = np.where(k <= m // 2, k, k + n - m)
    return sym[np.ix_(*([src] * (sym.ndim - 1) + [src[: m // 2 + 1]]))]


class _FixedSidePara:
    """w -> sum_j (fixed_j * filter_j w), products on per-block small grids.

    `fixed_sym(j)` selects the cached factor's symbol, `moving_sym(j)` the
    filter applied to the argument.  Adjoint: filter_j (fixed_j * w).
    Blocks are evaluated with real FFTs on half spectra and summed into one
    half spectrum; the symbols are radial, so they are applied on the block
    grid, where the Nyquist pairs they multiply share one value.
    """

    def __init__(self, P: DyadicPartition, fixed_coeffs: np.ndarray,
                 fixed_sym, moving_sym):
        self.P = P
        self.n = n = P.grid.n
        self.axes = tuple(range(P.grid.d))
        self.sizes = _small_sizes(P)
        self.moving = {j: _on_block_grid(moving_sym(j), n, m)
                       for j, m in self.sizes.items()}
        self.cached = {}
        for j, m in self.sizes.items():
            c = _on_block_grid(fixed_sym(j), n, m) * fold_half(fixed_coeffs, n, m, 1.0)
            self.cached[j] = np.fft.irfftn(c, s=(m,) * len(self.axes),
                                           axes=self.axes, norm="forward")

    def _product(self, j: int, m: int, half: np.ndarray) -> np.ndarray:
        """Half spectrum of the fixed factor times the field `half`, on the
        m-lattice of block j."""
        phys = np.fft.irfftn(half, s=(m,) * len(self.axes), axes=self.axes,
                             norm="forward")
        return np.fft.rfftn(self.cached[j] * phys, axes=self.axes, norm="forward")

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        n = self.n
        out = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), np.complex128)
        for j, m in self.sizes.items():
            wj = self.moving[j] * fold_half(coeffs, n, m, 1.0)
            add_split_half(out, self._product(j, m, wj), m, 0.5)
        return full_spectrum(out, n)

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        # the real transforms' normalizations cancel around the real
        # physical factor, leaving the mirrored composition
        n = self.n
        out = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), np.complex128)
        for j, m in self.sizes.items():
            wj = fold_half(coeffs, n, m, 0.5)
            add_split_half(out, self.moving[j] * self._product(j, m, wj), m, 1.0)
        return full_spectrum(out, n)


class LowSidePara(_FixedSidePara):
    """w -> f prec w with the low-frequency factor f fixed and cached."""

    def __init__(self, P: DyadicPartition, f_coeffs: np.ndarray):
        super().__init__(
            P, f_coeffs,
            fixed_sym=lambda j: P.partial_symbol(j - 1),
            moving_sym=lambda j: P.block_symbol(j),
        )


class HighSidePara(_FixedSidePara):
    """w -> w prec z with the high-frequency factor z fixed and cached."""

    def __init__(self, P: DyadicPartition, z_coeffs: np.ndarray):
        super().__init__(
            P, z_coeffs,
            fixed_sym=lambda j: P.block_symbol(j),
            moving_sym=lambda j: P.partial_symbol(j - 1),
        )


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
