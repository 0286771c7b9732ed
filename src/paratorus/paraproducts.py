"""Bony decomposition: paraproducts, resonant product, measured estimates.

The decomposition of a product f g into

    f prec g = sum_j S_{j-1} f  Delta_j g      (low-high)
    f succ g = sum_j Delta_j f  S_{j-1} g      (high-low)
    f reso g = sum_{|i-j|<=1} Delta_i f Delta_j g

with S_{j-1} the zero operator for j - 1 < -1.  Every term is an exact
(dealiased) product of band-limited functions, so the three pieces sum
to the dealiased pointwise product for resolved inputs.

One engine, `_FixedSidePara`, evaluates every product with a cached
factor: a sum of blocks, each the exact product of two filtered fields on
the smallest grid that holds it alias-free, at most the product grid
`torus.product_size(n)` (about 3n/2).  A block carries its own fixed
factor and may filter its input and its output, with a derivative as well
as a Littlewood-Paley block, and a sum of blocks runs in one transform
pass: blocks on one grid share the inverse transform of a common input
and the forward transform of a common output.  The builders
`low_side_blocks`, `high_side_blocks` and `resonant_blocks` return the
block lists of one paraproduct; a sum such as sum_l d_l (f prec d_l w)
concatenates their lists, run by `linops.blocks_op`, and `bony_decompose`
and `linops.field_products_op` are block lists for it too.  The engine
restricts each symbol factor to a block lattice once (`torus.fold_half`,
the mode copy below) and caches one physical factor per (grid, fixed
field, fixed symbol), so the blocks of such a sum share their factors
whatever their derivatives.  It has an exact adjoint and keeps its
private name because benchmark tooling patches it by that name.  Like
`torus.pointwise_product` it takes the moving field through
`torus.reflected_values`/`reflected_spectrum` and its fixed factors at
`torus.true_values`, so the stored coefficients' sqrt 2 costs it no pass
over an array.

A block moves its input to the m-lattice and the product back by copying
the modes both lattices keep (`torus.resample_half`), so the move back is
the adjoint of the move there, and the engine's adjoint runs the same
moves with the symbols swapped.  The Nyquist entries of every lattice
stay zero.  On a paraproduct block grid m < n this drops nothing: the
block's symbols vanish at |k| >= m/2 (the Littlewood-Paley supports reach
8/3 and 16/3 of 2^j against m/2 = 4 and 8 of 2^j), and so does the
product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .lp import BesovIndex, CheckReport, DyadicPartition, besov_norm, random_field_with_decay
from .torus import (
    Grid,
    SpectralField,
    field_from_coeffs,
    fold_half,
    hermitian_coeffs,
    make_real,
    product_size,
    reflected_spectrum,
    reflected_values,
    resample_half,
    true_values,
)


def bony_decompose(
    f: SpectralField, g: SpectralField, P: DyadicPartition
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Return (f prec g, f reso g, f succ g)."""
    if f.grid != g.grid:
        raise ConfigurationError("bony_decompose needs both fields on one grid")
    if P.grid != f.grid:
        raise ConfigurationError("partition was built on a different grid")
    lo = _FixedSidePara(f.grid, low_side_blocks(P, f.coeffs)).apply(g.coeffs)
    res = _FixedSidePara(f.grid, resonant_blocks(P, f.coeffs)).apply(g.coeffs)
    hi = _FixedSidePara(f.grid, low_side_blocks(P, g.coeffs)).apply(f.coeffs)
    return tuple(field_from_coeffs(f.grid, c) for c in (lo, res, hi))


# ---------------------------------------------------------------------------
# the dealiased-product engine and its block lists

def _factors(sym) -> tuple:
    """A block symbol as its tuple of factors; None is no filter."""
    if sym is None:
        return ()
    return sym if isinstance(sym, tuple) else (sym,)


class Block(NamedTuple):
    """One product of the engine: w -> c(D) [(a(D) fixed) * (b(D) w)],
    exact on the m-lattice.  `fixed` holds the coefficients of a real
    field; a = fixed_sym, b = in_sym and c = out_sym are Fourier symbols
    on the n-lattice, or None for no filter.  b and c may be tuples of
    factors (a derivative and a Littlewood-Paley block, say), which the
    engine applies one at a time."""

    m: int
    fixed: np.ndarray
    fixed_sym: np.ndarray | None = None
    in_sym: np.ndarray | tuple | None = None
    out_sym: np.ndarray | tuple | None = None


def _plan(blocks, in_side, out_side, symbol, cached):
    """Group the blocks into transform passes: those with the same grid m
    and input factors share one inverse transform of the moving field,
    those with the same m and output factors add their physical products
    before one forward transform (factors are told apart by identity).
    Returns (inputs, outputs): inputs lists (m, factors), outputs
    (m, factors, [(cached factor, input)], the inputs last used by this
    output)."""
    inputs, outputs, in_ix, out_ix = [], [], {}, {}
    for blk, phys in zip(blocks, cached):
        s_in, s_out = getattr(blk, in_side), getattr(blk, out_side)
        i = in_ix.setdefault((blk.m, tuple(map(id, _factors(s_in)))), len(inputs))
        if i == len(inputs):
            inputs.append((blk.m, symbol(blk.m, s_in)))
        o = out_ix.setdefault((blk.m, tuple(map(id, _factors(s_out)))), len(outputs))
        if o == len(outputs):
            outputs.append((blk.m, symbol(blk.m, s_out), [], []))
        outputs[o][2].append((phys, i))
    last = {i: o for o, (_, _, terms, _) in enumerate(outputs) for _, i in terms}
    for i, o in last.items():
        outputs[o][3].append(i)
    return inputs, outputs


class _FixedSidePara:
    """w -> sum over blocks of c(D) [(a(D) fixed) * (b(D) w)], each product
    exact on its block's m-lattice (see Block); the adjoint is
    w -> sum conj(b)(D) [(a(D) fixed) * (conj(c)(D) w)], the cached
    factors being real.

    A block copies the modes its m-lattice and the n-lattice both keep,
    to the m-lattice and back, and its symbols act on the smaller of the
    two lattices.  A sum of blocks runs in one transform pass: one inverse
    transform per (m, input factors), one forward transform per (m, output
    factors), all adding into one coefficient array whose column k_d = 0
    is made exactly Hermitian once per call.  Each symbol factor is restricted
    to a lattice once, and each physical factor is computed once per
    (m, fixed field, fixed symbol), so blocks that differ only in their
    derivatives share both.
    """

    def __init__(self, g: Grid, blocks):
        self.grid = g
        self.n = n = g.n
        restricted = {}

        def half(m, sym, conj=False):
            out = []
            for s in _factors(sym):
                c = conj and np.iscomplexobj(s)
                key = (min(m, n), id(s), c)
                if key not in restricted:
                    h = fold_half(np.broadcast_to(s, g.half_shape), n, min(m, n))
                    restricted[key] = np.conj(h) if c else h
                out.append(restricted[key])
            return tuple(out)

        blocks = list(blocks)
        phys, cached = {}, []
        for b in blocks:
            key = (b.m, id(b.fixed), id(b.fixed_sym))
            if key not in phys:
                phys[key] = true_values(b.fixed, n, b.m, half(b.m, b.fixed_sym))
            cached.append(phys[key])
        self._forward = _plan(blocks, "in_sym", "out_sym", half, cached)
        self._backward = _plan(blocks, "out_sym", "in_sym",
                               lambda m, s: half(m, s, conj=True), cached)

    def _run(self, plan, coeffs: np.ndarray) -> np.ndarray:
        n, (inputs, outputs) = self.n, plan
        vals = [reflected_values(resample_half(coeffs, n, m, sym), m)
                for m, sym in inputs]
        out = None
        for m, sym, terms, done in outputs:
            phys = None
            for cached, i in terms:
                phys = cached * vals[i] if phys is None else phys + cached * vals[i]
            # free the inputs used up before the forward transform allocates
            for i in done:
                vals[i] = None
            out = resample_half(reflected_spectrum(phys), m, n, sym, out)
        return make_real(self.grid, out)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return self._run(self._forward, coeffs)

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        # the real transforms' normalizations cancel around the real
        # physical factor, leaving the mirrored composition
        return self._run(self._backward, coeffs)


def low_side_blocks(P: DyadicPartition, f_coeffs: np.ndarray,
                    in_sym=None, out_sym=None) -> list[Block]:
    """Blocks of w -> c(D) (f prec b(D) w), b = in_sym and c = out_sym as
    in Block, with the low-frequency factor f fixed."""
    n = P.grid.n
    return [Block(min(n, 2 ** (j + 3)), f_coeffs, P.partial_symbol(j - 1),
                  _factors(in_sym) + (P.block_symbol(j),), out_sym)
            for j in range(1, P.j_max + 1)]


def high_side_blocks(P: DyadicPartition, z_coeffs: np.ndarray,
                     in_sym=None, out_sym=None) -> list[Block]:
    """Blocks of w -> c(D) (b(D) w prec z), b = in_sym and c = out_sym as
    in Block, with the high-frequency factor z fixed."""
    n = P.grid.n
    return [Block(min(n, 2 ** (j + 3)), z_coeffs, P.block_symbol(j),
                  _factors(in_sym) + (P.partial_symbol(j - 1),), out_sym)
            for j in range(1, P.j_max + 1)]


def resonant_blocks(P: DyadicPartition, f_coeffs: np.ndarray) -> list[Block]:
    """Blocks of w -> f reso w with f fixed; the top block's product
    reaches past the n-lattice band, so it runs on the product grid
    (torus.product_size), the smallest one where it is alias-free."""
    n, J = P.grid.n, P.j_max
    m_top = product_size(n)
    return [Block(min(m_top, 2 ** (j + 4)), f_coeffs, P.block_symbol(j),
                  sum(P.block_symbol(i) for i in (j - 1, j, j + 1) if -1 <= i <= J))
            for j in range(-1, J + 1)]


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
    base = hermitian_coeffs(g, np.abs(rng.standard_normal(g.shape)))
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
