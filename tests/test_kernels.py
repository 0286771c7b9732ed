"""The real-FFT product engine against complex-FFT references.

`mult_field_op`, the per-block paraproducts and `bony_decompose` all run
on one engine that transforms half spectra with real FFTs.  The
references below evaluate the same maps on the full spectrum with
complex FFTs; on Hermitian inputs (real fields), including non-zero
Nyquist entries, both must agree to round-off.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from paratorus.linops import mult_field_op, random_hermitian
from paratorus.lp import build_partition
from paratorus.paraproducts import HighSidePara, LowSidePara, bony_decompose
from paratorus.torus import (
    add_split_half,
    embed_coeffs,
    fold_half,
    fold_lattice,
    field_from_coeffs,
    full_spectrum,
    grid,
    restrict_coeffs,
    split_lattice,
)

REL_TOL = 1e-14
GRIDS = [(1, 8), (1, 32), (1, 128), (2, 16), (2, 32), (2, 64), (3, 8), (3, 32)]
PARTITION_GRIDS = [(d, n) for d, n in GRIDS if n >= 32]  # j_max >= 2

seeds = st.integers(0, 2**32 - 1)


@lru_cache(maxsize=None)
def partition(d, n):
    return build_partition(grid(d, n))


def hermitian_with_nyquist(g, rng):
    x = random_hermitian(g, rng)
    assert np.all(x[..., g.n // 2] != 0.0)
    return x


def ref_mult(g, f, x, adjoint):
    m = 2 * g.n
    phi = np.fft.fftn(embed_coeffs(f, g.n, m)).real
    w_split, w_fold = (1.0, 0.5) if adjoint else (0.5, 1.0)
    big = split_lattice(x, g.n, m, weight=w_split)
    return fold_lattice(np.fft.ifftn(phi * np.fft.fftn(big)), m, g.n, weight=w_fold)


def ref_para(P, fixed, x, fixed_sym, moving_sym, adjoint):
    n = P.grid.n
    out = np.zeros(P.grid.shape, np.complex128)
    for j in range(1, P.j_max + 1):
        m = min(n, 2 ** (j + 3))
        phys = np.fft.fftn(fold_lattice(fixed_sym(j) * fixed, n, m, weight=1.0))
        if adjoint:
            wj = fold_lattice(x, n, m, weight=0.5)
            prod = np.fft.ifftn(np.conj(phys) * np.fft.fftn(wj))
            out += moving_sym(j) * split_lattice(prod, m, n, weight=1.0)
        else:
            wj = fold_lattice(moving_sym(j) * x, n, m, weight=1.0)
            prod = np.fft.ifftn(phys * np.fft.fftn(wj))
            out += split_lattice(prod, m, n, weight=0.5)
    return out


def ref_bony(P, f, g):
    """(f prec g, f reso g, f succ g), every block product on the doubled grid."""
    n, m, J = P.grid.n, 2 * P.grid.n, P.j_max

    def phys(sym, c):
        return np.fft.fftn(embed_coeffs(sym * c, n, m))

    lo = res = hi = np.zeros((m,) * P.grid.d, np.complex128)
    for j in range(-1, J + 1):
        if j >= 1:
            lo = lo + phys(P.partial_symbol(j - 1), f) * phys(P.block_symbol(j), g)
            hi = hi + phys(P.block_symbol(j), f) * phys(P.partial_symbol(j - 1), g)
        for i in range(max(-1, j - 1), min(J, j + 1) + 1):
            res = res + phys(P.block_symbol(j), f) * phys(P.block_symbol(i), g)
    return [restrict_coeffs(np.fft.ifftn(p), m, n) for p in (lo, res, hi)]


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


def assert_adjoint(op_apply, op_adjoint, x, y):
    tx, ty = op_apply(x), op_adjoint(y)
    lhs, rhs = np.vdot(tx, y), np.vdot(x, ty)
    scale = np.linalg.norm(tx) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(ty)
    assert abs(lhs - rhs) <= REL_TOL * scale


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), seeds)
def test_mult_field_op_matches_complex_reference(dn, seed):
    g = grid(*dn)
    rng = np.random.default_rng(seed)
    f, x, y = (hermitian_with_nyquist(g, rng) for _ in range(3))
    op = mult_field_op(g, f)
    assert_close(op.apply(x), ref_mult(g, f, x, adjoint=False))
    assert_close(op.adjoint(x), ref_mult(g, f, x, adjoint=True))
    assert_adjoint(op.apply, op.adjoint, x, y)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PARTITION_GRIDS), st.sampled_from(["low", "high"]), seeds)
def test_paraproducts_match_complex_reference(dn, side, seed):
    P = partition(*dn)
    rng = np.random.default_rng(seed)
    fixed, x, y = (hermitian_with_nyquist(P.grid, rng) for _ in range(3))
    if side == "low":
        engine = LowSidePara(P, fixed)
        syms = (lambda j: P.partial_symbol(j - 1), P.block_symbol)
    else:
        engine = HighSidePara(P, fixed)
        syms = (P.block_symbol, lambda j: P.partial_symbol(j - 1))
    assert_close(engine.apply(x), ref_para(P, fixed, x, *syms, adjoint=False))
    assert_close(engine.adjoint(x), ref_para(P, fixed, x, *syms, adjoint=True))
    assert_adjoint(engine.apply, engine.adjoint, x, y)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PARTITION_GRIDS), seeds)
def test_bony_decompose_matches_complex_reference(dn, seed):
    # full-band inputs reach the top block, whose resonant products run on
    # the doubled grid
    P = partition(*dn)
    rng = np.random.default_rng(seed)
    f, g = (hermitian_with_nyquist(P.grid, rng) for _ in range(2))
    got = bony_decompose(field_from_coeffs(P.grid, f), field_from_coeffs(P.grid, g), P)
    for part, ref in zip(got, ref_bony(P, f, g)):
        assert_close(part.coeffs, ref)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), st.sampled_from([0.5, 1.0]), seeds)
def test_half_spectrum_split_and_fold(dn, weight, seed):
    d, n = dn
    g, big = grid(d, n), grid(d, 2 * n)
    rng = np.random.default_rng(seed)
    x = hermitian_with_nyquist(g, rng)
    grown = np.zeros((2 * n,) * (d - 1) + (n + 1,), np.complex128)
    add_split_half(grown, x[..., : n // 2 + 1], n, weight)
    np.testing.assert_array_equal(full_spectrum(grown, 2 * n),
                                  split_lattice(x, n, 2 * n, weight))
    X = hermitian_with_nyquist(big, rng)
    np.testing.assert_allclose(full_spectrum(fold_half(X, 2 * n, n, weight), n),
                               fold_lattice(X, 2 * n, n, weight), rtol=0, atol=1e-15)
