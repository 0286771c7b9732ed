"""The real-FFT kernels against complex-FFT references.

Every transform of the package runs real FFTs on the stored half lattice:
the products on the product grid (`torus.product_size`, about 3n/2),
`exp_field` on the 2x-padded grid, `to_physical` and `to_spectral`, and
the one engine under `mult_field_op`, the per-block paraproducts and
`bony_decompose`.  The references below evaluate the same maps on the
full Hermitian array (`oracles.to_full`/`to_half`) with complex FFTs,
every product on the doubled grid and truncated to the kept modes
|k_i| <= n/2 - 1; on real fields reaching the last kept mode, both must
agree to round-off.  The package itself never calls a complex FFT, and
every field it makes has zero Nyquist entries k_i = n/2 and an exactly
Hermitian column k_d = 0.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratorus.errors import FieldRangeError
from paratorus import torus
from paratorus.linops import (
    add,
    blocks_op,
    compose,
    mult_field_op,
    multiplier_op,
    random_hermitian,
)
from paratorus.lp import build_partition
from paratorus.noise import (
    NoiseSpec,
    enhance_anderson2d,
    enhance_generic,
    sample_white_noise,
)
from paratorus.paraproducts import (
    bony_decompose,
    high_side_blocks,
    low_side_blocks,
    resonant_blocks,
)
from paratorus.torus import (
    EXP_OVERFLOW_LIMIT,
    exp_field,
    fold_half,
    fold_lattice,
    field_from_coeffs,
    grid,
    lp_norm,
    pointwise_product,
    product_size,
    resample_half,
    split_lattice,
    to_physical,
    to_spectral,
)
from paratorus.transforms import choose_cutoffs, save_stack, verify_stack

from oracles import to_full, to_half

REL_TOL = 1e-14
GRIDS = [(1, 8), (1, 32), (1, 128), (2, 16), (2, 32), (2, 64), (3, 8), (3, 32)]
PARTITION_GRIDS = [(d, n) for d, n in GRIDS if n >= 32]  # j_max >= 2

seeds = st.integers(0, 2**32 - 1)


@lru_cache(maxsize=None)
def partition(d, n):
    return build_partition(grid(d, n))


def nyquist_free(x, g):
    return not any(np.any(x[plane]) for plane in g.nyquist)


def real_field(x, g):
    """Zero Nyquist entries and an exactly Hermitian column k_d = 0."""
    col = x[..., 0]
    return nyquist_free(x, g) and np.array_equal(col, np.conj(col[g._mirror0]))


def full_band(g, rng):
    """A random real field on every kept mode: non-zero on all (n-1)^d
    modes |k_i| <= n/2 - 1, zero on the Nyquist entries."""
    x = random_hermitian(g, rng)
    assert np.count_nonzero(to_full(x, g)) == (g.n - 1) ** g.d and real_field(x, g)
    return x


def padded_values(g, a):
    return np.fft.fftn(split_lattice(to_full(a, g), g.n, 2 * g.n)).real


def ref_product(g, a, b):
    """Exact product of two band-limited fields' coefficients, 2x padded."""
    prod = padded_values(g, a) * padded_values(g, b)
    return to_half(fold_lattice(np.fft.ifftn(prod), 2 * g.n, g.n))


def ref_exp(g, a):
    return to_half(fold_lattice(np.fft.ifftn(np.exp(padded_values(g, a))),
                                2 * g.n, g.n))


def ref_mult(g, f, x):
    """Multiplication by f, a symmetric operator: its own adjoint."""
    m = 2 * g.n
    prod = padded_values(g, f) * np.fft.fftn(split_lattice(to_full(x, g), g.n, m))
    return to_half(fold_lattice(np.fft.ifftn(prod), m, g.n))


def ref_para(P, fixed, x, fixed_sym, moving_sym, adjoint):
    # the Littlewood-Paley symbols are real and even, so they multiply the
    # stored coefficients as they do the full array
    g, n = P.grid, P.grid.n
    out = np.zeros(g.half_shape, np.complex128)
    for j in range(1, P.j_max + 1):
        m = min(n, 2 ** (j + 3))
        phys = np.fft.fftn(fold_lattice(to_full(fixed_sym(j) * fixed, g), n, m))
        if adjoint:
            moving = np.fft.fftn(fold_lattice(to_full(x, g), n, m))
            prod = np.fft.ifftn(np.conj(phys) * moving)
            out += moving_sym(j) * to_half(split_lattice(prod, m, n))
        else:
            wj = fold_lattice(to_full(moving_sym(j) * x, g), n, m)
            out += to_half(split_lattice(np.fft.ifftn(phys * np.fft.fftn(wj)), m, n))
    return out


def ref_bony(P, f, g):
    """(f prec g, f reso g, f succ g), every block product on the doubled grid."""
    n, m, J = P.grid.n, 2 * P.grid.n, P.j_max

    def phys(sym, c):
        return np.fft.fftn(split_lattice(to_full(sym * c, P.grid), n, m))

    lo = res = hi = np.zeros((m,) * P.grid.d, np.complex128)
    for j in range(-1, J + 1):
        if j >= 1:
            lo = lo + phys(P.partial_symbol(j - 1), f) * phys(P.block_symbol(j), g)
            hi = hi + phys(P.block_symbol(j), f) * phys(P.partial_symbol(j - 1), g)
        for i in range(max(-1, j - 1), min(J, j + 1) + 1):
            res = res + phys(P.block_symbol(j), f) * phys(P.block_symbol(i), g)
    return [to_half(fold_lattice(np.fft.ifftn(p), m, n)) for p in (lo, res, hi)]


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


def assert_adjoint(op_apply, op_adjoint, x, y):
    # the real l^2 product of stored coefficients, the L^2 product of fields
    tx, ty = op_apply(x), op_adjoint(y)
    lhs, rhs = np.vdot(tx, y).real, np.vdot(x, ty).real
    scale = np.linalg.norm(tx) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(ty)
    assert abs(lhs - rhs) <= REL_TOL * scale


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), seeds)
def test_field_transforms_match_complex_reference(dn, seed):
    g = grid(*dn)
    rng = np.random.default_rng(seed)
    a, b = (full_band(g, rng) for _ in range(2))
    f, h = field_from_coeffs(g, a), field_from_coeffs(g, b)
    assert_close(pointwise_product(f, h).coeffs, ref_product(g, a, b))
    # values of size 1, where exp's round-off is that of its argument
    small = a / np.sum(np.abs(a))
    assert_close(exp_field(field_from_coeffs(g, small)).coeffs, ref_exp(g, small))
    vals = to_physical(f)
    assert vals.dtype == np.float64
    assert_close(vals, np.fft.fftn(to_full(a, g)).real)
    assert_close(to_spectral(vals, g).coeffs,
                 to_half(np.fft.ifftn(np.fft.fftn(to_full(a, g)).real)))


@pytest.mark.parametrize("dn", GRIDS)
def test_exp_field_refuses_overflow(dn):
    g = grid(*dn)
    a = full_band(g, np.random.default_rng(0))
    peak = np.max(padded_values(g, a))
    exp_field(field_from_coeffs(g, a * (0.99 * EXP_OVERFLOW_LIMIT / peak)))
    with pytest.raises(FieldRangeError, match="exponential overflow"):
        exp_field(field_from_coeffs(g, a * (1.01 * EXP_OVERFLOW_LIMIT / peak)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), seeds)
def test_mult_field_op_matches_complex_reference(dn, seed):
    g = grid(*dn)
    rng = np.random.default_rng(seed)
    f, x, y = (full_band(g, rng) for _ in range(3))
    op = mult_field_op(g, f)
    assert_close(op.apply(x), ref_mult(g, f, x))
    assert_close(op.adjoint(x), ref_mult(g, f, x))
    assert_adjoint(op.apply, op.adjoint, x, y)
    assert_adjoint(op.apply, op.apply, x, y)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PARTITION_GRIDS), st.sampled_from(["low", "high"]), seeds)
def test_paraproducts_match_complex_reference(dn, side, seed):
    P = partition(*dn)
    rng = np.random.default_rng(seed)
    fixed, x, y = (full_band(P.grid, rng) for _ in range(3))
    if side == "low":
        engine = blocks_op(P.grid, low_side_blocks(P, fixed))
        syms = (lambda j: P.partial_symbol(j - 1), P.block_symbol)
    else:
        engine = blocks_op(P.grid, high_side_blocks(P, fixed))
        syms = (P.block_symbol, lambda j: P.partial_symbol(j - 1))
    assert_close(engine.apply(x), ref_para(P, fixed, x, *syms, adjoint=False))
    assert_close(engine.adjoint(x), ref_para(P, fixed, x, *syms, adjoint=True))
    assert_adjoint(engine.apply, engine.adjoint, x, y)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PARTITION_GRIDS), seeds)
def test_paraproduct_sums_with_derivatives_match_composition(dn, seed):
    # sum_l d_l (f prec d_l .), as Lambda and K run it, and
    # . prec z + sum_l d_l (d_l . prec f), as R runs it: one pass each, the
    # blocks carrying the derivatives, against per-side engines composed
    # with full-lattice derivative multiplies
    P = partition(*dn)
    g = P.grid
    rng = np.random.default_rng(seed)
    f, z, x, y = (full_band(g, rng) for _ in range(4))
    dl = g.deriv_symbols
    D = [multiplier_op(np.broadcast_to(s, g.half_shape)) for s in dl]
    low_f = blocks_op(g, low_side_blocks(P, f))
    high_f = blocks_op(g, high_side_blocks(P, f))
    cases = [
        (blocks_op(g, [b for l in range(g.d)
                       for b in low_side_blocks(P, f, dl[l], dl[l])]),
         add(*[compose(D[l], low_f, D[l]) for l in range(g.d)])),
        (blocks_op(g, high_side_blocks(P, z) + [
            b for l in range(g.d) for b in high_side_blocks(P, f, dl[l], dl[l])]),
         add(blocks_op(g, high_side_blocks(P, z)),
             *[compose(D[l], high_f, D[l]) for l in range(g.d)])),
    ]
    for one_pass, ref in cases:
        assert_close(one_pass.apply(x), ref.apply(x))
        assert_close(one_pass.adjoint(x), ref.adjoint(x))
        assert_adjoint(one_pass.apply, one_pass.adjoint, x, y)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PARTITION_GRIDS), seeds)
def test_bony_decompose_matches_complex_reference(dn, seed):
    # full-band inputs reach the top block, whose resonant products run on
    # the product grid
    P = partition(*dn)
    rng = np.random.default_rng(seed)
    f, g = (full_band(P.grid, rng) for _ in range(2))
    got = bony_decompose(field_from_coeffs(P.grid, f), field_from_coeffs(P.grid, g), P)
    for part, ref in zip(got, ref_bony(P, f, g)):
        assert_close(part.coeffs, ref)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), seeds)
def test_half_spectrum_split_and_fold(dn, seed):
    d, n = dn
    g, big = grid(d, n), grid(d, 2 * n)
    rng = np.random.default_rng(seed)
    x = full_band(g, rng)
    grown = resample_half(x, n, 2 * n)
    np.testing.assert_array_equal(to_full(grown, big),
                                  split_lattice(to_full(x, g), n, 2 * n))
    X = full_band(big, rng)
    np.testing.assert_allclose(to_full(fold_half(X, 2 * n, n), g),
                               fold_lattice(to_full(X, big), 2 * n, n),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("dn", GRIDS)
def test_every_field_has_zero_nyquist_planes(dn):
    # a raw array with non-zero entries everywhere and a non-Hermitian
    # column k_d = 0 goes into every constructor and operation; nothing
    # comes out on k_i = n/2, and every column 0 is exactly Hermitian
    g = grid(*dn)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
    assert all(np.all(raw[plane] != 0.0) for plane in g.nyquist)
    assert not real_field(raw, g)
    f = field_from_coeffs(g, raw)
    outputs = [to_spectral(rng.standard_normal(g.shape), g).coeffs, f.coeffs,
               random_hermitian(g, rng),
               pointwise_product(f, f).coeffs,
               exp_field(field_from_coeffs(g, raw / np.sum(np.abs(raw)))).coeffs]
    op = mult_field_op(g, raw)
    outputs += [op.apply(raw), op.adjoint(raw)]
    if g.d > 1:
        outputs.append(sample_white_noise(g, 3).coeffs)
    if g.n >= 32:
        P = partition(*dn)
        for blocks in (low_side_blocks(P, raw), high_side_blocks(P, raw),
                       resonant_blocks(P, raw)):
            engine = blocks_op(g, blocks)
            outputs += [engine.apply(raw), engine.adjoint(raw)]
    assert all(real_field(x, g) for x in outputs)


def test_product_size():
    assert [product_size(n) for n in (8, 64, 128, 256)] == [10, 96, 192, 384]


@pytest.mark.parametrize("dn", [(1, 64), (2, 64), (2, 128), (3, 16)])
def test_product_exact_from_three_halves_n_minus_two(dn):
    # the product of two fields on |k_i| <= n/2 - 1 reaches |k_i| = n - 2;
    # on m points it is exact once m >= 3n/2 - 2, and at 3n/2 - 4 the
    # alias of n - 2 lands on the kept mode -(n/2 - 2)
    g = grid(*dn)
    rng = np.random.default_rng(dn[1])
    a, b = full_band(g, rng), full_band(g, rng)
    ref = ref_product(g, a, b)

    def product_on(m):
        return torus._dealiased_product(a, b, g.n, m)

    assert_close(product_on(3 * g.n // 2 - 2), ref)
    assert np.max(np.abs(product_on(3 * g.n // 2 - 4) - ref)) > 1e-3 * np.max(np.abs(ref))


def test_package_runs_no_complex_fft(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    g = grid(2, 32)
    data = enhance_generic(NoiseSpec("generic_I", seed=1, amplitude=2.0), g, 2.0**-3)
    stack = choose_cutoffs(data, build_partition(g), power_iters=4, restarts=1)
    save_stack(stack, tmp_path / "stack")
    verify_stack(tmp_path / "stack")
    anderson = enhance_anderson2d(g, 2.0**-3, seed=5)
    vals = to_physical(anderson.xi)
    assert_close(to_spectral(vals, g).coeffs, anderson.xi.coeffs)
    assert lp_norm(anderson.xi, 3.0) > 0.0
