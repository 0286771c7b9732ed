import numpy as np
import pytest

from paratorus import torus
from paratorus.errors import ConfigurationError
from paratorus.linops import blocks_op
from paratorus.lp import build_partition, random_field_with_decay
from paratorus.paraproducts import (
    bony_decompose,
    check_para_estimates,
    high_side_blocks,
    low_side_blocks,
    resonant_blocks,
)
from paratorus.torus import (
    constant_field,
    div,
    field_from_coeffs,
    grad,
    grid,
    l2_norm,
    pointwise_product,
    to_spectral,
)

from oracles import to_half


@pytest.fixture(scope="module")
def P():
    return build_partition(grid(2, 64))


def bandlimited_pair(P, seed):
    g = P.grid
    rng = np.random.default_rng(seed)
    f = P.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
    h = P.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
    return f, h


class TestBonyDecompose:
    def test_constant_second_factor(self, P):
        f, _ = bandlimited_pair(P, 0)
        c = constant_field(P.grid, 2.0)
        lo, res, hi = bony_decompose(f, c, P)
        assert l2_norm(lo) == 0.0
        total = res + hi
        expected = pointwise_product(f, c)
        assert np.max(np.abs(total.coeffs - expected.coeffs)) < 1e-12

    def test_low_high_pair_lands_in_prec(self, P):
        # |k|=1 sits in blocks {-1,0}, |k|=8 in blocks {2,3}: gap > 1
        g = P.grid
        c1 = np.zeros(g.shape, complex)
        c1[1, 0] = 0.5
        c1[-1, 0] = 0.5
        c2 = np.zeros(g.shape, complex)
        c2[0, 8] = 0.5
        c2[0, -8] = 0.5
        f = torus.SpectralField(g, to_half(c1))
        h = torus.SpectralField(g, to_half(c2))
        lo, res, hi = bony_decompose(f, h, P)
        prod = pointwise_product(f, h)
        assert np.max(np.abs(lo.coeffs - prod.coeffs)) < 1e-14
        assert l2_norm(res) == 0.0 and l2_norm(hi) == 0.0

    def test_reconstruction(self, P):
        worst = 0.0
        for seed in range(20):
            f, h = bandlimited_pair(P, seed)
            lo, res, hi = bony_decompose(f, h, P)
            total = lo.coeffs + res.coeffs + hi.coeffs
            prod = pointwise_product(f, h)
            worst = max(
                worst,
                np.max(np.abs(total - prod.coeffs)) / np.max(np.abs(prod.coeffs)),
            )
        assert worst <= 1e-10

    def test_grid_mismatch(self, P):
        g32 = grid(2, 32)
        f = to_spectral(np.ones(g32.shape), g32)
        h = to_spectral(np.ones(P.grid.shape), P.grid)
        with pytest.raises(ConfigurationError):
            bony_decompose(f, h, P)


def prec(f, h, P):
    return bony_decompose(f, h, P)[0]


class TestParaApply:
    def test_preceq_plus_succ_is_product(self, P):
        f, h = bandlimited_pair(P, 1)
        lo, res, hi = bony_decompose(f, h, P)
        total = (lo + res) + hi
        prod = pointwise_product(f, h)
        rel = np.max(np.abs(total.coeffs - prod.coeffs)) / np.max(np.abs(prod.coeffs))
        assert rel <= 1e-10

    def test_bilinearity(self, P):
        f1, h = bandlimited_pair(P, 2)
        f2, _ = bandlimited_pair(P, 3)
        a, b = 1.7, -0.4
        left = prec(a * f1 + b * f2, h, P)
        right = a * prec(f1, h, P) + b * prec(f2, h, P)
        scale = max(np.max(np.abs(left.coeffs)), 1e-30)
        assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale

    def test_resonant_symmetric(self, P):
        f, h = bandlimited_pair(P, 4)
        a = bony_decompose(f, h, P)[1]
        b = bony_decompose(h, f, P)[1]
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(a.coeffs))

    def test_transpose_symmetry(self, P):
        f, h = bandlimited_pair(P, 5)
        a = prec(f, h, P)
        b = bony_decompose(h, f, P)[2]
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))

    def test_frequency_localization(self):
        # prec output against a single-block second factor stays within two
        # blocks of the factor's active blocks {j-1, j, j+1}
        P = build_partition(grid(2, 128))
        g = P.grid
        rng = np.random.default_rng(6)
        raw = to_spectral(rng.standard_normal(g.shape), g)
        f = field_from_coeffs(g, np.where(g.kabs <= 2.0, raw.coeffs, 0.0))
        j = 4
        h = field_from_coeffs(
            g, P.block_symbol(j) * to_spectral(rng.standard_normal(g.shape), g).coeffs
        )
        lo = prec(f, h, P)
        from paratorus.lp import block
        assert l2_norm(lo) > 0
        for i in range(-1, P.j_max + 1):
            if not (j - 3 <= i <= j + 3):
                assert l2_norm(block(lo, P, i)) <= 1e-12 * l2_norm(lo)

    def test_para_leibniz_div(self, P):
        # div(f prec grad w) computed directly vs via exact per-block Leibniz
        g = P.grid
        rng = np.random.default_rng(8)
        f = P.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
        w = P.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
        gw = grad(w)
        direct = div([prec(f, c, P) for c in gw])
        gf = grad(f)
        leibniz = sum(
            (prec(gf[l], gw[l], P) for l in range(g.d)),
            start=torus.zero_field(g),
        ) + sum(
            (prec(f, grad(gw[l])[l], P) for l in range(g.d)),
            start=torus.zero_field(g),
        )
        scale = max(np.max(np.abs(direct.coeffs)), 1e-30)
        assert np.max(np.abs(direct.coeffs - leibniz.coeffs)) <= 1e-10 * scale


class TestFixedSideEngines:
    @pytest.mark.parametrize("blocks", [low_side_blocks, high_side_blocks,
                                        resonant_blocks])
    def test_adjoint_pairing(self, P, blocks):
        g = P.grid
        rng = np.random.default_rng(11)
        fixed = P.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
        engine = blocks_op(g, blocks(P, fixed.coeffs))
        x = to_spectral(rng.standard_normal(g.shape), g).coeffs
        y = to_spectral(rng.standard_normal(g.shape), g).coeffs
        # the real l^2 product of stored coefficients, the L^2 product
        lhs = np.vdot(y, engine.apply(x)).real
        rhs = np.vdot(engine.adjoint(y), x).real
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestMeasuredEstimates:
    def test_zero_trial_ratio(self, P):
        reps = check_para_estimates(P, a1=0.5, a2=0.5, p1=2, p2=2, q=2,
                                    trials=1, seed=0)
        assert reps["para"].ratio_min >= 0.0

    def test_a1_zero_rejected(self, P):
        with pytest.raises(ConfigurationError):
            check_para_estimates(P, a1=0.0, a2=0.5, p1=2, p2=2, q=2, trials=1)

    def test_inadmissible_integrability(self, P):
        with pytest.raises(ConfigurationError):
            check_para_estimates(P, a1=0.5, a2=0.5, p1=1, p2=1, q=2, trials=1)

    def test_positive_sum_resonant_bounded(self, P):
        reps = check_para_estimates(P, a1=-0.25, a2=0.75, p1=2, p2=2, q=2,
                                    trials=8, seed=1)
        assert reps["resonant"].ratio_max < 50.0
