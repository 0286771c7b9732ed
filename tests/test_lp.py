import math

import numpy as np
import pytest

from paratorus import torus
from paratorus.errors import ConfigurationError, ResolutionError
from paratorus.lp import (
    BesovIndex,
    besov_norm,
    block,
    build_partition,
    check_bernstein,
    check_embedding,
    chi_profile,
    decompose,
    random_field_with_decay,
    rho_profile,
    transition_profile,
)
from paratorus.torus import grid, l2_norm, sobolev_norm, to_spectral

from oracles import to_half


def profile_oracle(t):
    """Independent evaluation of the stated C-infinity transition."""
    def psi(s):
        return math.exp(-1.0 / s) if s > 0 else 0.0
    a, b = psi(t), psi(1.0 - t)
    return a / (a + b) if a + b > 0 else 0.0


@pytest.fixture(scope="module")
def P64():
    return build_partition(grid(2, 64))


class TestProfiles:
    def test_step_limits(self):
        assert transition_profile(np.array([-1.0]))[0] == 0.0
        assert transition_profile(np.array([2.0]))[0] == 1.0

    def test_against_oracle(self):
        for t in (0.1, 0.3, 0.5, 0.7, 0.94):
            assert transition_profile(np.array([t]))[0] == pytest.approx(
                profile_oracle(t), rel=1e-14
            )

    def test_chi_at_origin(self):
        assert chi_profile(np.array([0.0]))[0] == 1.0

    def test_supports(self):
        r = np.linspace(0, 4, 2001)
        c = chi_profile(r)
        assert np.all(c[r >= 4 / 3] == 0.0)
        assert np.all(c[r <= 0.75] == 1.0)
        rr = rho_profile(r)
        assert np.all(rr[(r < 0.75) | (r > 8 / 3)] == 0.0)


class TestPartition:
    def test_too_small_grid(self):
        with pytest.raises(ResolutionError):
            build_partition(grid(2, 16))

    def test_jmax(self, P64):
        assert P64.j_max == math.floor(math.log2(32)) - 2

    def test_partition_of_unity_residual(self, P64):
        # direct summation oracle over tabulated values
        total = P64.chi + sum(P64.rho)
        resolved = P64.grid.kabs <= 2.0**P64.j_max
        assert np.max(np.abs(total - 1.0)[resolved]) <= 1e-12

    def test_disjointness_two_apart(self, P64):
        for j in range(2, P64.j_max + 1):
            assert np.all(P64.rho[j] * P64.rho[j - 2] == 0.0)
        for j in range(1, P64.j_max + 1):
            assert np.all(P64.chi * P64.rho[j] == 0.0)


class TestDecompose:
    def test_constant(self, P64):
        g = P64.grid
        f = to_spectral(np.full(g.shape, 2.0), g)
        blocks, _ = decompose(f, P64)
        assert np.array_equal(blocks[0].coeffs, f.coeffs)
        for b in blocks[1:]:
            assert l2_norm(b) == 0.0

    def test_sum_of_blocks(self, P64):
        g = P64.grid
        rng = np.random.default_rng(0)
        f = P64.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
        blocks, sums = decompose(f, P64)
        total = sum(b.coeffs for b in blocks)
        assert np.max(np.abs(total - f.coeffs)) <= 1e-12 * l2_norm(f)
        # S_{j_max+1} reproduces band-limited f
        assert np.max(np.abs(sums[-1].coeffs - f.coeffs)) <= 1e-12 * l2_norm(f)

    def test_single_mode_block_membership(self, P64):
        # |k| = 2^j0 can only land in blocks j0-1, j0, j0+1 (support arithmetic)
        g = P64.grid
        j0 = 3
        c = np.zeros(g.shape, complex)
        c[2**j0, 0] = 0.5
        c[-(2**j0), 0] = 0.5
        f = torus.SpectralField(g, to_half(c))
        blocks, _ = decompose(f, P64)
        for j in range(-1, P64.j_max + 1):
            norm = l2_norm(blocks[j + 1])
            if abs(j - j0) > 1:
                assert norm == 0.0
        active = [j for j in range(-1, P64.j_max + 1) if l2_norm(blocks[j + 1]) > 0]
        assert active and set(active) <= {j0 - 1, j0, j0 + 1}

    def test_grid_mismatch(self, P64):
        f = to_spectral(np.ones((32, 32)), grid(2, 32))
        with pytest.raises(ConfigurationError):
            decompose(f, P64)


class TestBesovNorm:
    def test_zero(self, P64):
        assert besov_norm(torus.zero_field(P64.grid), BesovIndex(0.7, 2, 2), P64) == 0.0

    def test_absolute_homogeneity(self, P64):
        g = P64.grid
        f = random_field_with_decay(g, 0.5, np.random.default_rng(1))
        idx = BesovIndex(0.3, 2, 4)
        a = besov_norm(3.0 * f, idx, P64)
        assert a == pytest.approx(3.0 * besov_norm(f, idx, P64), rel=1e-12)

    def test_sobolev_equivalence_window(self, P64):
        # constant factor in [1/4, 4] for small |s| (partition dependent)
        g = P64.grid
        rng = np.random.default_rng(2)
        for s in (-0.25, 0.0, 0.25):
            idx = BesovIndex(s, 2, 2)
            for _ in range(50):
                f = P64.bandlimit(to_spectral(rng.standard_normal(g.shape), g))
                ratio = besov_norm(f, idx, P64) / sobolev_norm(f, s)
                assert 0.25 <= ratio <= 4.0

    def test_single_mode_one_block_oracle(self, P64):
        g = P64.grid
        j0 = 3
        kmag = 2**j0
        c = np.zeros(g.shape, complex)
        c[kmag, 0] = 0.5
        c[-kmag, 0] = 0.5
        f = torus.SpectralField(g, to_half(c))
        idx = BesovIndex(0.8, 2, np.inf)
        # oracle: sup_j 2^{alpha j} * weight_j(|k|) * |mode|_{L^2}
        mode_l2 = np.sqrt(0.5)
        expected = 0.0
        for j in range(-1, P64.j_max + 1):
            w = (chi_profile(np.array([float(kmag)]))[0] if j == -1
                 else rho_profile(np.array([kmag / 2.0**j]))[0])
            expected = max(expected, 2.0 ** (0.8 * j) * w * mode_l2)
        assert besov_norm(f, idx, P64) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_alpha_on_single_modes(self, P64):
        g = P64.grid
        for j0 in (2, 3, 4):
            c = np.zeros(g.shape, complex)
            c[2**j0, 2] = 0.5
            c[-(2**j0), -2] = 0.5
            f = torus.SpectralField(g, to_half(c))
            norms = [
                besov_norm(f, BesovIndex(a, 2, 2), P64)
                for a in (-0.5, 0.0, 0.5, 1.0)
            ]
            assert all(n2 >= n1 - 1e-15 for n1, n2 in zip(norms, norms[1:]))


class TestBernstein:
    def test_single_mode_first_derivative(self):
        # axis-aligned mode |k| = lam: max_mu |d u|_{L^2} / (lam |u|_{L^2}) = 2 pi
        P = build_partition(grid(2, 256))
        g = P.grid
        lam = 8
        c = np.zeros(g.shape, complex)
        c[lam, 0] = 0.5
        c[-lam, 0] = 0.5
        f = torus.SpectralField(g, to_half(c))
        from paratorus.torus import grad
        dmax = max(l2_norm(comp) for comp in grad(f))
        assert dmax / (lam * l2_norm(f)) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_forward_slope_flat(self):
        P = build_partition(grid(2, 256))
        fwd, rev = check_bernstein(P, k=1, p=2, q=2, trials=6, seed=3)
        assert abs(fwd.slope_vs_scale()) <= 0.1
        assert rev.ratio_max < np.inf and rev.ratio_min > 0

    def test_index_precondition(self, P64):
        with pytest.raises(ConfigurationError):
            check_bernstein(P64, k=1, p=4, q=2, trials=1)


class TestEmbedding:
    def test_zero_field_convention(self, P64):
        rep = check_embedding(P64, alpha=0.5, beta=1.5, p=np.inf, r=2,
                              q1=1, q2=2, trials=1, seed=0)
        assert rep.ratio_min >= 0.0

    def test_relation_violated(self, P64):
        with pytest.raises(ConfigurationError):
            check_embedding(P64, alpha=0.5, beta=1.0, p=np.inf, r=2,
                            q1=1, q2=2, trials=1)

    def test_single_mode_closed_form(self, P64):
        # one active block: ratio = 2^{(alpha-beta) j} on a |k|=2^j mode,
        # modulo the L^p/L^r norms of the block pieces
        g = P64.grid
        alpha, beta, p, r = 0.5, 1.5, np.inf, 2.0
        assert abs(beta - (alpha + g.d * (1.0 / r - 0.0))) < 1e-12
        rng = np.random.default_rng(4)
        f = random_field_with_decay(g, beta, rng, kmax=2.0**P64.j_max)
        hi = besov_norm(f, BesovIndex(alpha, p, 2), P64)
        lo = besov_norm(f, BesovIndex(beta, r, 1), P64)
        vals_hi, vals_lo = [], []
        for j in range(-1, P64.j_max + 1):
            b = block(f, P64, j)
            vals_hi.append(2.0 ** (alpha * j) * torus.lp_norm(b, p))
            vals_lo.append(2.0 ** (beta * j) * torus.lp_norm(b, r))
        assert hi == pytest.approx(np.sqrt(np.sum(np.array(vals_hi) ** 2)), rel=1e-12)
        assert lo == pytest.approx(sum(vals_lo), rel=1e-12)
