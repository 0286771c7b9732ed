import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratorus.errors import ConfigurationError, DataError, ResolutionError
from paratorus.lp import BesovIndex, besov_norm, build_partition
from paratorus.noise import (
    EnhancedData,
    NoiseSpec,
    check_noise_resolved,
    enhance_anderson2d,
    enhance_generic,
    heat_mollifier,
    helmholtz_project,
    load_enhanced,
    mollify,
    read_meta,
    sample_white_noise,
    save_enhanced,
    wick_constant,
    zero_data,
)
from paratorus.operators import StudyConfig, _make_data
from paratorus.torus import (
    constant_field,
    div,
    grad,
    grid,
    l2_norm,
    pointwise_product,
    to_spectral,
    zero_field,
)

from oracles import to_full


class TestWhiteNoise:
    def test_determinism(self):
        g = grid(2, 32)
        a = sample_white_noise(g, 42)
        b = sample_white_noise(g, 42)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sample_white_noise(g, 43)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_mean_zero(self):
        g = grid(2, 16)
        assert sample_white_noise(g, 0).coeffs[0, 0] == 0.0

    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError):
            sample_white_noise(grid(1, 16), 0)

    def test_mode_variance_monte_carlo(self):
        # E|hat xi(k)|^2 = 1 per kept mode, within 10% over 1000 seeds; the
        # Nyquist planes k_i = n/2 are zero in every draw
        g = grid(2, 8)
        acc = np.zeros(g.shape)
        n_samples = 1000
        for seed in range(n_samples):
            acc += np.abs(to_full(sample_white_noise(g, seed).coeffs, g)) ** 2
        acc /= n_samples
        acc[0, 0] = 1.0  # mean mode is pinned to zero by convention
        assert not any(np.any(acc[plane]) for plane in g.nyquist)
        for plane in g.nyquist:
            acc[plane] = 1.0
        assert np.max(np.abs(acc - 1.0)) < 0.10


class TestMollifier:
    def test_tiny_eps_is_identityish(self):
        g = grid(2, 16)
        f = sample_white_noise(g, 1)
        out = mollify(f, 1e-9)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-10

    def test_constant_unchanged(self):
        g = grid(2, 16)
        f = constant_field(g, 3.0)
        for eps in (0.01, 0.1, 1.0):
            assert np.array_equal(mollify(f, eps).coeffs, f.coeffs)

    def test_eps_positive(self):
        g = grid(2, 16)
        with pytest.raises(ConfigurationError):
            mollify(constant_field(g, 1.0), 0.0)

    def test_l2_growth_rate(self):
        # |xi_eps|_{L^2} ~ eps^{-d/2}, checked against the lattice-sum oracle;
        # averaged over seeds since few modes survive at coarse eps
        g = grid(2, 256)
        eps_list = [2.0**-j for j in (4, 5, 6, 7)]
        norms, oracle = [], []
        for eps in eps_list:
            sq = 0.0
            for seed in range(20):
                sq += l2_norm(mollify(sample_white_noise(g, seed), eps)) ** 2
            norms.append(np.sqrt(sq / 20.0))
            m2 = heat_mollifier(eps, g.ksq) ** 2
            m2[0, 0] = 0.0
            oracle.append(np.sqrt(np.sum(m2)))
        for i in range(len(norms) - 1):
            measured = norms[i + 1] / norms[i]
            assert abs(measured / (oracle[i + 1] / oracle[i]) - 1) < 0.15
            assert abs(measured / 2.0 ** (g.d / 2.0) - 1) < 0.15


class TestWickConstant:
    def test_fully_smoothed(self):
        g = grid(2, 32)
        assert wick_constant(g, 2.0) < 1e-8

    def test_resolution_error(self):
        g = grid(2, 64)
        with pytest.raises(ResolutionError):
            wick_constant(g, 2.0**-6)

    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError):
            wick_constant(grid(3, 16), 0.1)

    def test_log_increments_stable(self):
        # increments approach log(2)/(2 pi); stable within 5% in the
        # asymptotic window (see ledger for the early-eps behavior)
        g = grid(2, 512)
        cs = [wick_constant(g, 2.0**-j) for j in (4, 5, 6, 7, 8)]
        inc = np.diff(cs)
        assert np.all(inc > 0)
        tail = inc[1:]
        assert max(tail) / min(tail) < 1.05

    def test_monte_carlo_oracle(self):
        # grid mean of the dealiased |grad W|^2 over 200 seeds within 5%
        g = grid(2, 64)
        eps = 2.0**-3
        c = wick_constant(g, eps)
        total = 0.0
        for seed in range(200):
            xi = mollify(sample_white_noise(g, seed), eps)
            W = xi.with_coeffs(xi.coeffs / (1.0 + 4.0 * np.pi**2 * g.ksq))
            mean_gradsq = 0.0
            for comp in grad(W):
                mean_gradsq += float(
                    pointwise_product(comp, comp).coeffs[0, 0].real
                )
            total += mean_gradsq
        assert abs(total / 200.0 - c) / c < 0.05


class TestHelmholtz:
    def test_gradient_annihilated(self):
        g = grid(2, 32)
        f = sample_white_noise(g, 2)
        proj = helmholtz_project(grad(f))
        for comp in proj:
            assert l2_norm(comp) < 1e-12

    def test_idempotent_on_divfree(self):
        g = grid(2, 32)
        rng = np.random.default_rng(3)
        v = [to_spectral(rng.standard_normal(g.shape), g) for _ in range(2)]
        once = helmholtz_project(v)
        twice = helmholtz_project(once)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_divergence_free(self):
        g = grid(2, 32)
        rng = np.random.default_rng(4)
        v = [to_spectral(rng.standard_normal(g.shape), g) for _ in range(2)]
        assert l2_norm(div(helmholtz_project(v))) < 1e-12


class TestAnderson2d:
    def test_kpz_identity_exact(self):
        data = enhance_anderson2d(grid(2, 64), 2.0**-3, seed=7)
        assert data.kpz_residual() <= 1e-9

    def test_seed_determinism(self):
        a = enhance_anderson2d(grid(2, 32), 2.0**-3, seed=9)
        b = enhance_anderson2d(grid(2, 32), 2.0**-3, seed=9)
        assert np.array_equal(a.W.coeffs, b.W.coeffs)
        assert a.c_eps == b.c_eps

    def test_amplitude_scales_exactly(self):
        # xi and W scale by a, Z and c by a^2; a = 4 is a power of two, so
        # each scaling is exact, and a = 1 gives the plain tuple bit for bit,
        # through enhance_generic and a study's data alike
        g = grid(2, 32)
        eps = 2.0**-3

        def parts(data):
            return data.xi.coeffs, data.W.coeffs, data.Z.coeffs, data.c_eps

        plain = parts(enhance_anderson2d(g, eps, seed=1))
        one = parts(enhance_generic(NoiseSpec("anderson2d", seed=1), g, eps))
        assert all(np.array_equal(a, b) for a, b in zip(one, plain))
        spec = NoiseSpec("anderson2d", seed=1, amplitude=4.0)
        four = enhance_generic(spec, g, eps)
        for got, ref, factor in zip(parts(four), plain, (4.0, 4.0, 16.0, 16.0)):
            assert np.array_equal(got, factor * ref)
        assert four.kpz_residual() <= 1e-9
        cfg = StudyConfig(n=32, eps_list=(2.0**-2, eps), seed=1, noise=spec)
        study = parts(_make_data(cfg, eps))
        assert all(np.array_equal(a, b) for a, b in zip(study, parts(four)))

    def test_renormalized_proxy_stabilizes(self):
        # successive-halving growth ratios of the negative-regularity proxy
        # norm of Z decrease and drop below 2 by the late halvings, while
        # the raw |grad W|^2 keeps growing with the mean pinned at c
        g = grid(2, 128)
        P = build_partition(g)
        idx = BesovIndex(-0.1, np.inf, np.inf)
        proxy, raw_means, wick_values = [], [], []
        for j in (3, 4, 5, 6):
            data = enhance_anderson2d(g, 2.0**-j, seed=11)
            proxy.append(besov_norm(data.Z, idx, P))
            raw = constant_field(g, data.c_eps) - data.Z  # = |grad W|^2
            raw_means.append(float(raw.coeffs[0, 0].real))
            wick_values.append(data.c_eps)
        ratios = [b / a for a, b in zip(proxy, proxy[1:])]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] < 2.0
        assert all(m > 0 for m in raw_means)
        assert raw_means[-1] / raw_means[0] > 2.0  # un-renormalized mean diverges

    def test_wick_square_mean_centered(self):
        # the mean of Z fluctuates around 0 (dominated by a few low modes,
        # so average over seeds); the raw mean sits at c instead
        g = grid(2, 64)
        eps = 2.0**-4
        zmeans = []
        for seed in range(50):
            data = enhance_anderson2d(g, eps, seed=seed)
            zmeans.append(float(data.Z.coeffs[0, 0].real))
        c = wick_constant(g, eps)
        assert abs(np.mean(zmeans)) < 0.2 * c


class TestGeneric:
    def test_smooth_manufactured_zero_amplitude(self):
        g = grid(2, 32)
        spec = NoiseSpec("smooth_manufactured", seed=0, amplitude=0.0)
        data = enhance_generic(spec, g, 2.0**-3)
        for f in (data.W, data.Z, data.xi, data.V):
            assert l2_norm(f) == 0.0
        assert data.c_eps == 0.0

    def test_generic_I_residual(self):
        g = grid(2, 64)
        spec = NoiseSpec("generic_I", seed=1, amplitude=1.0,
                         delta=0.6, delta_prime=0.3, p=8, r=8, q=32)
        data = enhance_generic(spec, g, 2.0**-3)
        assert data.kpz_residual() <= 1e-8

    def test_generic_I_invalid_indices(self):
        spec = NoiseSpec("generic_I", delta=0.6, delta_prime=0.3, p=8, r=8, q=16)
        with pytest.raises(ConfigurationError, match="1/q"):
            enhance_generic(spec, grid(2, 64), 2.0**-3)

    def test_divergence_free_rho(self):
        g = grid(2, 64)
        spec = NoiseSpec("generic_I", seed=2)
        data = enhance_generic(spec, g, 2.0**-3)
        assert l2_norm(div(list(data.rho))) <= 1e-10
        assert not data.is_symmetric()

    def test_generic_II(self):
        g = grid(2, 64)
        spec = NoiseSpec("generic_II", seed=3, amplitude=0.5,
                         delta=0.5, delta_prime=0.25, delta_dprime=0.1)
        data = enhance_generic(spec, g, 2.0**-3)
        assert data.kpz_residual() <= 1e-8
        assert data.lam >= 1.0


class TestValidation:
    def test_tampered_divergence_caught(self):
        g = grid(2, 32)
        data = enhance_anderson2d(g, 2.0**-3, seed=1)
        rng = np.random.default_rng(0)
        bad = [to_spectral(rng.standard_normal(g.shape), g) for _ in range(2)]
        from dataclasses import replace
        with pytest.raises(DataError):
            replace(data, rho=tuple(bad)).validate()

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            check_noise_resolved(grid(2, 32), 2.0**-6)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = grid(2, 32)
        data = enhance_anderson2d(g, 2.0**-3, seed=21)
        save_enhanced(data, tmp_path / "tuple")
        back = load_enhanced(tmp_path / "tuple")
        assert back.eps == data.eps
        assert back.c_eps == data.c_eps
        assert back.kind == data.kind
        assert np.array_equal(back.W.coeffs, data.W.coeffs)
        back.validate()

    def test_missing_meta_key_named(self, tmp_path):
        save_enhanced(zero_data(grid(2, 32)), tmp_path / "tuple")
        meta = tmp_path / "tuple" / "meta"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if not line.startswith("lam=")))
        with pytest.raises(ConfigurationError, match="'lam'"):
            load_enhanced(tmp_path / "tuple")

    def test_zero_data_tuple(self):
        data = zero_data(grid(2, 32))
        data.validate()
        assert data.c_eps == 0.0 and l2_norm(data.W) == 0.0


def _written_meta() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        save_enhanced(zero_data(grid(2, 8)), Path(d) / "tuple")
        return (Path(d) / "tuple" / "meta").read_bytes()


_VALID_META = _written_meta()


@settings(max_examples=200, deadline=None)
@given(position=st.integers(0, len(_VALID_META) - 1), mask=st.integers(1, 255))
def test_read_meta_with_one_flipped_byte(tmp_path_factory, position, mask):
    raw = bytearray(_VALID_META)
    raw[position] ^= mask
    path = tmp_path_factory.getbasetemp() / "flipped_meta"
    path.write_bytes(bytes(raw))
    try:
        meta = read_meta(path)
    except ConfigurationError as err:
        assert str(path) in str(err)
        return
    for key in ("eps", "seed", "kind", "n"):
        try:
            meta.parsed(key, str if key == "kind" else float)
        except ConfigurationError as err:
            assert str(path) in str(err)
