import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratorus import torus
from paratorus.errors import (
    ConfigurationError,
    DataError,
    FieldRangeError,
    MultiplierError,
)
from paratorus.torus import (
    Grid,
    HermitianResidueWarning,
    exp_field,
    fourier_multiplier,
    grad,
    div,
    grid,
    l2_norm,
    pointwise_product,
    project_frequencies,
    read_pcf1,
    sobolev_norm,
    sobolev_scale,
    to_physical,
    to_spectral,
    write_pcf1,
    zero_field,
)

from oracles import to_full, to_half


def dft_oracle(u, g):
    """Brute-force transform: hat(u)(k) = mean_x e^{+2 pi i k.x} u(x)."""
    n, d = g.n, g.d
    freqs = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n)
    out = np.zeros(g.shape, complex)
    coords = np.stack(np.meshgrid(*[np.arange(n) / n] * d, indexing="ij"), axis=-1)
    for idx in np.ndindex(*g.shape):
        k = np.array([freqs[i] for i in idx], dtype=float)
        phase = np.exp(2j * np.pi * (coords @ k))
        out[idx] = np.mean(phase * u)
    return out


def convolution_oracle(g, fc, gc):
    """Exact product coefficients via direct convolution, truncated to the
    kept modes |k_j| <= n/2 - 1."""
    n, d = g.n, g.d
    freqs = [int(v) for v in np.where(np.arange(n) <= n // 2,
                                      np.arange(n), np.arange(n) - n)]

    def terms(c):
        return [(tuple(freqs[i] for i in idx), c[idx])
                for idx in np.ndindex(*c.shape) if c[idx] != 0]

    out = np.zeros(g.shape, complex)
    for k1, w1 in terms(fc):
        for k2, w2 in terms(gc):
            k = tuple(a + b for a, b in zip(k1, k2))
            if all(abs(kj) < n // 2 for kj in k):
                out[tuple(kj % n for kj in k)] += w1 * w2
    return out


def kept(g, shape=None):
    """Mask of the kept modes of the stored coefficients (or of an array of
    `shape`, the full lattice), False on the Nyquist entries k_j = n/2."""
    mask = np.ones(shape or g.half_shape, bool)
    for plane in g.nyquist:
        mask[plane] = False
    return mask


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            Grid(2, 12)
        with pytest.raises(ConfigurationError):
            Grid(2, 4)
        with pytest.raises(ConfigurationError):
            Grid(4, 16)
        g = Grid(2, 16)
        assert g.size == 16**2 and g.shape == (16, 16)
        assert g.half_shape == (16, 9) and g.ksq.shape == (16, 9)

    def test_lattice_layout(self):
        g = Grid(2, 8)
        assert list(g.kaxes[0].ravel()) == [0, 1, 2, 3, 4, -3, -2, -1]
        assert list(g.kaxes[1].ravel()) == [0, 1, 2, 3, 4]


def test_field_times_non_real_scalar_refused():
    # f * 1j has an anti-Hermitian column k_d = 0, the coefficients of no
    # real field
    g = grid(2, 16)
    f = to_spectral(np.cos(2 * np.pi * g.meshgrid()[0]), g)
    for scalar in (1j, 2.0 + 1e-300j, np.complex128(1j)):
        with pytest.raises(ConfigurationError, match="not a real field"):
            f * scalar
        with pytest.raises(ConfigurationError, match="not a real field"):
            scalar * f
    for scalar in (2.0, np.float64(2), 2, 2.0 + 0j):
        assert np.array_equal((f * scalar).coeffs, 2.0 * f.coeffs)
        assert np.array_equal((scalar * f).coeffs, 2.0 * f.coeffs)


class TestTransforms:
    def test_constant(self):
        g = grid(2, 16)
        f = to_spectral(np.ones(g.shape), g)
        assert f.coeffs[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(f.coeffs)) == pytest.approx(1.0)
        assert np.sum(np.abs(f.coeffs) > 1e-15) == 1

    def test_single_cosine_mode(self):
        g = grid(2, 16)
        X = g.meshgrid()[0]
        f = to_spectral(np.cos(2 * np.pi * X), g)
        assert f.coeffs[1, 0] == pytest.approx(0.5)
        assert f.coeffs[-1, 0] == pytest.approx(0.5)
        assert np.sum(np.abs(f.coeffs) > 1e-14) == 2
        # off the column k_d = 0 a stored entry is sqrt 2 times the mode's
        Y = g.meshgrid()[1]
        h = to_spectral(np.cos(2 * np.pi * Y), g)
        assert h.coeffs[0, 1] == pytest.approx(np.sqrt(0.5))
        assert np.sum(np.abs(h.coeffs) > 1e-14) == 1

    def test_forward_against_dft_oracle(self):
        g = grid(2, 8)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.shape)
        f = to_spectral(u, g)
        expected = to_half(dft_oracle(u, g))
        assert np.max(np.abs(f.coeffs - expected)[kept(g)]) < 1e-12
        assert not np.any(f.coeffs[~kept(g)])

    def test_round_trip(self):
        # samples of a field on the kept modes come back exactly; the
        # Nyquist part of arbitrary samples is dropped
        for d in (1, 2, 3):
            g = grid(d, 8)
            rng = np.random.default_rng(d)
            f = to_spectral(rng.standard_normal(g.shape), g)
            assert not np.any(f.coeffs[~kept(g)])
            u = to_physical(f)
            err = np.max(np.abs(to_physical(to_spectral(u, g)) - u))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(u)))

    def test_size_mismatch(self):
        g = grid(2, 16)
        with pytest.raises(ConfigurationError):
            to_spectral(np.ones((8, 8)), g)

    def test_parseval(self):
        g = grid(2, 32)
        u = np.random.default_rng(1).standard_normal(g.shape)
        f = to_spectral(u, g)
        assert not np.any(f.coeffs[~kept(g)])
        energy = np.sum(np.abs(f.coeffs) ** 2)
        assert energy == pytest.approx(np.mean(to_physical(f) ** 2), rel=1e-12)
        dft = np.fft.fftn(u, norm="forward")
        full_energy = np.sum(np.abs(dft[kept(g, g.shape)]) ** 2)
        assert energy == pytest.approx(full_energy, rel=1e-12)
        assert energy == pytest.approx(np.sum(np.abs(to_full(f.coeffs, g)) ** 2),
                                       rel=1e-12)


class TestMultipliers:
    def test_identity(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(2).standard_normal(g.shape), g)
        out = fourier_multiplier(f, lambda gr: np.ones(gr.half_shape))
        assert np.allclose(out.coeffs, f.coeffs, atol=1e-15)

    def test_inverse_pair(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(3).standard_normal(g.shape), g)
        m = 1.0 + 4 * np.pi**2 * g.ksq
        back = fourier_multiplier(fourier_multiplier(f, m), 1.0 / m)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * l2_norm(f)

    def test_commute(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(4).standard_normal(g.shape), g)
        m1 = np.exp(-0.01 * g.ksq)
        m2 = 1.0 + g.ksq
        a = fourier_multiplier(fourier_multiplier(f, m1), m2)
        b = fourier_multiplier(f, m1 * m2)
        scale = np.max(np.abs(b.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15 * scale

    def test_nonfinite_symbol_names_frequency(self):
        g = grid(2, 16)
        f = to_spectral(np.ones(g.shape), g)
        m = np.ones(g.half_shape)
        m[3, 5] = np.inf
        with pytest.raises(MultiplierError, match=r"k=\(3, 5\)"):
            fourier_multiplier(f, m)

    def test_real_valuedness_diagnostic(self):
        # on the column k_d = 0 a symbol must have m(-k') = conj m(k') to
        # map real fields to real fields: a real symbol odd in k_1 breaks
        # that, and its anti-Hermitian part is discarded with a warning
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(14).standard_normal(g.shape), g)
        odd = np.broadcast_to(g.kaxes[0], g.half_shape)
        with pytest.warns(HermitianResidueWarning, match="anti-Hermitian"):
            out = fourier_multiplier(f, odd)
        col = out.coeffs[:, 0]
        assert np.array_equal(col, np.conj(np.roll(np.flip(col), 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fourier_multiplier(f, -4 * np.pi**2 * g.ksq)


class TestSobolev:
    def test_s0_identity_and_inverse_pair(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(5).standard_normal(g.shape), g)
        assert np.allclose(sobolev_scale(f, 0.0).coeffs, f.coeffs)
        back = sobolev_scale(sobolev_scale(f, 2.0), -2.0)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * l2_norm(f)

    def test_h1_norm_of_cosine(self):
        # |cos(2 pi x1)|_{H^1}^2 = (1 + 4 pi^2)/2, cross-checked by quadrature
        g = grid(2, 32)
        X = g.meshgrid()[0]
        u = np.cos(2 * np.pi * X)
        f = to_spectral(u, g)
        hand = np.sqrt((1 + 4 * np.pi**2) / 2)
        assert sobolev_norm(f, 1.0) == pytest.approx(hand, rel=1e-12)
        gx, gy = (to_physical(c) for c in grad(f))
        quad = np.sqrt(np.mean(u**2) + np.mean(gx**2 + gy**2))
        assert sobolev_norm(f, 1.0) == pytest.approx(quad, rel=1e-12)


class TestDerivatives:
    def test_constant_gradient_zero(self):
        g = grid(2, 16)
        f = to_spectral(3.5 * np.ones(g.shape), g)
        assert all(l2_norm(c) == 0.0 for c in grad(f))

    def test_symbolic_oracle(self):
        g = grid(2, 32)
        Y = g.meshgrid()[1]
        f = to_spectral(np.sin(2 * np.pi * Y), g)
        d2 = to_physical(grad(f)[1])
        assert np.max(np.abs(d2 - 2 * np.pi * np.cos(2 * np.pi * Y))) < 1e-12

    def test_laplacian_identity(self):
        # div(grad f) = multiplier -4 pi^2 |k|^2 on band-limited fields
        g = grid(2, 32)
        rng = np.random.default_rng(6)
        f = to_spectral(rng.standard_normal(g.shape), g)
        f = project_frequencies(f, 3, "low")  # keep |k| <= 8 < n/2
        lap = div(grad(f))
        direct = fourier_multiplier(f, -4 * np.pi**2 * g.ksq)
        assert np.max(np.abs(lap.coeffs - direct.coeffs)) < 1e-12

    def test_component_count(self):
        g = grid(2, 16)
        f = to_spectral(np.ones(g.shape), g)
        with pytest.raises(ConfigurationError):
            div([f])


class TestProjectors:
    def test_complementary(self):
        g = grid(2, 32)
        f = to_spectral(np.random.default_rng(7).standard_normal(g.shape), g)
        total = project_frequencies(f, 2, "high") + project_frequencies(f, 2, "low")
        assert np.array_equal(total.coeffs, f.coeffs)

    def test_constant_killed_by_high(self):
        g = grid(2, 16)
        f = to_spectral(np.ones(g.shape), g)
        for L in (0, 1, 3):
            assert l2_norm(project_frequencies(f, L, "high")) == 0.0

    def test_single_mode_indicator(self):
        g = grid(2, 32)
        c = np.zeros(g.shape, complex)
        c[3, 4] = 0.5  # |k| = 5
        c[-3, -4] = 0.5
        f = torus.SpectralField(g, to_half(c))
        assert l2_norm(project_frequencies(f, 2, "high")) > 0  # 5 > 4 kept
        assert l2_norm(project_frequencies(f, 3, "high")) == 0.0  # 5 <= 8 removed

    def test_idempotent(self):
        g = grid(2, 32)
        f = to_spectral(np.random.default_rng(8).standard_normal(g.shape), g)
        p = project_frequencies(f, 2, "high")
        assert np.array_equal(project_frequencies(p, 2, "high").coeffs, p.coeffs)


class TestPointwiseProduct:
    def test_multiply_by_one(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(9).standard_normal(g.shape), g)
        one = torus.constant_field(g, 1.0)
        assert np.array_equal(pointwise_product(f, one).coeffs, f.coeffs)
        c = torus.constant_field(g, -2.75)
        assert np.array_equal(pointwise_product(c, f).coeffs, (-2.75 * f).coeffs)

    def test_two_single_modes(self):
        g = grid(2, 8)
        c1 = np.zeros(g.shape, complex)
        c1[1, 0] = 0.5
        c1[-1, 0] = 0.5
        c2 = np.zeros(g.shape, complex)
        c2[0, 2] = 0.5
        c2[0, -2] = 0.5
        f = torus.SpectralField(g, to_half(c1))
        h = torus.SpectralField(g, to_half(c2))
        prod = pointwise_product(f, h)
        expected = to_half(convolution_oracle(g, c1, c2))
        assert np.max(np.abs(prod.coeffs - expected)) < 1e-14

    def test_convolution_oracle_random(self):
        g = grid(2, 8)
        rng = np.random.default_rng(10)
        f = to_spectral(rng.standard_normal(g.shape), g)
        h = to_spectral(rng.standard_normal(g.shape), g)
        prod = pointwise_product(f, h)
        expected = to_half(convolution_oracle(g, to_full(f.coeffs, g),
                                              to_full(h.coeffs, g)))
        assert np.max(np.abs(prod.coeffs - expected)) < 1e-12

    def test_commutative(self):
        g = grid(2, 32)
        rng = np.random.default_rng(11)
        f = to_spectral(rng.standard_normal(g.shape), g)
        h = to_spectral(rng.standard_normal(g.shape), g)
        a = pointwise_product(f, h)
        b = pointwise_product(h, f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14

    def test_alias_free_for_quarter_band(self):
        # fields band-limited to |k|_inf < n/4 multiply exactly
        g = grid(2, 16)
        rng = np.random.default_rng(12)
        k = np.abs(np.fft.fftfreq(g.n, 1.0 / g.n))
        mask = np.maximum.outer(k, k) < g.n / 4  # on the full lattice
        f = torus.SpectralField(g, torus.hermitian_coeffs(
            g, mask * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))))
        h = torus.SpectralField(g, torus.hermitian_coeffs(
            g, mask * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))))
        prod = pointwise_product(f, h)
        expected = to_half(convolution_oracle(g, to_full(f.coeffs, g),
                                              to_full(h.coeffs, g)))
        assert np.max(np.abs(prod.coeffs - expected)) < 1e-12

    def test_grid_mismatch(self):
        f = to_spectral(np.ones((16, 16)), grid(2, 16))
        h = to_spectral(np.ones((32, 32)), grid(2, 32))
        with pytest.raises(ConfigurationError):
            pointwise_product(f, h)


class TestExpField:
    def test_exp_of_zero(self):
        g = grid(2, 16)
        e = exp_field(zero_field(g))
        assert e.coeffs[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(to_physical(e) - 1.0)) < 1e-14

    def test_reciprocal_identity(self):
        g = grid(2, 32)
        X = g.meshgrid()[0]
        f = to_spectral(0.3 * np.cos(2 * np.pi * X), g)
        prod = to_physical(exp_field(f)) * to_physical(exp_field(-f))
        assert np.max(np.abs(prod - 1.0)) < 1e-10

    def test_pointwise_oracle(self):
        g = grid(2, 32)
        X = g.meshgrid()[0]
        u = 0.1 * np.cos(2 * np.pi * X)
        e = exp_field(to_spectral(u, g))
        assert np.max(np.abs(to_physical(e) - np.exp(u))) < 1e-10

    def test_overflow(self):
        g = grid(2, 16)
        with pytest.raises(FieldRangeError):
            exp_field(torus.constant_field(g, 800.0))


class TestPCF1:
    def test_round_trip(self, tmp_path):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(13).standard_normal(g.shape), g)
        path = tmp_path / "field.pcf"
        write_pcf1(path, f)
        back = read_pcf1(path)
        assert back.grid == g
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_header(self, tmp_path):
        g = grid(2, 16)
        write_pcf1(tmp_path / "f.pcf", zero_field(g))
        with open(tmp_path / "f.pcf", "rb") as fh:
            assert fh.readline() == b"PCF2 d=2 n=16\n"


def _pcf_bytes(header: bytes, coeffs: np.ndarray) -> bytes:
    return header + np.ascontiguousarray(coeffs, dtype="<c16").tobytes()


_BODY = np.zeros((16, 9), np.complex128)  # the stored coefficients of d=2, n=16
_NAN_BODY = _BODY.copy()
_NAN_BODY[3, 5] = np.nan
_UNPAIRED_BODY = _BODY.copy()
_UNPAIRED_BODY[3, 0] = 1.0  # its mirror (13, 0) on the column k_d = 0 stays 0
_COMPLEX_MEAN_BODY = _BODY.copy()
_COMPLEX_MEAN_BODY[0, 0] = 1.0 + 0.5j  # k = 0 is its own mirror
_NYQUIST_BODY = _BODY.copy()
_NYQUIST_BODY[8, 0] = 1.0  # Hermitian, but on the Nyquist row k_1 = n/2
_NYQUIST_COLUMN_BODY = _BODY.copy()
_NYQUIST_COLUMN_BODY[3, 8] = 1.0  # on the Nyquist column k_2 = n/2
_HEADER = b"PCF2 d=2 n=16\n"
MALFORMED_PCF1 = {
    "truncated_body": (_pcf_bytes(_HEADER, _BODY)[:-5], DataError),
    "bad_dimension": (_pcf_bytes(b"PCF2 d=x n=16\n", _BODY), ConfigurationError),
    "non_ascii_header": (_pcf_bytes("PCF2 d=2 n=16 \u00e9\n".encode(), _BODY),
                         ConfigurationError),
    "trailing_bytes": (_pcf_bytes(_HEADER, _BODY) + b"\0", DataError),
    "nan_coefficient": (_pcf_bytes(_HEADER, _NAN_BODY), DataError),
    "non_hermitian": (_pcf_bytes(_HEADER, _UNPAIRED_BODY), DataError),
    "complex_mean": (_pcf_bytes(_HEADER, _COMPLEX_MEAN_BODY), DataError),
    "nyquist_entry": (_pcf_bytes(_HEADER, _NYQUIST_BODY), DataError),
    "nyquist_column": (_pcf_bytes(_HEADER, _NYQUIST_COLUMN_BODY), DataError),
    # a PCF1 file held the full Hermitian array
    "pcf1_header": (_pcf_bytes(b"PCF1 d=2 n=16\n", np.zeros((16, 16))),
                    ConfigurationError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PCF1))
def test_read_pcf1_refuses_malformed_file(tmp_path, case):
    content, error = MALFORMED_PCF1[case]
    path = tmp_path / f"{case}.pcf"
    path.write_bytes(content)
    with pytest.raises(error) as info:
        read_pcf1(path)
    assert str(path) in str(info.value)
    if case == "pcf1_header":
        assert "PCF1" in str(info.value)


_VALID_PCF1 = _pcf_bytes(b"PCF2 d=2 n=8\n", to_spectral(
    np.random.default_rng(3).standard_normal((8, 8)), grid(2, 8)).coeffs)


@settings(max_examples=200, deadline=None)
@given(position=st.integers(0, len(_VALID_PCF1) - 1), mask=st.integers(1, 255))
def test_read_pcf1_with_one_flipped_byte(tmp_path_factory, position, mask):
    raw = bytearray(_VALID_PCF1)
    raw[position] ^= mask
    path = tmp_path_factory.getbasetemp() / "flipped.pcf"
    path.write_bytes(bytes(raw))
    try:
        f = read_pcf1(path)
    except (DataError, ConfigurationError) as err:
        assert str(path) in str(err)
        return
    c = f.coeffs
    col = c[..., 0]
    mirror = np.roll(np.flip(col), 1, axis=tuple(range(col.ndim)))
    assert np.all(np.isfinite(c))
    assert np.array_equal(col, np.conj(mirror))
    assert not np.any(c[~kept(f.grid)])
