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
    """Exact product coefficients via direct convolution of the split-Nyquist
    representation (every coefficient with |k_j| = n/2 carries half weight on
    each of the +-n/2 labels), folded back onto the n-lattice."""
    n, d = g.n, g.d
    freqs = [int(v) for v in np.where(np.arange(n) <= n // 2,
                                      np.arange(n), np.arange(n) - n)]

    def split(c):
        terms = []
        for idx in np.ndindex(*c.shape):
            if c[idx] == 0:
                continue
            k = [freqs[i] for i in idx]
            labels = [[kj] if abs(kj) != n // 2 else [n // 2, -n // 2] for kj in k]
            weight = c[idx] / np.prod([len(l) for l in labels])
            for combo in np.ndindex(*[len(l) for l in labels]):
                terms.append((tuple(labels[a][combo[a]] for a in range(d)), weight))
        return terms

    acc = {}
    for k1, w1 in split(fc):
        for k2, w2 in split(gc):
            k = tuple(a + b for a, b in zip(k1, k2))
            acc[k] = acc.get(k, 0.0) + w1 * w2
    out = np.zeros(g.shape, complex)
    for k, w in acc.items():
        if all(-(n // 2) <= kj <= n // 2 for kj in k):
            out[tuple(kj % n for kj in k)] += w
    return out


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            Grid(2, 12)
        with pytest.raises(ConfigurationError):
            Grid(2, 4)
        with pytest.raises(ConfigurationError):
            Grid(4, 16)
        g = Grid(2, 16)
        assert g.size == 16**2 and g.ksq.shape == (16, 16)

    def test_lattice_layout(self):
        g = Grid(1, 8)
        assert list(g.kaxes[0].ravel()) == [0, 1, 2, 3, 4, -3, -2, -1]


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

    def test_forward_against_dft_oracle(self):
        g = grid(2, 8)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.shape)
        f = to_spectral(u, g)
        expected = dft_oracle(u, g)
        assert np.max(np.abs(f.coeffs - expected)) < 1e-12

    def test_round_trip(self):
        for d in (1, 2, 3):
            g = grid(d, 8)
            rng = np.random.default_rng(d)
            u = rng.standard_normal(g.shape)
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
        assert np.sum(np.abs(f.coeffs) ** 2) == pytest.approx(
            np.mean(u**2), rel=1e-12
        )


class TestMultipliers:
    def test_identity(self):
        g = grid(2, 16)
        f = to_spectral(np.random.default_rng(2).standard_normal(g.shape), g)
        out = fourier_multiplier(f, lambda gr: np.ones(gr.shape))
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
        m = np.ones(g.shape)
        m[3, 5] = np.inf
        with pytest.raises(MultiplierError, match=r"k=\(3, 5\)"):
            fourier_multiplier(f, m)


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
        f = torus.SpectralField(g, c)
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
        f = torus.SpectralField(g, c1)
        h = torus.SpectralField(g, c2)
        prod = pointwise_product(f, h)
        expected = convolution_oracle(g, c1, c2)
        assert np.max(np.abs(prod.coeffs - expected)) < 1e-14

    def test_convolution_oracle_random(self):
        g = grid(2, 8)
        rng = np.random.default_rng(10)
        f = to_spectral(rng.standard_normal(g.shape), g)
        h = to_spectral(rng.standard_normal(g.shape), g)
        prod = pointwise_product(f, h)
        expected = convolution_oracle(g, f.coeffs, h.coeffs)
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
        mask = np.max(np.abs(np.stack([np.broadcast_to(k, g.shape)
                                       for k in g.kaxes])), axis=0) < g.n / 4
        f = torus.field_from_coeffs(
            g, mask * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
        h = torus.field_from_coeffs(
            g, mask * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
        prod = pointwise_product(f, h)
        expected = convolution_oracle(g, f.coeffs, h.coeffs)
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
            assert fh.readline() == b"PCF1 d=2 n=16\n"


def _pcf1_bytes(header: bytes, coeffs: np.ndarray) -> bytes:
    return header + np.ascontiguousarray(coeffs, dtype="<c16").tobytes()


_BODY = np.zeros((16, 16), np.complex128)
_NAN_BODY = _BODY.copy()
_NAN_BODY[3, 5] = np.nan
_UNPAIRED_BODY = _BODY.copy()
_UNPAIRED_BODY[3, 5] = 1.0  # its mirror (13, 11) stays 0
_COMPLEX_MEAN_BODY = _BODY.copy()
_COMPLEX_MEAN_BODY[0, 0] = 1.0 + 0.5j  # k = 0 is its own mirror
MALFORMED_PCF1 = {
    "truncated_body": (_pcf1_bytes(b"PCF1 d=2 n=16\n", _BODY)[:-5], DataError),
    "bad_dimension": (_pcf1_bytes(b"PCF1 d=x n=16\n", _BODY), ConfigurationError),
    "non_ascii_header": (_pcf1_bytes("PCF1 d=2 n=16 \u00e9\n".encode(), _BODY),
                         ConfigurationError),
    "trailing_bytes": (_pcf1_bytes(b"PCF1 d=2 n=16\n", _BODY) + b"\0", DataError),
    "nan_coefficient": (_pcf1_bytes(b"PCF1 d=2 n=16\n", _NAN_BODY), DataError),
    "non_hermitian": (_pcf1_bytes(b"PCF1 d=2 n=16\n", _UNPAIRED_BODY), DataError),
    "complex_mean": (_pcf1_bytes(b"PCF1 d=2 n=16\n", _COMPLEX_MEAN_BODY), DataError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PCF1))
def test_read_pcf1_refuses_malformed_file(tmp_path, case):
    content, error = MALFORMED_PCF1[case]
    path = tmp_path / f"{case}.pcf"
    path.write_bytes(content)
    with pytest.raises(error) as info:
        read_pcf1(path)
    assert str(path) in str(info.value)


_VALID_PCF1 = _pcf1_bytes(b"PCF1 d=2 n=8\n", to_spectral(
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
    mirror = np.roll(np.flip(c), 1, axis=tuple(range(c.ndim)))
    assert np.all(np.isfinite(c))
    assert np.array_equal(c, np.conj(mirror))
