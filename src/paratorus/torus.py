"""Discretized periodic torus with spectral calculus.

Fields on T^d = (R/Z)^d are Fourier series on the integer lattice
k in {-n/2+1, ..., n/2}^d, in FFT layout (0, 1, ..., n/2, -n/2+1, ..., -1
per axis), with hat(u)(k) the grid mean of e^{+2 pi i k.x} u(x) and
u(x) = sum over k of e^{-2 pi i k.x} hat(u)(k): a constant maps to the
k=0 coefficient unchanged, and d/dx_j is the symbol -2 pi i k_j.

A real field has hat(u)(-k) = conj hat(u)(k), so it is stored as the half
lattice k_d = 0..n/2 (`Grid.half_shape`, the layout of numpy's real FFTs),
each entry off the column k_d = 0 scaled by sqrt 2, since it stands for
its mirror -k too.  Then the real l^2 product of coefficient arrays is the
grid-mean L^2 product of the fields, and `l2_norm` the l^2 norm of the
array.  Fourier symbols live on the half lattice (`Grid.kaxes`, `ksq`,
`kabs`, `deriv_symbols`) and commute with the scaling.  Only this module
knows the layout; `make_real`, which `field_from_coeffs` calls, enforces
its one invariant: zero Nyquist entries (rows k_i = n/2, column
k_d = n/2) and an exactly Hermitian column k_d = 0, c[k', 0] =
conj c[-k', 0].  So the kept modes are |k_i| <= n/2 - 1, moving between
lattices copies the modes both keep (the two moves are each other's
adjoints), and a dealiased product, truncated to the kept modes, is
symmetric.

Every transform is a real FFT.  `reflected_values`/`reflected_spectrum`
hold its normalization, its sign and the sqrt 2, scaling only the column
k_d = 0: they give sqrt 2 times a field's values at -x, which against a
factor at its true values (`true_values`, scaled on the smaller lattice)
makes a dealiased product with no pass over an array beyond the FFTs.
Quadratic products run on `product_size(n)`, the smallest alias-free grid
(Orszag's 3/2 rule, rounded up to a fast FFT size), and `exp_field`, not
band-limited, on 2n.  The package does not call `split_lattice` and
`fold_lattice`, which act on full lattices; the benchmark tracer binds
them by name.

All operations are pure functions of immutable values and are safe to
call concurrently; nothing here caches FFT state.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DataError, FieldRangeError, MultiplierError

HERMITIAN_RESIDUE_TOL = 1e-13
EXP_OVERFLOW_LIMIT = 700.0
_SQRT2 = np.sqrt(2.0)


class HermitianResidueWarning(UserWarning):
    """An operation produced a larger-than-roundoff anti-Hermitian part."""


def _lattice_freqs(n: int) -> np.ndarray:
    """Integer frequencies in FFT layout with the Nyquist entry at +n/2."""
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n).astype(np.float64)


class Grid:
    """A d-dimensional n^d grid on the unit torus (n a power of two, >= 8).

    `shape` is that of the physical samples, `half_shape` that of the
    stored coefficients, on which the frequency tables live.  The Sobolev
    symbols are kept per s, read-only, once computed."""

    def __init__(self, d: int, n: int):
        if d not in (1, 2, 3):
            raise ConfigurationError(f"dimension must be 1, 2 or 3, got {d}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigurationError(f"n must be a power of two >= 8, got {n}")
        self.d = d
        self.n = n
        self.shape = (n,) * d
        self.half_shape = (n,) * (d - 1) + (n // 2 + 1,)
        self.size = n**d
        freqs = _lattice_freqs(n)
        per_axis = [freqs] * (d - 1) + [freqs[: n // 2 + 1]]
        # broadcastable per-axis frequency arrays
        self.kaxes = [
            k.reshape([-1 if a == ax else 1 for a in range(d)])
            for ax, k in enumerate(per_axis)
        ]
        self.ksq = sum(ka**2 for ka in self.kaxes)
        self.kabs = np.sqrt(self.ksq)
        # k' -> -k' on the column k_d = 0
        rev = (-np.arange(n)) % n
        self._mirror0 = np.ix_(*([rev] * (d - 1)))
        # index of the Nyquist entries k_i = n/2, one per axis
        self.nyquist = tuple((slice(None),) * ax + (n // 2,) for ax in range(d))
        self.deriv_symbols = [(-2j * np.pi) * ka for ka in self.kaxes]
        self._sobolev_symbols = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and (self.d, self.n) == (other.d, other.n)

    def __hash__(self) -> int:
        return hash((self.d, self.n))

    def __repr__(self) -> str:
        return f"Grid(d={self.d}, n={self.n})"

    def axes(self) -> list[np.ndarray]:
        """Physical coordinates per axis, x_j = j/n."""
        x = np.arange(self.n) / self.n
        return [x] * self.d

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def sobolev_symbol(self, s: float) -> np.ndarray:
        """(1 + 4 pi^2 |k|^2)^{s/2}, computed once per s and read-only."""
        sym = self._sobolev_symbols.get(s)
        if sym is None:
            sym = (1.0 + 4.0 * np.pi**2 * self.ksq) ** (s / 2.0)
            sym.flags.writeable = False
            self._sobolev_symbols[s] = sym
        return sym


@lru_cache(maxsize=32)
def grid(d: int, n: int) -> Grid:
    """Shared Grid instances (immutable, safe to cache)."""
    return Grid(d, n)


@dataclass(frozen=True)
class SpectralField:
    """A real-valued function on the torus held as its stored coefficients."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.half_shape:
            raise ConfigurationError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"the grid's coefficient shape {self.grid.half_shape}"
            )
        self.coeffs.flags.writeable = False

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, np.ascontiguousarray(coeffs, np.complex128))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return self.with_coeffs(-self.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        if np.imag(scalar) != 0:
            raise ConfigurationError(f"a real field times {scalar} is not a real field")
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ConfigurationError(f"grid mismatch: {f.grid} vs {g.grid}")


def make_real(g: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Project `coeffs`, in place, onto the coefficients of a real field:
    zero the Nyquist entries and replace the column k_d = 0 by its
    Hermitian part, an n^(d-1) operation.  Returns `coeffs`."""
    for plane in g.nyquist:
        coeffs[plane] = 0.0
    col = coeffs[..., 0]
    col[...] = 0.5 * (col + np.conj(col[g._mirror0]))
    return coeffs


def field_from_coeffs(g: Grid, coeffs: np.ndarray) -> SpectralField:
    """Wrap a copy of raw coefficients, projected by make_real."""
    return SpectralField(g, make_real(g, np.array(coeffs, np.complex128)))


def zero_field(g: Grid) -> SpectralField:
    return SpectralField(g, np.zeros(g.half_shape, np.complex128))


def constant_field(g: Grid, value: float) -> SpectralField:
    c = np.zeros(g.half_shape, np.complex128)
    c[(0,) * g.d] = value
    return SpectralField(g, c)


@lru_cache(maxsize=None)
def _column_weights(n: int, power: int) -> np.ndarray:
    """sqrt(2)^power on the columns k_d > 0 of the n-lattice, 1 on k_d = 0:
    power 1 takes a real FFT's half spectrum to stored coefficients."""
    w = np.full(n // 2 + 1, _SQRT2 if power > 0 else 1.0 / _SQRT2)
    w[0] = 1.0
    w.flags.writeable = False
    return w


def hermitian_coeffs(g: Grid, z: np.ndarray) -> np.ndarray:
    """The stored coefficients of the real field whose full-lattice Fourier
    coefficients are the Hermitian part (z(k) + conj z(-k)) / 2 of z, an
    array of shape g.shape: how a draw on the full lattice becomes a field."""
    n = g.n
    rev = (-np.arange(n)) % n
    mirror = z[np.ix_(*([rev] * (g.d - 1) + [rev[: n // 2 + 1]]))]
    c = 0.5 * (z[..., : n // 2 + 1] + np.conj(mirror))
    c *= _column_weights(n, 1)
    return make_real(g, c)


def gaussian_coeffs(g: Grid, rng: np.random.Generator) -> np.ndarray:
    """hermitian_coeffs of standard complex Gaussians on the full lattice,
    drawn from `rng` as two real arrays of shape g.shape."""
    return hermitian_coeffs(g, (rng.standard_normal(g.shape)
                                + 1j * rng.standard_normal(g.shape)) / np.sqrt(2))


def to_spectral(u: np.ndarray, g: Grid) -> SpectralField:
    """Forward transform of the samples' real part (the integral as a grid
    mean), its Nyquist entries dropped."""
    u = np.asarray(u, np.float64)
    if u.shape != g.shape:
        raise ConfigurationError(
            f"sample array shape {u.shape} does not match grid shape {g.shape}"
        )
    half = np.conj(np.fft.rfftn(u, norm="forward"))
    return field_from_coeffs(g, half * _column_weights(g.n, 1))


def to_physical(f: SpectralField) -> np.ndarray:
    """Evaluate the field on the grid points (real array)."""
    return _irfft(np.conj(f.coeffs) * _column_weights(f.grid.n, -1), f.grid.n)


def fourier_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply a Fourier symbol on the half lattice; `m` is a callable of the
    grid or an array.  It maps real fields to real fields if its column
    k_d = 0 is Hermitian, m(k', 0) = conj m(-k', 0); an anti-Hermitian part
    there above HERMITIAN_RESIDUE_TOL relative warns, and is discarded."""
    g = f.grid
    sym = m(g) if callable(m) else np.asarray(m)
    sym = np.broadcast_to(sym, g.half_shape)
    if not np.all(np.isfinite(sym)):
        bad = np.argwhere(~np.isfinite(sym))[0]
        k = tuple(int(g.kaxes[a].ravel()[bad[a]]) for a in range(g.d))
        raise MultiplierError(f"multiplier is not finite at k={k}")
    col = sym[..., 0]
    residue = 0.5 * np.max(np.abs(col - np.conj(col[g._mirror0])))
    if residue > HERMITIAN_RESIDUE_TOL * np.max(np.abs(col)):
        warnings.warn(
            f"discarded anti-Hermitian residue {residue / np.max(np.abs(col)):.3e} "
            f"(relative) of the symbol on k_d = 0 exceeds {HERMITIAN_RESIDUE_TOL:.0e}",
            HermitianResidueWarning, stacklevel=2)
    return field_from_coeffs(g, sym * f.coeffs)


def sobolev_scale(f: SpectralField, s: float) -> SpectralField:
    """Multiplier (1 + 4 pi^2 |k|^2)^{s/2}."""
    return field_from_coeffs(f.grid, f.grid.sobolev_symbol(s) * f.coeffs)


def l2_norm(f: SpectralField) -> float:
    """Grid-mean L^2 norm (Parseval: the l^2 norm of the coefficients)."""
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    return l2_norm(sobolev_scale(f, s))


def lp_norm(f: SpectralField, p: float) -> float:
    """Grid-mean L^p norm of the physical values; p = inf takes the max."""
    vals = to_physical(f)
    if np.isinf(p):
        return float(np.max(np.abs(vals)))
    if p == 2.0:
        return float(np.sqrt(np.mean(vals**2)))
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


def grad(f: SpectralField) -> list[SpectralField]:
    """Gradient components via the symbols -2 pi i k_j."""
    return [
        field_from_coeffs(f.grid, s * f.coeffs) for s in f.grid.deriv_symbols
    ]


def div(v: list[SpectralField]) -> SpectralField:
    """Divergence of a d-component vector field on one grid."""
    g = v[0].grid
    if len(v) != g.d:
        raise ConfigurationError(
            f"vector field has {len(v)} components, expected {g.d}"
        )
    for comp in v[1:]:
        _check_same_grid(v[0], comp)
    acc = np.zeros(g.half_shape, np.complex128)
    for s, comp in zip(g.deriv_symbols, v):
        acc += s * comp.coeffs
    return field_from_coeffs(g, acc)


def laplacian(f: SpectralField) -> SpectralField:
    return field_from_coeffs(f.grid, -4.0 * np.pi**2 * f.grid.ksq * f.coeffs)


def project_frequencies(f: SpectralField, L: int, side: str) -> SpectralField:
    """Sharp projector onto Euclidean |k| > 2^L (high) or |k| <= 2^L (low)."""
    if L < 0:
        raise ConfigurationError(f"cutoff exponent must be >= 0, got {L}")
    high = f.grid.kabs > float(2**L)
    if side == "high":
        mask = high
    elif side == "low":
        mask = ~high
    else:
        raise ConfigurationError(f"side must be 'high' or 'low', got {side!r}")
    return field_from_coeffs(f.grid, np.where(mask, f.coeffs, 0.0))


# ---------------------------------------------------------------------------
# moving between lattices: copy the modes both lattices keep,
# |k_i| <= min(n_src, n_dst)/2 - 1, and zero the rest.  The sqrt 2 of a
# column k_d > 0 is the same on every lattice, so the moves act on stored
# coefficients and on real-FFT half spectra alike.

@lru_cache(maxsize=64)
def _common_modes(n_small: int, n_big: int, d: int, full: bool = False) -> tuple:
    """(small, big) index pairs of the blocks of modes the n_small and the
    n_big lattice both keep: per axis 0..h-1 <-> 0..h-1 and
    h+1..n_small-1 <-> n_big-h+1..n_big-1 (h = n_small/2), but only
    0..h-1 on the last axis of a half lattice (full False)."""
    h = n_small // 2
    per_axis = ((slice(0, h), slice(0, h)),
                (slice(h + 1, n_small), slice(n_big - h + 1, n_big)))
    axes = [per_axis] * d if full else [per_axis] * (d - 1) + [per_axis[:1]]
    return tuple((tuple(s for s, _ in combo), tuple(b for _, b in combo))
                 for combo in itertools.product(*axes))


def split_lattice(coeffs: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """A full n_src-lattice array's kept modes on the n_dst-lattice."""
    if n_dst < n_src:
        raise ConfigurationError("split requires n_dst >= n_src")
    out = np.zeros((n_dst,) * coeffs.ndim, coeffs.dtype)
    for small, big in _common_modes(n_src, n_dst, coeffs.ndim, True):
        out[big] = coeffs[small]
    return out


def fold_lattice(coeffs: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """The modes of a full n_src-lattice array the n_dst-lattice keeps."""
    if n_dst > n_src:
        raise ConfigurationError("fold requires n_dst <= n_src")
    out = np.zeros((n_dst,) * coeffs.ndim, coeffs.dtype)
    for small, big in _common_modes(n_dst, n_src, coeffs.ndim, True):
        out[small] = coeffs[big]
    return out


def fold_half(arr: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """The modes of the n_src-lattice half array `arr` that the smaller
    n_dst-lattice keeps, as a new n_dst-lattice half array."""
    out = np.zeros((n_dst,) * (arr.ndim - 1) + (n_dst // 2 + 1,), arr.dtype)
    for small, big in _common_modes(n_dst, n_src, arr.ndim):
        out[small] = arr[big]
    return out


def resample_half(arr: np.ndarray, n_src: int, n_dst: int,
                  sym: tuple = (),
                  out: np.ndarray | None = None) -> np.ndarray:
    """The modes of the n_src-lattice half array `arr` that both lattices
    keep, as an n_dst-lattice half array; a new array, unless `out` is
    given.

    The factors in `sym`, half arrays on the smaller of the two lattices
    (or broadcastable to one), multiply there one at a time: after a fold,
    before a split.  With `out` given, the result is added into it and
    `out` is returned."""
    if n_dst <= n_src:
        res = fold_half(arr, n_src, n_dst)
        for s in sym:
            res = s * res
        if out is None:
            return res
        out += res
        return out
    for s in sym:
        arr = s * arr
    if out is None:
        out = np.zeros((n_dst,) * (arr.ndim - 1) + (n_dst // 2 + 1,), np.complex128)
    for small, big in _common_modes(n_src, n_dst, arr.ndim):
        out[big] += arr[small]
    return out


def _irfft(half: np.ndarray, m: int) -> np.ndarray:
    return np.fft.irfftn(half, s=(m,) * half.ndim, axes=tuple(range(half.ndim)),
                         norm="forward")


def reflected_values(half: np.ndarray, m: int) -> np.ndarray:
    """sqrt 2 times the values on the m-grid, listed at -x (index -j mod m),
    of the real field whose m-lattice coefficients are `half`.

    Column k_d = 0 of `half`, a copy the caller owns, is scaled by sqrt 2
    in place: that makes every column sqrt 2 times the real FFT's half
    spectrum, and touches no other entry."""
    half[..., 0] *= _SQRT2
    return _irfft(half, m)


def reflected_spectrum(vals: np.ndarray) -> np.ndarray:
    """The coefficients of the real field whose values at -x are
    vals / sqrt 2, the inverse of reflected_values: the real FFT's half
    spectrum with its column k_d = 0 divided by sqrt 2."""
    out = np.fft.rfftn(vals, norm="forward")
    out[..., 0] /= _SQRT2
    return out


def true_values(coeffs: np.ndarray, n: int, m: int, sym: tuple = ()) -> np.ndarray:
    """The values on the m-grid, listed at -x, of the field with n-lattice
    coefficients `coeffs` filtered by the factors `sym` (as in
    resample_half); the sqrt 2 is undone on the smaller lattice."""
    unscale = _column_weights(min(n, m), -1)
    return _irfft(resample_half(coeffs, n, m, sym + (unscale,)), m)


@lru_cache(maxsize=None)
def product_size(n: int) -> int:
    """The grid of the dealiased product of two n-lattice fields: the
    smallest even 5-smooth m >= 3n/2 - 2.

    The product has frequencies in [-(n-2), n-2] per axis, and on the
    m-grid the frequency k + m or k - m lands on k; no kept
    |k| <= n/2 - 1 is hit once m > 3n/2 - 3.  So m is 3n/2 - 2, rounded
    up to a product of 2, 3 and 5 because the real FFTs are fast there
    (on 2 * 97 = 194 points a 2d round trip takes about four times as
    long as on 200)."""
    m = 3 * n // 2 - 2
    m += m % 2
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def constant_value(coeffs: np.ndarray) -> float | None:
    """The value of a constant field (every coefficient but k=0 is zero),
    else None.  A real field's value is the real part of its k=0 entry."""
    flat = coeffs.reshape(-1)
    if np.any(flat[1:]):
        return None
    return float(flat[0].real)


def _dealiased_product(a: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """The product of the fields with n-lattice coefficients a and b,
    evaluated on the m-grid (a at sqrt 2 times its values) and truncated."""
    prod = reflected_values(resample_half(a, n, m), m) * true_values(b, n, m)
    return fold_half(reflected_spectrum(prod), m, n)


def pointwise_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased product: evaluated on the zero-padded product grid
    (`product_size`), where it is exact, and truncated back.  A constant
    factor multiplies the other exactly, without transforms."""
    _check_same_grid(f, g)
    for const, other in ((f, g), (g, f)):
        c = constant_value(const.coeffs)
        if c is not None:
            return field_from_coeffs(f.grid, c * other.coeffs)
    n = f.grid.n
    return field_from_coeffs(f.grid, _dealiased_product(
        f.coeffs, g.coeffs, n, product_size(n)))


def exp_field(f: SpectralField) -> SpectralField:
    """Pointwise exponential on the 2x-padded grid, truncated to band limit.
    The exponential is not band-limited, so no grid makes it exact; the
    doubled grid is the one its results are defined on."""
    n = f.grid.n
    vals = true_values(f.coeffs, n, 2 * n)
    peak = float(np.max(vals))
    if peak > EXP_OVERFLOW_LIMIT:
        raise FieldRangeError(f"exponential overflow: max field value {peak:.3g} "
                              f"exceeds {EXP_OVERFLOW_LIMIT:g}")
    spectrum = np.fft.rfftn(np.exp(vals), norm="forward")
    return field_from_coeffs(f.grid, resample_half(
        spectrum, 2 * n, n, (_column_weights(n, 1),)))


# ---------------------------------------------------------------------------
# the field file: format PCF2 (the functions keep the name of PCF1, the
# format that held the full Hermitian array)

def write_pcf1(path, f: SpectralField) -> None:
    """ASCII header `PCF2 d=<d> n=<n>`, then the stored coefficients
    (shape Grid.half_shape) as complex128 little-endian."""
    with open(path, "wb") as fh:
        fh.write(f"PCF2 d={f.grid.d} n={f.grid.n}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def read_pcf1(path) -> SpectralField:
    """Read a field written by write_pcf1.  A malformed or PCF1 header
    raises ConfigurationError; a body of the wrong length, non-finite, or
    breaking make_real's invariant (which every field the package writes
    meets exactly) raises DataError.  Both name the file."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            tag, d, n = header.decode("ascii").split()
            if tag not in ("PCF1", "PCF2") or d[:2] != "d=" or n[:2] != "n=":
                raise ValueError
            g = grid(int(d[2:]), int(n[2:]))
        except (ValueError, ConfigurationError):  # UnicodeDecodeError included
            raise ConfigurationError(
                f"{path}: not a PCF2 header: {header[:80]!r}") from None
        if tag == "PCF1":
            raise ConfigurationError(f"{path}: a PCF1 file, the full-array format "
                                     f"this version no longer reads: write it again")
        size = 16 * int(np.prod(g.half_shape))
        data = fh.read(size + 1)
    if len(data) < size:
        raise DataError(f"{path}: truncated body, {len(data)} of {size} bytes for {g}")
    if len(data) > size:
        raise DataError(f"{path}: trailing bytes after the {size}-byte body for {g}")
    coeffs = np.frombuffer(data, dtype="<c16").reshape(g.half_shape)
    if not np.all(np.isfinite(coeffs)):
        raise DataError(f"{path}: non-finite coefficients")
    col = coeffs[..., 0]
    if not np.array_equal(col, np.conj(col[g._mirror0])):
        raise DataError(f"{path}: the column k_d = 0 is not Hermitian, so the "
                        f"coefficients are not those of a real field")
    if any(np.any(coeffs[plane]) for plane in g.nyquist):
        raise DataError(f"{path}: non-zero coefficients on a Nyquist entry "
                        f"k_i = n/2, which no field keeps")
    return SpectralField(g, np.ascontiguousarray(coeffs.astype(np.complex128)))
