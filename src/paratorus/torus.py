"""Discretized periodic torus with spectral calculus.

Fields on T^d = (R/Z)^d are stored as Fourier coefficients on the
integer lattice k in {-n/2+1, ..., n/2}^d kept in FFT layout
(0, 1, ..., n/2, -n/2+1, ..., -1 per axis).  The transform convention is

    hat(u)(k) = mean over grid points of e^{+2 pi i k.x} u(x)
    u(x)      = sum over k of e^{-2 pi i k.x} hat(u)(k)

so a constant maps to the k=0 coefficient unchanged, the first
derivative along axis j is the symbol -2 pi i k_j, and Parseval reads
sum |hat(u)(k)|^2 = grid mean of u^2.  Odd-derivative symbols are set
to zero at self-conjugate (Nyquist-edge) frequencies so that every
built-in multiplier maps real fields to real fields.

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


class HermitianResidueWarning(UserWarning):
    """An operation produced a larger-than-roundoff anti-Hermitian part."""


def _lattice_freqs(n: int) -> np.ndarray:
    """Integer frequencies in FFT layout with the Nyquist entry at +n/2."""
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n).astype(np.float64)


class Grid:
    """A d-dimensional n^d grid on the unit torus (n a power of two, >= 8)."""

    def __init__(self, d: int, n: int):
        if d not in (1, 2, 3):
            raise ConfigurationError(f"dimension must be 1, 2 or 3, got {d}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigurationError(f"n must be a power of two >= 8, got {n}")
        self.d = d
        self.n = n
        self.shape = (n,) * d
        self.size = n**d
        freqs = _lattice_freqs(n)
        # broadcastable per-axis frequency arrays
        self.kaxes = [
            freqs.reshape([n if a == ax else 1 for a in range(d)]) for ax in range(d)
        ]
        self.ksq = sum(ka**2 for ka in self.kaxes)
        self.kabs = np.sqrt(self.ksq)
        rev = (-np.arange(n)) % n
        self._rev_ix = np.ix_(*([rev] * d))
        # derivative symbols with the self-conjugate entry zeroed
        nyq = np.where(np.abs(freqs) == n // 2, 0.0, freqs)
        self.deriv_symbols = [
            (-2j * np.pi)
            * nyq.reshape([n if a == ax else 1 for a in range(d)])
            for ax in range(d)
        ]

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

    def hermitian_part(self, coeffs: np.ndarray) -> np.ndarray:
        return 0.5 * (coeffs + np.conj(coeffs[self._rev_ix]))

    def sobolev_symbol(self, s: float) -> np.ndarray:
        return (1.0 + 4.0 * np.pi**2 * self.ksq) ** (s / 2.0)


@lru_cache(maxsize=32)
def grid(d: int, n: int) -> Grid:
    """Shared Grid instances (immutable, safe to cache)."""
    return Grid(d, n)


@dataclass(frozen=True)
class SpectralField:
    """A real-valued function on the torus held as Fourier coefficients."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ConfigurationError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"grid shape {self.grid.shape}"
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
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ConfigurationError(f"grid mismatch: {f.grid} vs {g.grid}")


def _symmetrize(g: Grid, coeffs: np.ndarray, warn: bool = True) -> np.ndarray:
    sym = g.hermitian_part(coeffs)
    if warn:
        scale = np.max(np.abs(sym))
        if scale > 0.0:
            residue = np.max(np.abs(coeffs - sym)) / scale
            if residue > HERMITIAN_RESIDUE_TOL:
                warnings.warn(
                    f"discarded anti-Hermitian residue {residue:.3e} "
                    f"(relative) exceeds {HERMITIAN_RESIDUE_TOL:.0e}",
                    HermitianResidueWarning,
                    stacklevel=3,
                )
    return sym


def field_from_coeffs(g: Grid, coeffs: np.ndarray, warn: bool = False) -> SpectralField:
    """Wrap raw coefficients, enforcing Hermitian symmetry."""
    c = _symmetrize(g, np.asarray(coeffs, np.complex128), warn=warn)
    return SpectralField(g, np.ascontiguousarray(c))


def zero_field(g: Grid) -> SpectralField:
    return SpectralField(g, np.zeros(g.shape, np.complex128))


def constant_field(g: Grid, value: float) -> SpectralField:
    c = np.zeros(g.shape, np.complex128)
    c[(0,) * g.d] = value
    return SpectralField(g, c)


def to_spectral(u: np.ndarray, g: Grid) -> SpectralField:
    """Forward transform of physical samples (the integral as a grid mean)."""
    u = np.asarray(u)
    if u.shape != g.shape:
        raise ConfigurationError(
            f"sample array shape {u.shape} does not match grid shape {g.shape}"
        )
    return field_from_coeffs(g, np.fft.ifftn(u))


def to_physical(f: SpectralField) -> np.ndarray:
    """Evaluate the field on the grid points (real array)."""
    vals = np.fft.fftn(f.coeffs)
    scale = np.max(np.abs(vals))
    if scale > 0.0 and np.max(np.abs(vals.imag)) / scale > 1e-10:
        warnings.warn(
            "field has a non-negligible imaginary part in physical space",
            HermitianResidueWarning,
            stacklevel=2,
        )
    return vals.real


def fourier_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply a Fourier symbol; `m` is a callable of the grid or an array."""
    sym = m(f.grid) if callable(m) else np.asarray(m)
    sym = np.broadcast_to(sym, f.grid.shape)
    if not np.all(np.isfinite(sym)):
        bad = np.argwhere(~np.isfinite(sym))[0]
        k = tuple(int(f.grid.kaxes[a].ravel()[bad[a]]) for a in range(f.grid.d))
        raise MultiplierError(f"multiplier is not finite at k={k}")
    return field_from_coeffs(f.grid, sym * f.coeffs, warn=True)


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
    acc = np.zeros(g.shape, np.complex128)
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
# lattice embedding / restriction (the dealiasing machinery)

def split_axis(arr: np.ndarray, axis: int, n_src: int, n_dst: int,
               weight: float) -> np.ndarray:
    """Grow one axis from n_src to n_dst, placing weight*Nyquist at +-n_src/2."""
    shape = list(arr.shape)
    shape[axis] = n_dst
    out = np.zeros(shape, arr.dtype)
    ix = lambda i: tuple(i if a == axis else slice(None) for a in range(arr.ndim))
    h = n_src // 2
    out[ix(slice(0, h))] = arr[ix(slice(0, h))]
    ny = arr[ix(h)] * weight
    out[ix(h)] = ny
    out[ix(n_dst - h)] = ny
    out[ix(slice(n_dst - h + 1, n_dst))] = arr[ix(slice(h + 1, n_src))]
    return out


def fold_axis(arr: np.ndarray, axis: int, n_src: int, n_dst: int,
              weight: float) -> np.ndarray:
    """Shrink one axis from n_src to n_dst, folding the Nyquist pair."""
    shape = list(arr.shape)
    shape[axis] = n_dst
    out = np.empty(shape, arr.dtype)
    ix = lambda i: tuple(i if a == axis else slice(None) for a in range(arr.ndim))
    h = n_dst // 2
    out[ix(slice(0, h))] = arr[ix(slice(0, h))]
    out[ix(h)] = weight * (arr[ix(h)] + arr[ix(n_src - h)])
    out[ix(slice(h + 1, n_dst))] = arr[ix(slice(n_src - h + 1, n_src))]
    return out


def split_lattice(coeffs: np.ndarray, n_src: int, n_dst: int,
                  weight: float = 0.5) -> np.ndarray:
    if n_dst == n_src:
        return coeffs
    if n_dst < n_src:
        raise ConfigurationError("split requires n_dst >= n_src")
    out = coeffs
    for axis in range(coeffs.ndim):
        out = split_axis(out, axis, n_src, n_dst, weight)
    return out


def fold_lattice(coeffs: np.ndarray, n_src: int, n_dst: int,
                 weight: float = 1.0) -> np.ndarray:
    if n_dst == n_src:
        return coeffs
    if n_dst > n_src:
        raise ConfigurationError("fold requires n_dst <= n_src")
    out = coeffs
    for axis in range(coeffs.ndim):
        out = fold_axis(out, axis, n_src, n_dst, weight)
    return out


# Half spectra: the entries with last-axis frequency index 0..n/2 of a
# Hermitian coefficient array, the input and output of numpy's real FFTs.
# The helpers below act on a half spectrum as split_lattice / fold_lattice
# act on the full array it stands for; the entries at last-axis index
# -n/2 that those fold or split are implied by Hermitian symmetry.

@lru_cache(maxsize=64)
def _nyquist_weights(n: int, d: int, weight: float) -> np.ndarray:
    """weight^(number of axes at index n/2) on an n-lattice half spectrum."""
    h = n // 2
    w = np.ones((n,) * (d - 1) + (h + 1,))
    for axis in range(d):
        w[(slice(None),) * axis + (h,)] *= weight
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def _split_pieces(n_small: int, n_big: int, d: int) -> tuple:
    """(small, big) index pairs of the blocks a split from the n_small to
    the n_big lattice copies: per leading axis 0..h -> 0..h and
    h..n_small-1 -> n_big-h..n_big-1, so the Nyquist index h goes to +-h."""
    h = n_small // 2
    per_axis = ((slice(0, h + 1), slice(0, h + 1)),
                (slice(h, n_small), slice(n_big - h, n_big)))
    last = (slice(0, h + 1),)
    return tuple(
        (tuple(s for s, _ in combo) + last, tuple(b for _, b in combo) + last)
        for combo in itertools.product(per_axis, repeat=d - 1)
    )


def add_split_half(out: np.ndarray, half: np.ndarray, n_src: int,
                   weight: float) -> None:
    """Add to the larger-lattice half spectrum `out` the half spectrum of
    split_lattice(full, n_src, n_dst, weight), `half` that of `full`."""
    n_dst = 2 * (out.shape[-1] - 1)
    if n_dst == n_src:
        out += half
        return
    src = half * _nyquist_weights(n_src, half.ndim, weight)
    for small, big in _split_pieces(n_src, n_dst, half.ndim):
        out[big] += src[small]


def fold_half(arr: np.ndarray, n_src: int, n_dst: int,
              weight: float) -> np.ndarray:
    """Half spectrum of fold_lattice(full, n_src, n_dst, weight); `arr` is
    the half spectrum of `full`, or `full` itself."""
    h = n_dst // 2
    if n_dst == n_src:
        return arr[..., : h + 1]
    out = np.zeros((n_dst,) * (arr.ndim - 1) + (h + 1,), arr.dtype)
    for small, big in _split_pieces(n_dst, n_src, arr.ndim):
        out[small] += arr[big]
    out *= _nyquist_weights(n_dst, arr.ndim, weight)
    ny = out[..., h]
    ny += np.conj(_negate(ny))
    return out


def resample_half(arr: np.ndarray, n_src: int, n_dst: int, split_weight: float,
                  fold_weight: float, sym: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum on the n_dst lattice of fold_lattice(full, n_src, n_dst,
    fold_weight) if n_dst <= n_src, else of split_lattice(full, n_src, n_dst,
    split_weight); `arr` is the half spectrum of `full`, or `full` itself.

    `sym`, a half spectrum on the smaller of the two lattices, multiplies
    there: after a fold, before a split.  With `out` given, the result is
    added into it and `out` is returned.  Without `out`, n_dst == n_src
    returns a view of `arr` unless `sym` is given."""
    if n_dst <= n_src:
        res = fold_half(arr, n_src, n_dst, fold_weight)
        if sym is not None:
            res = sym * res
        if out is None:
            return res
        out += res
        return out
    src = arr[..., : n_src // 2 + 1]
    if sym is not None:
        src = sym * src
    if out is None:
        out = np.zeros((n_dst,) * (arr.ndim - 1) + (n_dst // 2 + 1,), np.complex128)
    add_split_half(out, src, n_src, split_weight)
    return out


def _negate(arr: np.ndarray) -> np.ndarray:
    """arr at index -k (mod the axis length) along every axis."""
    for axis in range(arr.ndim):
        n = arr.shape[axis]
        arr = arr.take((-np.arange(n)) % n, axis=axis)
    return arr


def full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """The full n-lattice Hermitian array whose half spectrum is `half`."""
    out = np.empty(half.shape[:-1] + (n,), np.complex128)
    out[..., : n // 2 + 1] = half
    # out[k, -l] = conj(half[-k, l]) for 0 < l < n/2, -k taken per axis
    per_axis = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for combo in itertools.product(per_axis, repeat=half.ndim - 1):
        dst = tuple(a for a, _ in combo) + (slice(n // 2 + 1, None),)
        src = tuple(b for _, b in combo) + (slice(n // 2 - 1, 0, -1),)
        np.conjugate(half[src], out=out[dst])
    return out


def embed_coeffs(coeffs: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """Embed an n_src-lattice coefficient array into an n_dst lattice,
    splitting Nyquist energy evenly (value-faithful for real fields)."""
    return split_lattice(coeffs, n_src, n_dst, weight=0.5)


def restrict_coeffs(coeffs: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """Restrict an n_src-lattice coefficient array to an n_dst lattice,
    folding the Nyquist pair (adjoint of plain zero-extension)."""
    return fold_lattice(coeffs, n_src, n_dst, weight=1.0)


def _product_raw(g: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two band-limited coefficient arrays, 2x padded."""
    m = 2 * g.n
    pa = np.fft.fftn(embed_coeffs(a, g.n, m)).real
    pb = np.fft.fftn(embed_coeffs(b, g.n, m)).real
    return restrict_coeffs(np.fft.ifftn(pa * pb), m, g.n)


def constant_value(coeffs: np.ndarray) -> float | None:
    """The value of a constant field (every coefficient but k=0 is zero),
    else None.  A real field's value is the real part of its k=0 entry."""
    flat = coeffs.reshape(-1)
    if np.any(flat[1:]):
        return None
    return float(flat[0].real)


def pointwise_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased product: evaluated on a 2x zero-padded grid, truncated back.
    A constant factor multiplies the other exactly, without transforms."""
    _check_same_grid(f, g)
    for const, other in ((f, g), (g, f)):
        c = constant_value(const.coeffs)
        if c is not None:
            return field_from_coeffs(f.grid, c * other.coeffs)
    return field_from_coeffs(f.grid, _product_raw(f.grid, f.coeffs, g.coeffs))


def exp_field(f: SpectralField) -> SpectralField:
    """Pointwise exponential on the 2x-padded grid, truncated to band limit."""
    g = f.grid
    m = 2 * g.n
    vals = np.fft.fftn(embed_coeffs(f.coeffs, g.n, m)).real
    peak = float(np.max(vals))
    if peak > EXP_OVERFLOW_LIMIT:
        raise FieldRangeError(
            f"exponential overflow: max field value {peak:.3g} exceeds "
            f"{EXP_OVERFLOW_LIMIT:g}"
        )
    return field_from_coeffs(g, restrict_coeffs(np.fft.ifftn(np.exp(vals)), m, g.n))


# ---------------------------------------------------------------------------
# PCF1 field file format

def write_pcf1(path, f: SpectralField) -> None:
    """ASCII header `PCF1 d=<d> n=<n>`, then complex128 little-endian coeffs."""
    with open(path, "wb") as fh:
        fh.write(f"PCF1 d={f.grid.d} n={f.grid.n}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def read_pcf1(path) -> SpectralField:
    """Read a field written by write_pcf1.  A malformed header raises
    ConfigurationError; a body of the wrong length, with non-finite
    coefficients or with coefficients that are not exactly Hermitian (the
    coefficients of a real field) raises DataError.  Both name the file.
    Every field the package writes is exactly Hermitian, so the check is
    exact."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            tag, d, n = header.decode("ascii").split()
            if tag != "PCF1" or d[:2] != "d=" or n[:2] != "n=":
                raise ValueError
            g = grid(int(d[2:]), int(n[2:]))
        except (ValueError, ConfigurationError):  # UnicodeDecodeError included
            raise ConfigurationError(
                f"{path}: not a PCF1 header: {header[:80]!r}") from None
        size = 16 * g.size
        data = fh.read(size + 1)
    if len(data) < size:
        raise DataError(f"{path}: truncated body, {len(data)} of {size} bytes for {g}")
    if len(data) > size:
        raise DataError(f"{path}: trailing bytes after the {size}-byte body for {g}")
    coeffs = np.frombuffer(data, dtype="<c16").reshape(g.shape)
    if not np.all(np.isfinite(coeffs)):
        raise DataError(f"{path}: non-finite coefficients")
    if not np.array_equal(coeffs, np.conj(coeffs[g._rev_ix])):
        raise DataError(f"{path}: coefficients are not Hermitian, so they are "
                        f"not those of a real field")
    return SpectralField(g, np.ascontiguousarray(coeffs.astype(np.complex128)))
