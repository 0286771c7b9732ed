"""Mollified coefficient data, Wick renormalization, enhanced tuples.

The enhanced tuple collects, at one mollification scale eps, everything
the transform stack consumes: the rough coefficients (xi, V, rho), the
auxiliary pair (W, Z) solving the KPZ-type identity

    (1 - Delta) W - |grad W|^2 + grad W . grad V + xi + c = Z,

and the renormalization constant c.  The products with the exponentials
that the operators need depend on the frequency cutoffs and are formed by
`transforms`.

Two constructions are provided: the 2d white-noise case, where
W = -(1-Delta)^{-1} xi_eps makes the identity exact with
Z = -(|grad W|^2 - c) and c the deterministic lattice sum
E|grad W_eps|^2, and the generic case, where W solves the
(lam - Delta)-relaxed equation exactly and Z = (1 - lam) W, c = 0.

Sampling is deterministic per seed; independent seeds may run in
parallel; tuples are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, ResolutionError
from .kpz import auto_lambda, nonlinearity
from .lp import random_field_with_decay
from .torus import (
    Grid,
    SpectralField,
    constant_field,
    div,
    field_from_coeffs,
    gaussian_coeffs,
    grad,
    l2_norm,
    read_pcf1,
    to_spectral,
    write_pcf1,
    zero_field,
)

RESOLUTION_THRESHOLD = 1e-8


def heat_mollifier(eps: float, ksq: np.ndarray) -> np.ndarray:
    """Fourier-side heat kernel exp(-4 pi^2 eps^2 |k|^2)."""
    return np.exp(-4.0 * np.pi**2 * eps**2 * ksq)


def check_noise_resolved(g: Grid, eps: float) -> None:
    """The mollifier must be negligible at the Nyquist shell."""
    tail = float(heat_mollifier(eps, np.array((g.n / 2.0) ** 2)))
    if tail > RESOLUTION_THRESHOLD:
        raise ResolutionError(
            f"noise not resolved: mollifier at the Nyquist shell is "
            f"{tail:.3e} > {RESOLUTION_THRESHOLD:.0e} (eps={eps:g}, n={g.n}); "
            f"increase eps or refine the grid"
        )


def sample_white_noise(g: Grid, seed: int) -> SpectralField:
    """Spatial white noise: independent unit-variance Gaussian coefficients,
    Hermitian-symmetrized, mean-zero."""
    if g.d not in (2, 3):
        raise ConfigurationError(f"white noise requires d = 2 or 3, got d={g.d}")
    coeffs = gaussian_coeffs(g, np.random.default_rng(seed)) * np.sqrt(2.0)
    coeffs[(0,) * g.d] = 0.0
    return SpectralField(g, np.ascontiguousarray(coeffs))


def mollify(f: SpectralField, eps: float) -> SpectralField:
    if eps <= 0:
        raise ConfigurationError(f"mollification scale must be > 0, got {eps}")
    return field_from_coeffs(f.grid, heat_mollifier(eps, f.grid.ksq) * f.coeffs)


def wick_constant(g: Grid, eps: float) -> float:
    """Deterministic lattice sum for E|grad W_eps|^2 with
    W_eps = (1-Delta)^{-1} xi_eps and unit-variance noise modes."""
    if g.d != 2:
        raise ConfigurationError("the Wick constant is the d=2 construction")
    check_noise_resolved(g, eps)
    m2 = heat_mollifier(eps, g.ksq) ** 2
    terms = 4.0 * np.pi**2 * g.ksq * m2 / (1.0 + 4.0 * np.pi**2 * g.ksq) ** 2
    terms[(0,) * g.d] = 0.0
    for plane in g.nyquist:  # modes no field keeps
        terms[plane] = 0.0
    # the half lattice: a column k_d > 0 stands for its mirror -k too
    return float(np.sum(terms[..., 0]) + 2.0 * np.sum(terms[..., 1:]))


def helmholtz_project(v: list[SpectralField]) -> list[SpectralField]:
    """Fourier-side projection onto divergence-free fields:
    vhat(k) -> (I - k k^T / |k|^2) vhat(k) for k != 0; the mean is kept.

    On fields, whose Nyquist entries are zero, the output is exactly
    divergence-free and the projector idempotent."""
    g = v[0].grid
    if len(v) != g.d:
        raise ConfigurationError(f"expected {g.d} components, got {len(v)}")
    safe = np.where(g.ksq > 0, g.ksq, 1.0)
    dot = sum(k * comp.coeffs for k, comp in zip(g.kaxes, v))
    out = []
    for k, comp in zip(g.kaxes, v):
        proj = comp.coeffs - np.where(g.ksq > 0, k * dot / safe, 0.0)
        out.append(field_from_coeffs(g, proj))
    return out


@dataclass(frozen=True)
class EnhancedData:
    """The enhanced tuple at one mollification scale."""

    eps: float
    xi: SpectralField
    V: SpectralField
    rho: tuple
    W: SpectralField
    Z: SpectralField
    c_eps: float
    seed: int = 0
    kind: str = "custom"
    lam: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.xi.grid

    def is_symmetric(self) -> bool:
        """No drift and real potentials: the operator form is symmetric."""
        return all(l2_norm(c) == 0.0 for c in self.rho)

    def kpz_residual(self) -> float:
        g = self.grid
        lhs = field_from_coeffs(g, (1.0 + 4.0 * np.pi**2 * g.ksq) * self.W.coeffs)
        return l2_norm(lhs - nonlinearity(self.W, self.V) + self.xi
                       + constant_field(g, self.c_eps) - self.Z)

    def validate(self, tol_kpz: float = 1e-9, tol_div: float = 1e-10) -> None:
        div_norm = l2_norm(div(list(self.rho)))
        if div_norm > tol_div:
            raise DataError(f"drift is not divergence-free: |div rho| = {div_norm:.3e}")
        res = self.kpz_residual()
        if res > tol_kpz:
            raise DataError(
                f"KPZ identity residual {res:.3e} exceeds tolerance {tol_kpz:.1e}"
            )

    def without_renormalization(self) -> "EnhancedData":
        """Control variant with the constant dropped (violates the KPZ
        identity on purpose; for contrast experiments only)."""
        return replace(self, c_eps=0.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Configuration of a coefficient draw."""

    kind: str
    seed: int = 0
    amplitude: float = 1.0
    delta: float = 0.6
    delta_prime: float = 0.3
    delta_dprime: float = 0.1
    p: float = 8.0
    q: float = 32.0
    r: float = 8.0

    KINDS = ("anderson2d", "generic_I", "generic_II", "smooth_manufactured")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")

    def validate_for_dimension(self, d: int) -> None:
        dl, dp, dpp = self.delta, self.delta_prime, self.delta_dprime
        if self.kind == "generic_I":
            if not (0 < dp < dl < 1):
                raise ConfigurationError("generic_I needs 0 < delta' < delta < 1")
            if not (self.p > d and self.r > d):
                raise ConfigurationError(f"generic_I needs p, r > d = {d}")
            if not (1.0 / self.q < (1.0 - dl - dp) / d):
                raise ConfigurationError(
                    f"generic_I needs 1/q < (1 - delta - delta')/d = "
                    f"{(1.0 - dl - dp) / d:g}, got 1/q = {1.0 / self.q:g}"
                )
            if not (1.0 / self.p + 1.0 / self.r < 1.0 / d):
                raise ConfigurationError("generic_I needs 1/p + 1/r < 1/d")
            if not (1.0 / self.q + 1.0 / self.r < 1.0 / d):
                raise ConfigurationError("generic_I needs 1/q + 1/r < 1/d")
        elif self.kind == "generic_II":
            if not (0 < dpp < dp < dl < 1):
                raise ConfigurationError(
                    "generic_II needs 0 < delta'' < delta' < delta < 1"
                )
            if 0.5 - dp - dpp <= 0:
                raise ConfigurationError("generic_II needs delta' + delta'' < 1/2")


def enhance_anderson2d(g: Grid, eps: float, seed: int,
                       tol_kpz: float = 1e-9) -> EnhancedData:
    """2d white-noise tuple: V = rho = 0, W = -(1-Delta)^{-1} xi_eps,
    c the lattice-sum constant, Z = -(|grad W|^2 - c): the KPZ identity
    is then exact."""
    if g.d != 2:
        raise ConfigurationError("anderson2d enhancement requires d = 2")
    check_noise_resolved(g, eps)
    xi = mollify(sample_white_noise(g, seed), eps)
    W = field_from_coeffs(g, -xi.coeffs / (1.0 + 4.0 * np.pi**2 * g.ksq))
    c = wick_constant(g, eps)
    Z = constant_field(g, c) - nonlinearity(W, zero_field(g))
    zerov = tuple(zero_field(g) for _ in range(g.d))
    data = EnhancedData(
        eps=eps, xi=xi, V=zero_field(g), rho=zerov, W=W, Z=Z, c_eps=c,
        seed=seed, kind="anderson2d", lam=0.0,
    )
    data.validate(tol_kpz=tol_kpz)
    return data


def _smooth_manufactured_fields(g: Grid, amplitude: float):
    mesh = g.meshgrid()
    x1 = mesh[0]
    x2 = mesh[1 % g.d]
    xi = to_spectral(amplitude * (np.cos(2 * np.pi * x1)
                                  + 0.5 * np.sin(2 * np.pi * x2)), g)
    V = to_spectral(0.5 * amplitude * np.cos(2 * np.pi * x2), g)
    psi = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
    stream = to_spectral(0.3 * amplitude * psi, g)
    gs = grad(stream)
    rho = [zero_field(g) for _ in range(g.d)]
    if g.d >= 2:
        rho[0] = gs[1]
        rho[1] = -1.0 * gs[0]
    return xi, V, rho


def enhance_generic(spec: NoiseSpec, g: Grid, eps: float,
                    tol: float = 1e-10) -> EnhancedData:
    """Generic tuple: draw (xi, V, rho) with the configured regularities,
    solve the relaxed KPZ equation exactly, and set Z = (1 - lam) W with
    c = 0, which makes the unrelaxed identity hold to solver tolerance."""
    if spec.kind == "anderson2d":
        return enhance_anderson2d(g, eps, spec.seed)
    spec.validate_for_dimension(g.d)
    check_noise_resolved(g, eps)
    rng = np.random.default_rng(spec.seed)
    amp = spec.amplitude
    if spec.kind == "smooth_manufactured":
        xi, V, rho = _smooth_manufactured_fields(g, amp)
    elif spec.kind == "generic_I":
        xi = amp * random_field_with_decay(g, -1.0 + spec.delta, rng)
        V = amp * random_field_with_decay(g, 1.0 - spec.delta_prime, rng)
        rho = [amp * random_field_with_decay(g, -spec.delta_prime, rng)
               for _ in range(g.d)]
    else:  # generic_II
        xi = amp * random_field_with_decay(g, -0.5 + spec.delta, rng)
        V = amp * random_field_with_decay(g, 0.5 + spec.delta_prime, rng)
        rho = [amp * random_field_with_decay(g, -0.5 - spec.delta_dprime, rng)
               for _ in range(g.d)]
    xi = mollify(xi, eps)
    V = mollify(V, eps)
    rho = tuple(helmholtz_project([mollify(c, eps) for c in rho]))
    prob, result = auto_lambda(xi, V, tol)
    data = EnhancedData(
        eps=eps, xi=xi, V=V, rho=rho, W=result.W, Z=(1.0 - prob.lam) * result.W,
        c_eps=0.0, seed=spec.seed, kind=spec.kind, lam=prob.lam,
    )
    data.validate(tol_kpz=max(100.0 * tol, 1e-8))
    return data


def zero_data(g: Grid) -> EnhancedData:
    """Degenerate tuple with every coefficient identically zero."""
    z = zero_field(g)
    zv = tuple(zero_field(g) for _ in range(g.d))
    return EnhancedData(
        eps=1.0, xi=z, V=z, rho=zv, W=z, Z=z, c_eps=0.0, seed=0, kind="zero",
        lam=1.0,
    )


# ---------------------------------------------------------------------------
# persistence: a directory of PCF1 files plus a key=value meta file.
# Directories saved by earlier versions also hold Z_tilde, sp_V, sp_W and
# rho_exp_<i> files, which are ignored.

_FIELDS = ["xi", "V", "W", "Z"]


def save_enhanced(data: EnhancedData, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name in _FIELDS:
        write_pcf1(d / f"{name}.pcf", getattr(data, name))
    for i, comp in enumerate(data.rho):
        write_pcf1(d / f"rho_{i}.pcf", comp)
    with open(d / "meta", "w") as fh:
        fh.write(f"eps={data.eps:.17g}\n")
        fh.write(f"c_eps={data.c_eps:.17g}\n")
        fh.write(f"seed={data.seed}\n")
        fh.write(f"kind={data.kind}\n")
        fh.write(f"lam={data.lam:.17g}\n")
        fh.write(f"d={data.grid.d}\n")
        fh.write(f"n={data.grid.n}\n")


class _Meta(dict):
    """The key=value entries of one meta file; a missing key is refused."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise ConfigurationError(f"{self.path}: no {key!r} entry")

    def parsed(self, key, parse=float):
        """The entry `key` read by `parse` (int, float, ...); a value that
        `parse` refuses is refused naming the file and the key."""
        try:
            return parse(self[key])
        except ValueError:
            raise ConfigurationError(
                f"{self.path}: malformed {key!r} entry {self[key]!r}") from None


def read_meta(path) -> _Meta:
    """The key=value entries of a UTF-8 meta file, refused naming it if not."""
    meta = _Meta(path)
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and "=" in line:
                    key, value = line.split("=", 1)
                    meta[key] = value
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path}: not UTF-8 text ({err.reason})") from None
    return meta


def load_enhanced(directory) -> EnhancedData:
    d = Path(directory)
    meta = read_meta(d / "meta")
    dim = meta.parsed("d", int)
    fields = {name: read_pcf1(d / f"{name}.pcf") for name in _FIELDS}
    rho = tuple(read_pcf1(d / f"rho_{i}.pcf") for i in range(dim))
    return EnhancedData(
        eps=meta.parsed("eps"), c_eps=meta.parsed("c_eps"),
        seed=meta.parsed("seed", int), kind=meta["kind"], lam=meta.parsed("lam"),
        rho=rho, **fields,
    )
