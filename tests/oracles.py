"""References for the tests: the full Hermitian layout and dense matrices.

The package stores a real field as the half of its Fourier lattice with
last-axis frequency k_d = 0..n/2, every entry off the column k_d = 0
scaled by sqrt 2 (`paratorus.torus`).  `to_full` and `to_half` convert
between that and the full Hermitian array of its Fourier coefficients,
the layout of the complex-FFT references.

The fields form a real vector space of dimension (n-1)^d, and the plain
real l^2 product of stored coefficients is their L^2 product.
`dense_matrix` writes an operator on it as a real matrix in an
orthonormal basis of that product, so its eigenvalues and singular values
are those of the operator on the fields it acts on.
"""

import numpy as np


def to_full(half, g):
    """The full Hermitian coefficient array of the stored coefficients
    `half` on g: full[k', k_d] = half[k', k_d] / s(k_d) for k_d = 0..n/2,
    and full[k', -k_d] = conj full[-k', k_d], with s(0) = 1 and
    s(k_d) = sqrt 2 otherwise."""
    n = g.n
    h = np.array(half, np.complex128)
    h[..., 1:] /= np.sqrt(2.0)
    full = np.zeros(g.shape, np.complex128)
    full[..., : n // 2 + 1] = h
    rev = (-np.arange(n)) % n
    cols = np.arange(1, n // 2)
    full[..., n - cols] = np.conj(h[np.ix_(*([rev] * (g.d - 1) + [cols]))])
    return full


def to_half(full):
    """The stored coefficients of a full Hermitian coefficient array: its
    columns k_d = 0..n/2, those off k_d = 0 scaled by sqrt 2."""
    n = full.shape[-1]
    half = np.array(full[..., : n // 2 + 1], np.complex128)
    half[..., 1:] *= np.sqrt(2.0)
    return half


def kept_basis(g):
    """Orthonormal basis of the stored coefficients of real fields on g:
    e_0; for each pair +-k' of kept modes on the column k_d = 0 the arrays
    (e_k' + e_-k')/sqrt 2 and i (e_k' - e_-k')/sqrt 2; and e_k and i e_k
    for each kept k on the columns 0 < k_d < n/2."""
    kept = np.ones(g.half_shape, bool)
    for plane in g.nyquist:
        kept[plane] = False
    basis = []
    for idx in zip(*np.nonzero(kept)):
        if idx[-1] == 0:
            neg = tuple((-i) % g.n for i in idx)
            if neg < idx:
                continue
            if neg == idx:  # k = 0
                x = np.zeros(g.half_shape, np.complex128)
                x[idx] = 1.0
                basis.append(x)
                continue
            for phase in (1.0, 1j):
                x = np.zeros(g.half_shape, np.complex128)
                x[idx] = np.sqrt(0.5) * phase
                x[neg] = np.sqrt(0.5) * np.conj(phase)
                basis.append(x)
            continue
        for phase in (1.0, 1j):
            x = np.zeros(g.half_shape, np.complex128)
            x[idx] = phase
            basis.append(x)
    assert len(basis) == (g.n - 1) ** g.d
    return basis


def dense_matrix(apply, g):
    """The real (n-1)^d x (n-1)^d matrix of <b_i, T b_j> over kept_basis,
    T given by `apply` on coefficient arrays."""
    basis = kept_basis(g)

    def real(x):
        return np.concatenate([x.real.ravel(), x.imag.ravel()])

    rows = np.stack([real(b) for b in basis])
    return rows @ np.stack([real(apply(b)) for b in basis], axis=1)
