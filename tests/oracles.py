"""Dense references for the operator tests.

The operators act on the coefficients of real fields, Hermitian arrays
with zero Nyquist planes: a real vector space of dimension (n-1)^d.
`dense_matrix` writes an operator on it as a real matrix in an
orthonormal basis of the real l^2 product, so its eigenvalues and
singular values are those of the operator on the fields it acts on.
"""

import numpy as np


def kept_basis(g):
    """Orthonormal basis of the real fields on g: e_0, and for each pair
    of kept modes +-k the arrays (e_k + e_-k)/sqrt 2 and
    i (e_k - e_-k)/sqrt 2."""
    kept = np.ones(g.shape, bool)
    for plane in g.nyquist:
        kept[plane] = False
    basis = []
    for idx in zip(*np.nonzero(kept)):
        neg = tuple((-i) % g.n for i in idx)
        if neg < idx:
            continue
        if neg == idx:  # k = 0
            x = np.zeros(g.shape, np.complex128)
            x[idx] = 1.0
            basis.append(x)
            continue
        for phase in (1.0, 1j):
            x = np.zeros(g.shape, np.complex128)
            x[idx] = np.sqrt(0.5) * phase
            x[neg] = np.sqrt(0.5) * np.conj(phase)
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
