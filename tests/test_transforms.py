import dataclasses

import numpy as np
import pytest

from paratorus.errors import ConfigurationError
from paratorus.linops import (
    coeff_norm,
    compose,
    identity_op,
    mult_field_op,
    neumann_inverse_op,
    operator_norm,
    subtract,
)
from paratorus.lp import build_partition, random_field_with_decay
from paratorus.noise import NoiseSpec, enhance_anderson2d, enhance_generic, zero_data
from paratorus.torus import (
    field_from_coeffs,
    grid,
    l2_norm,
    sobolev_norm,
    sobolev_scale,
    to_spectral,
)
from paratorus.transforms import (
    KERNEL_VERSION,
    NEUMANN_MAX_TERMS,
    NEUMANN_TOL,
    apply_gamma,
    apply_lambda,
    apply_phi,
    apply_upsilon,
    assemble_theta,
    build_stack,
    choose_cutoffs,
    exponential_certificates,
    save_stack,
    verify_stack,
)


@pytest.fixture(scope="module")
def anderson_stack():
    g = grid(2, 64)
    data = enhance_anderson2d(g, 2.0**-3, seed=5)
    P = build_partition(g)
    return choose_cutoffs(data, P, power_iters=15, restarts=2)


@pytest.fixture(scope="module")
def drift_stack():
    # generic_I data carry a drift rho, so Phi's rho term is built and run
    g = grid(2, 32)
    data = enhance_generic(NoiseSpec("generic_I", seed=1, amplitude=2.0), g, 2.0**-3)
    assert not data.is_symmetric()
    return choose_cutoffs(data, build_partition(g), power_iters=8, restarts=1)


@pytest.fixture(scope="module")
def zero_stack():
    g = grid(2, 64)
    return choose_cutoffs(zero_data(g), build_partition(g), power_iters=5,
                          restarts=1)


def h2_probe(g, seed, P=None):
    rng = np.random.default_rng(seed)
    f = random_field_with_decay(g, 2.5, rng, kmax=2.0 ** (P.j_max if P else 4))
    return f


class TestZeroData:
    def test_cutoffs_are_zero(self, zero_stack):
        assert zero_stack.M == 0 and zero_stack.N == 0
        assert zero_stack.cert_exp_plus == 0.0
        assert zero_stack.cert_exp_minus == 0.0
        assert zero_stack.cert_phi == 0.0

    def test_all_transforms_identity(self, zero_stack):
        g = zero_stack.grid
        w = h2_probe(g, 0, zero_stack.partition)
        lam = apply_lambda(w, zero_stack)
        assert np.max(np.abs(lam.coeffs - sobolev_scale(w, 2.0).coeffs)) < 1e-12
        for which in ("upsilon", "upsilon_bar"):
            for inverse in (False, True):
                out = apply_upsilon(w, zero_stack, which, inverse)
                assert np.array_equal(out.coeffs, w.coeffs)
        assert np.array_equal(apply_phi(w, zero_stack).coeffs, w.coeffs)
        theta = assemble_theta(zero_stack)
        assert np.array_equal(theta.forward(w).coeffs, w.coeffs)
        assert np.array_equal(theta.inverse(w).coeffs, w.coeffs)

    def test_stack_is_frozen(self, zero_stack):
        with pytest.raises(dataclasses.FrozenInstanceError):
            zero_stack.N = 1
        with pytest.raises(TypeError):
            zero_stack.cert_upsilon[0.0] = 1.0


class TestCertificates:
    def test_exponential_smallness(self, anderson_stack):
        assert anderson_stack.cert_exp_plus <= 0.25
        assert anderson_stack.cert_exp_minus <= 0.25

    def test_operator_norms(self, anderson_stack):
        assert max(anderson_stack.cert_upsilon.values()) <= 0.5
        assert anderson_stack.cert_phi <= 0.5

    def test_eps_uniformity_recheck(self, anderson_stack):
        g = anderson_stack.grid
        for j in (4, 5):
            data2 = enhance_anderson2d(g, 2.0**-j, seed=5)
            plus, minus = exponential_certificates(data2, anderson_stack.M)
            assert plus <= 0.25 and minus <= 0.25


class TestFactorization:
    def test_lambda_equals_lap_upsilon(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(20):
            w = h2_probe(g, seed, anderson_stack.partition)
            lhs = apply_lambda(w, anderson_stack)
            rhs = sobolev_scale(apply_upsilon(w, anderson_stack), 2.0)
            assert l2_norm(lhs - rhs) <= 1e-11 * max(1.0, l2_norm(lhs))

    def test_lambda_bar_equals_lap_upsilon_bar(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(20):
            w = h2_probe(g, seed, anderson_stack.partition)
            lhs = apply_lambda(w, anderson_stack, "lambda_bar")
            rhs = sobolev_scale(
                apply_upsilon(w, anderson_stack, "upsilon_bar"), 2.0
            )
            assert l2_norm(lhs - rhs) <= 1e-11 * max(1.0, l2_norm(lhs))

    def test_linearity(self, anderson_stack):
        g = anderson_stack.grid
        w1 = h2_probe(g, 1, anderson_stack.partition)
        w2 = h2_probe(g, 2, anderson_stack.partition)
        out = apply_lambda(w1 + 2.0 * w2, anderson_stack)
        ref = apply_lambda(w1, anderson_stack) + 2.0 * apply_lambda(w2, anderson_stack)
        assert l2_norm(out - ref) <= 1e-12 * max(1.0, l2_norm(ref))


class TestInverses:
    def test_upsilon_roundtrip(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(5):
            w = h2_probe(g, seed, anderson_stack.partition)
            back = apply_upsilon(
                apply_upsilon(w, anderson_stack, inverse=True), anderson_stack
            )
            assert l2_norm(back - w) <= 1e-10 * max(1.0, l2_norm(w))

    def test_phi_gamma_roundtrip(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(20):
            w = h2_probe(g, seed, anderson_stack.partition)
            back = apply_phi(apply_gamma(w, anderson_stack), anderson_stack)
            assert sobolev_norm(back - w, 1.0) <= 1e-10 * max(
                1.0, sobolev_norm(w, 1.0)
            )

    def test_theta_roundtrip(self, anderson_stack):
        g = anderson_stack.grid
        theta = assemble_theta(anderson_stack)
        for seed in range(5):
            u = h2_probe(g, seed, anderson_stack.partition)
            back = theta.forward(theta.inverse(u))
            assert l2_norm(back - u) <= 1e-9 * max(1.0, l2_norm(u))

    def test_injectivity_probe(self, anderson_stack):
        g = anderson_stack.grid
        theta = assemble_theta(anderson_stack)
        ratios = []
        for seed in range(50):
            u = h2_probe(g, seed, anderson_stack.partition)
            ratios.append(l2_norm(theta.forward(u)) / l2_norm(u))
        assert min(ratios) > 0.0

    def test_theta_output_norm_controlled(self, anderson_stack):
        # proxy for Theta(H^2) contained in H^delta: the H^0.5 norm of the
        # output is controlled by the H^2 norm of the input
        g = anderson_stack.grid
        theta = assemble_theta(anderson_stack)
        ratios = []
        for seed in range(20):
            u = h2_probe(g, seed, anderson_stack.partition)
            ratios.append(sobolev_norm(theta.forward(u), 0.5) / sobolev_norm(u, 2.0))
        assert max(ratios) < 100.0 * min(ratios) or max(ratios) < 10.0


def nested_theta(stack):
    """Theta and Theta^{-1} through the nested correction I - Upsilon^{-1} R,
    built from the stack's public operators: a series inside a series."""
    g = stack.grid
    step = compose(stack.upsilon_inv, subtract(stack.upsilon, stack.phi))
    gamma_nested = neumann_inverse_op(step, g, s=1.0, tol=NEUMANN_TOL,
                                      max_terms=NEUMANN_MAX_TERMS)
    m_epw = mult_field_op(g, stack.e_pw.coeffs)
    m_epw_inv = mult_field_op(g, stack.e_pw_inv.coeffs)
    theta = compose(m_epw, gamma_nested, stack.upsilon_inv, stack.upsilon_bar_inv)
    theta_inv = compose(stack.upsilon_bar, stack.upsilon,
                        subtract(identity_op(), step), m_epw_inv)
    return theta, theta_inv


@pytest.mark.parametrize("name", ["drift_stack", "anderson_stack"])
def test_flat_theta_matches_nested(request, name):
    stack = request.getfixturevalue(name)
    theta_ref, theta_inv_ref = nested_theta(stack)
    for seed in range(5):
        u = h2_probe(stack.grid, seed, stack.partition).coeffs
        for op, ref in ((stack.theta, theta_ref), (stack.theta_inv, theta_inv_ref)):
            want = ref.apply(u)
            assert coeff_norm(op.apply(u) - want) <= 1e-12 * coeff_norm(want)


OPERATOR_FIELDS = ("lambda_", "lambda_bar", "upsilon", "upsilon_inv",
                   "upsilon_bar", "upsilon_bar_inv", "phi", "gamma", "theta",
                   "theta_inv")


@pytest.mark.parametrize("field", OPERATOR_FIELDS)
def test_stack_operator_adjoint(drift_stack, field):
    # <Tx, y> = <x, T*y> in the real l^2 product of Hermitian coefficients;
    # the power iteration behind every certificate runs T*
    T = getattr(drift_stack, field)
    g = drift_stack.grid
    kmax = 2.0**drift_stack.partition.j_max
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = (random_field_with_decay(g, 1.0, rng, kmax=kmax).coeffs
                for _ in range(2))
        tx = T.apply(x)
        gap = abs(np.vdot(y, tx).real - np.vdot(T.adjoint(y), x).real)
        assert gap <= 1e-12 * coeff_norm(tx) * coeff_norm(y)


class TestEpsContinuity:
    def test_theta_cauchy_along_schedule(self):
        g = grid(2, 64)
        P = build_partition(g)
        stacks = []
        base = choose_cutoffs(enhance_anderson2d(g, 2.0**-3, seed=3), P,
                              power_iters=10, restarts=1)
        stacks.append(base)
        for j in (4, 5):
            data = enhance_anderson2d(g, 2.0**-j, seed=3)
            stacks.append(build_stack(data, P, base.M, base.N,
                                      power_iters=5, restarts=1))
        u = h2_probe(g, 9, P)
        outs = [assemble_theta(s).forward(u) for s in stacks]
        gaps = [l2_norm(a - b) for a, b in zip(outs, outs[1:])]
        assert gaps[1] < gaps[0]


class TestPersistence:
    def test_save_verify_roundtrip(self, anderson_stack, tmp_path):
        save_stack(anderson_stack, tmp_path / "stack")
        table = verify_stack(tmp_path / "stack")
        assert table["M"] == anderson_stack.M
        assert table["stored"] == table["recomputed"]

    def test_tamper_detection(self, anderson_stack, tmp_path):
        from paratorus.errors import CertificateError
        save_stack(anderson_stack, tmp_path / "stack")
        meta = (tmp_path / "stack" / "stack_meta").read_text()
        meta = meta.replace("cert_phi=", "cert_phi=9")
        (tmp_path / "stack" / "stack_meta").write_text(meta)
        with pytest.raises(CertificateError):
            verify_stack(tmp_path / "stack")

    def test_flipped_exponential_bit_detected(self, anderson_stack, tmp_path):
        from paratorus.errors import CertificateError
        save_stack(anderson_stack, tmp_path / "stack")
        path = tmp_path / "stack" / "e_pw.pcf"
        raw = bytearray(path.read_bytes())
        first_coeff = raw.index(b"\n") + 1
        raw[first_coeff] ^= 1  # lowest mantissa bit of Re e_pw(k=0)
        path.write_bytes(bytes(raw))
        with pytest.raises(CertificateError, match="e_pw mismatch"):
            verify_stack(tmp_path / "stack")


    def test_unstamped_stack_refused(self, anderson_stack, tmp_path):
        save_stack(anderson_stack, tmp_path / "stack")
        path = tmp_path / "stack" / "stack_meta"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("kernel=")))
        with pytest.raises(ConfigurationError,
                           match=f"no kernel stamp.*{KERNEL_VERSION}"):
            verify_stack(tmp_path / "stack")

    @pytest.mark.parametrize("stamp", ["r2c-1", "r2c-2"])
    def test_previous_stamp_refused(self, anderson_stack, tmp_path, stamp):
        # r2c-1 stacks certified the nested Phi, so their cert_phi means
        # another norm; r2c-2 stacks took their exponentials from complex
        # FFTs, so they do not re-verify bit for bit
        save_stack(anderson_stack, tmp_path / "stack")
        path = tmp_path / "stack" / "stack_meta"
        meta = path.read_text().replace(f"kernel={KERNEL_VERSION}\n", f"kernel={stamp}\n")
        assert f"kernel={stamp}\n" in meta
        path.write_text(meta)
        with pytest.raises(ConfigurationError, match=f"{stamp}.*{KERNEL_VERSION}"):
            verify_stack(tmp_path / "stack")

    @pytest.mark.parametrize("path, key", [
        ("stack_meta", "M"),
        ("stack_meta", "cert_phi"),
        ("stack_meta", "power_iters"),
        ("data/meta", "eps"),
    ])
    def test_malformed_meta_value_named(self, zero_stack, tmp_path, path, key):
        save_stack(zero_stack, tmp_path / "stack")
        meta = tmp_path / "stack" / path
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(f"{key}=abc\n" if l.startswith(f"{key}=") else l
                                for l in lines))
        with pytest.raises(ConfigurationError, match=f"{path}: malformed '{key}' entry 'abc'"):
            verify_stack(tmp_path / "stack")


    @pytest.mark.parametrize("path", ["stack_meta", "data/meta"])
    def test_non_utf8_meta_named(self, zero_stack, tmp_path, path):
        save_stack(zero_stack, tmp_path / "stack")
        (tmp_path / "stack" / path).write_bytes(b"M=1\n\xff\xfeN=2\n")
        with pytest.raises(ConfigurationError, match=f"{path}: not UTF-8 text"):
            verify_stack(tmp_path / "stack")


class TestArgumentValidation:
    def test_bad_selector(self, zero_stack):
        w = h2_probe(zero_stack.grid, 0, zero_stack.partition)
        with pytest.raises(ConfigurationError):
            apply_lambda(w, zero_stack, "nope")
        with pytest.raises(ConfigurationError):
            apply_upsilon(w, zero_stack, "nope")
