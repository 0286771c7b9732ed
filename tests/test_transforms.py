import dataclasses

import numpy as np
import pytest

from paratorus import paraproducts
from paratorus.errors import ConfigurationError
from paratorus.linops import (
    NORM_SETTLE_TOL,
    LinOp,
    coeff_norm,
    compose,
    identity_op,
    mult_field_op,
    neumann_inverse_op,
    operator_norm,
    random_hermitian,
    sobolev_op,
    subtract,
)
from paratorus.lp import build_partition, random_field_with_decay
from paratorus.noise import NoiseSpec, enhance_anderson2d, enhance_generic, zero_data
from paratorus.torus import (
    constant_field,
    exp_field,
    field_from_coeffs,
    grad,
    grid,
    l2_norm,
    laplacian,
    pointwise_product,
    product_size,
    project_frequencies,
    sobolev_norm,
    sobolev_scale,
    to_spectral,
)
from paratorus.transforms import (
    DEFAULT_SIGMAS,
    KERNEL_VERSION,
    NEUMANN_MAX_TERMS,
    NEUMANN_TOL,
    assemble_theta,
    build_stack,
    choose_cutoffs,
    exponential_certificates,
    modified_potential,
    save_stack,
    verify_stack,
)

from oracles import dense_matrix


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


def applied(op, w):
    """The stack operator `op` applied to the field w."""
    return field_from_coeffs(w.grid, op.apply(w.coeffs))


class TestZeroData:
    def test_cutoffs_are_zero(self, zero_stack):
        assert zero_stack.M == 0 and zero_stack.N == 0
        assert zero_stack.cert_exp_plus == 0.0
        assert zero_stack.cert_exp_minus == 0.0
        assert zero_stack.cert_phi == 0.0

    def test_all_transforms_identity(self, zero_stack):
        g = zero_stack.grid
        w = h2_probe(g, 0, zero_stack.partition)
        lam = applied(zero_stack.lambda_, w)
        assert np.max(np.abs(lam.coeffs - sobolev_scale(w, 2.0).coeffs)) < 1e-12
        for which in ("upsilon", "upsilon_bar"):
            for inverse in (False, True):
                out = applied(getattr(zero_stack, which + ("_inv" if inverse else "")), w)
                assert np.array_equal(out.coeffs, w.coeffs)
        assert np.array_equal(applied(zero_stack.phi, w).coeffs, w.coeffs)
        theta = assemble_theta(zero_stack)
        assert np.array_equal(theta.forward(w).coeffs, w.coeffs)
        assert np.array_equal(theta.inverse(w).coeffs, w.coeffs)

    def test_stack_is_frozen(self, zero_stack):
        with pytest.raises(dataclasses.FrozenInstanceError):
            zero_stack.N = 1
        with pytest.raises(TypeError):
            zero_stack.cert_upsilon[0.0] = 1.0


def expanded_modified_potential(data, M, e_pv2w):
    """Z~^M with |grad W|^2 - |grad P>M W|^2 - grad V . grad P<=M W written
    out as 3d dealiased products: the reference for the factored form."""
    g = data.grid
    Wp = project_frequencies(data.W, M, "high")
    Wq = data.W - Wp
    inner = data.Z - data.W + laplacian(Wq)
    for c_full, c_high in zip(grad(data.W), grad(Wp)):
        inner = inner + pointwise_product(c_full, c_full) \
            - pointwise_product(c_high, c_high)
    for cv, cq in zip(grad(data.V), grad(Wq)):
        inner = inner - pointwise_product(cv, cq)
    return pointwise_product(e_pv2w, inner) + (e_pv2w - constant_field(g, 1.0))


@pytest.mark.parametrize("name", ["drift_stack", "anderson_stack"])
def test_modified_potential_matches_expanded_form(request, name):
    stack = request.getfixturevalue(name)
    data = stack.data
    for M in range(stack.partition.j_max + 1):
        e_pv2w = exp_field(project_frequencies(data.V, M, "high")
                           + 2.0 * project_frequencies(data.W, M, "high"))
        want = expanded_modified_potential(data, M, e_pv2w)
        got = modified_potential(data, M, e_pv2w)
        assert l2_norm(got - want) <= 1e-14 * l2_norm(want)
    assert np.array_equal(stack.Z_tilde_M.coeffs,
                          modified_potential(data, stack.M, stack.e_pv2w).coeffs)


def test_modified_potential_of_zero_data_is_zero(zero_stack):
    assert not np.any(zero_stack.Z_tilde_M.coeffs)
    g = zero_stack.grid
    for M in (0, 2):
        assert not np.any(modified_potential(zero_stack.data, M,
                                             constant_field(g, 1.0)).coeffs)


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
            lhs = applied(anderson_stack.lambda_, w)
            rhs = sobolev_scale(applied(anderson_stack.upsilon, w), 2.0)
            assert l2_norm(lhs - rhs) <= 1e-11 * max(1.0, l2_norm(lhs))

    def test_lambda_bar_equals_lap_upsilon_bar(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(20):
            w = h2_probe(g, seed, anderson_stack.partition)
            lhs = applied(anderson_stack.lambda_bar, w)
            rhs = sobolev_scale(applied(anderson_stack.upsilon_bar, w), 2.0)
            assert l2_norm(lhs - rhs) <= 1e-11 * max(1.0, l2_norm(lhs))

    def test_linearity(self, anderson_stack):
        g = anderson_stack.grid
        w1 = h2_probe(g, 1, anderson_stack.partition)
        w2 = h2_probe(g, 2, anderson_stack.partition)
        lam = anderson_stack.lambda_
        out = applied(lam, w1 + 2.0 * w2)
        ref = applied(lam, w1) + 2.0 * applied(lam, w2)
        assert l2_norm(out - ref) <= 1e-12 * max(1.0, l2_norm(ref))


class TestInverses:
    def test_upsilon_roundtrip(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(5):
            w = h2_probe(g, seed, anderson_stack.partition)
            back = applied(anderson_stack.upsilon,
                           applied(anderson_stack.upsilon_inv, w))
            assert l2_norm(back - w) <= 1e-10 * max(1.0, l2_norm(w))

    def test_phi_gamma_roundtrip(self, anderson_stack):
        g = anderson_stack.grid
        for seed in range(20):
            w = h2_probe(g, seed, anderson_stack.partition)
            back = applied(anderson_stack.phi, applied(anderson_stack.gamma, w))
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


def test_one_engine_pass_per_paraproduct_sum(drift_stack, monkeypatch):
    # K + R: the paraproducts of K in one pass and those of R in another,
    # the derivatives carried by the blocks, then the three products of
    # the drift term (by e^{P>M W}, rho_l, e^{P>M(V+W)}) on the product grid
    g = drift_stack.grid
    grids = []
    run = paraproducts._FixedSidePara._run

    def counted(self, plan, coeffs):
        grids.append({m for m, _ in plan[0]})
        return run(self, plan, coeffs)

    monkeypatch.setattr(paraproducts._FixedSidePara, "_run", counted)
    k_plus_r = subtract(identity_op(), drift_stack.phi)
    x = random_hermitian(g, np.random.default_rng(0))
    for fn in (k_plus_r.apply, k_plus_r.adjoint):
        grids.clear()
        fn(x)
        on_product_grid = [m == {product_size(g.n)} for m in grids]
        assert sorted(on_product_grid) == [False, False, True, True, True]


OPERATOR_FIELDS = ("lambda_", "lambda_bar", "upsilon", "upsilon_inv",
                   "upsilon_bar", "upsilon_bar_inv", "phi", "gamma", "theta",
                   "theta_inv")


@pytest.mark.parametrize("field", OPERATOR_FIELDS)
def test_stack_operator_adjoint(drift_stack, field):
    # <Tx, y> = <x, T*y> in the real l^2 product of Hermitian coefficients;
    # the Golub-Kahan-Lanczos norm behind every certificate runs T*
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


# ---------------------------------------------------------------------------
# operator_norm: Golub-Kahan-Lanczos against a dense SVD and against the
# power iteration it replaced

def power_norm(T, g, s_in=0.0, s_out=0.0, iters=30, restarts=2, seed=0,
               kmax=None):
    """Reference: the power iteration on B* B that operator_norm ran
    before, iters steps from each of restarts random starts."""
    B = compose(sobolev_op(g, s_out), T, sobolev_op(g, -s_in))
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max(1, restarts)):
        x = random_hermitian(g, rng, kmax=kmax)
        nx = coeff_norm(x)
        if nx == 0.0:
            continue
        x = x / nx
        lam = 0.0
        for _ in range(iters):
            y = B.apply(x)
            lam = np.vdot(y, y).real
            if lam == 0.0:
                break
            z = B.adjoint(y)
            nz = coeff_norm(z)
            if nz == 0.0:
                break
            x = z / nz
        best = max(best, np.sqrt(max(lam, 0.0)))
    return float(best)


def certified_operators(stack):
    """(name, T, s, seed) for every norm build_stack certifies: K + R in
    H^1 and K in each H^s, with their probe seeds."""
    k = subtract(identity_op(), stack.upsilon)
    k_plus_r = subtract(identity_op(), stack.phi)
    return [("K+R", k_plus_r, 1.0, stack.probe_seed + 1)] + [
        ("K", k, s, stack.probe_seed) for s in DEFAULT_SIGMAS]


def dense_singular_values(T, g, s):
    """Singular values of B = S_s T S_s^{-1} on the real fields of g."""
    B = compose(sobolev_op(g, s), T, sobolev_op(g, -s))
    return np.linalg.svd(dense_matrix(B.apply, g), compute_uv=False)


@pytest.mark.parametrize("which", [0, 1])
def test_operator_norm_against_dense_svd(drift_stack, which):
    # K + R at s = 1 has an isolated top singular value (the next one is
    # 7% lower); K at s = -2 has two within 2.4e-4 of each other.  On both
    # the settled estimate meets the largest to the settling tolerance; in
    # general a growth-based stop guarantees only a lower bound that grows
    # with the cap.
    g = drift_stack.grid
    name, T, s, seed = certified_operators(drift_stack)[which]
    if name == "K":
        s = -2.0
    sv = dense_singular_values(T, g, s)
    kmax = 2.0**drift_stack.partition.j_max
    values = [operator_norm(T, g, s, s, iters=cap, restarts=1, seed=seed,
                            kmax=kmax)
              for cap in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, g.n**g.d)]
    assert all(v <= sv[0] * (1 + 1e-12) for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] >= sv[0] * (1 - NORM_SETTLE_TOL)


@pytest.mark.parametrize("iters, restarts", [(8, 1), (30, 2)])
def test_operator_norm_not_below_power_iteration(drift_stack, iters, restarts):
    # the Krylov space of step k holds the k-th power iterate from the same
    # start, so at equal budget no certificate falls below the old value
    g = drift_stack.grid
    kmax = 2.0**drift_stack.partition.j_max
    for name, T, s, seed in certified_operators(drift_stack):
        args = dict(s_in=s, s_out=s, iters=iters, restarts=restarts,
                    seed=seed, kmax=kmax)
        gkl, ref = operator_norm(T, g, **args), power_norm(T, g, **args)
        assert gkl >= ref * (1 - 1e-12), (name, s, gkl, ref)


def counting(T):
    """T with a tally of its apply and adjoint calls."""
    calls = {"apply": 0, "adjoint": 0}

    def apply(x):
        calls["apply"] += 1
        return T.apply(x)

    def adjoint(y):
        calls["adjoint"] += 1
        return T.adjoint(y)

    return LinOp(apply, adjoint), calls


@pytest.mark.parametrize("iters, restarts", [(1, 1), (2, 1), (4, 1), (8, 1),
                                             (3, 2), (30, 2)])
def test_operator_norm_step_cap(drift_stack, iters, restarts):
    # drift_apply's set-up passes 8 x 1 and the study's d_res/d_fac 4 x 1:
    # none costs more applies than that many power steps did
    g = drift_stack.grid
    k = subtract(identity_op(), drift_stack.upsilon)
    T, calls = counting(k)
    operator_norm(T, g, -2.0, -2.0, iters=iters, restarts=restarts,
                  seed=drift_stack.probe_seed)
    assert 1 <= calls["apply"] <= iters * restarts
    assert calls["adjoint"] == calls["apply"] - 1


def test_operator_norm_rank_one_stops():
    g = grid(2, 32)
    rng = np.random.default_rng(3)
    a, b = random_hermitian(g, rng), random_hermitian(g, rng)
    rank_one = LinOp(lambda x: a * np.vdot(b, x).real,
                     lambda y: b * np.vdot(a, y).real)
    for s in (0.0, 1.0):
        T, calls = counting(rank_one)
        value = operator_norm(T, g, s, s, iters=30, restarts=2, seed=5)
        exact = coeff_norm(g.sobolev_symbol(s) * a) \
            * coeff_norm(g.sobolev_symbol(-s) * b)
        assert calls["apply"] <= 3
        assert abs(value - exact) <= 1e-12 * exact


def test_operator_norm_of_zero_is_exact():
    g = grid(2, 32)
    T, calls = counting(LinOp(lambda x: 0.0 * x, lambda y: 0.0 * y))
    assert operator_norm(T, g, 1.0, 1.0) == 0.0
    assert calls == {"apply": 1, "adjoint": 0}


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

    @pytest.mark.parametrize("stamp", ["r2c-1", "r2c-2", "r2c-3", "r2c-4", "r2c-5",
                                       "r2c-6", "r2c-7", "r2c-8"])
    def test_previous_stamp_refused(self, anderson_stack, tmp_path, stamp):
        # r2c-1 stacks certified the nested Phi, so their cert_phi means
        # another norm; r2c-2 stacks took their exponentials from complex
        # FFTs, r2c-3 stacks measured their norms by power iteration,
        # r2c-4 stacks ran their products on the doubled grid, r2c-5
        # stacks formed Z~^M from 3d products, r2c-6 stacks kept the
        # Nyquist planes, r2c-7 stacks multiplied the derivatives of K and
        # R outside the paraproduct passes, and r2c-8 stacks held full
        # Hermitian arrays in PCF1 files, so none re-verifies bit for bit
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
