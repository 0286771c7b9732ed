import numpy as np
import pytest

from paratorus import kpz
from paratorus.errors import ConfigurationError, SolverDivergenceError
from paratorus.kpz import (
    TRIAL_STEPS,
    KpzProblem,
    auto_lambda,
    check_smoothing,
    kpz_map,
    kpz_residual,
    nonlinearity,
    solve_kpz,
)
from paratorus.lp import BesovIndex, besov_norm, build_partition
from paratorus.noise import NoiseSpec, enhance_generic, mollify
from paratorus.lp import random_field_with_decay
from paratorus.torus import (
    field_from_coeffs,
    grad,
    grid,
    l2_norm,
    pointwise_product,
    sobolev_norm,
    to_spectral,
    zero_field,
)

from oracles import to_half


def grad_sq_and_cross(W, V):
    """|grad W|^2 and grad W . grad V, each as d separate dealiased products:
    the reference for the factored nonlinearity."""
    grad_sq = zero_field(W.grid)
    cross = zero_field(W.grid)
    for a, b in zip(grad(W), grad(V)):
        grad_sq = grad_sq + pointwise_product(a, a)
        cross = cross + pointwise_product(a, b)
    return grad_sq, cross


def manufactured_problem(g, lam=2.0, amplitude=0.5, seed=0):
    """Choose W* smooth, then xi := -(lam - Delta)W* + |grad W*|^2 - grad W*.grad V
    makes W* an exact fixed point."""
    rng = np.random.default_rng(seed)
    mesh = g.meshgrid()
    W_star = to_spectral(
        amplitude * (np.cos(2 * np.pi * mesh[0]) + 0.3 * np.sin(2 * np.pi * mesh[1])),
        g,
    )
    V = to_spectral(0.2 * np.cos(2 * np.pi * mesh[1]), g)
    lamW = field_from_coeffs(g, (lam + 4 * np.pi**2 * g.ksq) * W_star.coeffs)
    grad_sq, cross = grad_sq_and_cross(W_star, V)
    xi = -1.0 * lamW + grad_sq - cross
    return KpzProblem(xi, V, lam, tol=1e-11), W_star


def reference_solve(prob):
    """The Picard loop as kpz_map, then kpz_residual, at every step."""
    W = zero_field(prob.xi.grid)
    trace = []
    for it in range(1, prob.max_iter + 1):
        W = kpz_map(W, prob)
        trace.append((it, kpz_residual(W, prob)))
        if trace[-1][1] <= prob.tol:
            return W, it, trace
    raise AssertionError("reference Picard loop did not converge")


@pytest.fixture(scope="module")
def generic_data():
    g = grid(2, 32)
    return enhance_generic(NoiseSpec("generic_I", seed=1, amplitude=2.0), g, 2.0**-3)


class TestNonlinearity:
    def test_matches_two_product_form(self, generic_data):
        W, V = generic_data.W, generic_data.V
        assert l2_norm(V) > 0.0
        grad_sq, cross = grad_sq_and_cross(W, V)
        want = grad_sq - cross
        assert l2_norm(nonlinearity(W, V) - want) <= 1e-14 * l2_norm(want)

    def test_zero_V_sums_the_squares(self, generic_data):
        W = generic_data.W
        want, _ = grad_sq_and_cross(W, zero_field(W.grid))
        assert np.array_equal(nonlinearity(W, zero_field(W.grid)).coeffs, want.coeffs)

    def test_zero_W_exact(self, generic_data):
        out = nonlinearity(zero_field(generic_data.grid), generic_data.V)
        assert not np.any(out.coeffs)


class TestKpzMap:
    def test_zero_fixed_point(self):
        g = grid(2, 32)
        prob = KpzProblem(zero_field(g), zero_field(g), lam=1.0)
        out = kpz_map(zero_field(g), prob)
        assert l2_norm(out) == 0.0

    def test_manufactured_fixed_point(self):
        g = grid(2, 64)
        prob, W_star = manufactured_problem(g)
        assert kpz_residual(W_star, prob) <= 1e-11
        step = kpz_map(W_star, prob)
        assert sobolev_norm(step - W_star, 1.0) <= 1e-11

    def test_contraction_near_zero(self):
        g = grid(2, 64)
        rng = np.random.default_rng(1)
        mesh = g.meshgrid()
        V = to_spectral(0.1 * np.cos(2 * np.pi * mesh[1]), g)
        xi = 0.1 * random_field_with_decay(g, 1.5, rng)
        prob = KpzProblem(mollify(xi, 0.05), V, lam=2.0)
        for _ in range(5):
            W1 = 0.05 * random_field_with_decay(g, 2.0, rng)
            W2 = 0.05 * random_field_with_decay(g, 2.0, rng)
            num = sobolev_norm(kpz_map(W1, prob) - kpz_map(W2, prob), 1.0)
            den = sobolev_norm(W1 - W2, 1.0)
            assert num <= 0.9 * den

    def test_divergence_error(self):
        g = grid(2, 32)
        prob = KpzProblem(zero_field(g), zero_field(g), lam=1.0)
        huge = field_from_coeffs(g, to_half(1e9 * np.eye(g.n, dtype=complex)))
        with pytest.raises(SolverDivergenceError):
            kpz_map(huge, prob)


class TestSolve:
    def test_zero_data_one_iteration(self):
        g = grid(2, 32)
        result = solve_kpz(KpzProblem(zero_field(g), zero_field(g), lam=1.0))
        assert result.iterations == 1
        assert l2_norm(result.W) == 0.0

    def test_manufactured_recovery(self):
        g = grid(2, 64)
        prob, W_star = manufactured_problem(g)
        result = solve_kpz(prob)
        assert sobolev_norm(result.W - W_star, 1.0) <= 1e-8
        assert result.residual <= prob.tol

    def test_uniqueness_two_starts(self):
        g = grid(2, 64)
        prob, _ = manufactured_problem(g, seed=2)
        from_zero = solve_kpz(prob).W
        rng = np.random.default_rng(3)
        W0 = 0.01 * random_field_with_decay(g, 2.0, rng)
        W = W0
        for _ in range(200):
            W = kpz_map(W, prob)
            if kpz_residual(W, prob) <= prob.tol:
                break
        assert sobolev_norm(W - from_zero, 1.0) <= 1e-8

    def test_residual_reported_matches_independent_evaluation(self):
        g = grid(2, 64)
        prob, _ = manufactured_problem(g, seed=4)
        result = solve_kpz(prob)
        # independent re-evaluation of all terms
        lamW = field_from_coeffs(g, (prob.lam + 4 * np.pi**2 * g.ksq) * result.W.coeffs)
        grad_sq, cross = grad_sq_and_cross(result.W, prob.V)
        res = l2_norm(lamW - grad_sq + cross + prob.xi)
        assert abs(res - result.residual) <= 1e-13 * max(1.0, result.residual)

    @pytest.mark.parametrize("case", ["manufactured", "generic_I"])
    def test_one_nonlinearity_per_step(self, case, generic_data, monkeypatch):
        # the nonlinearity at W_k gives both W_k's residual and W_{k+1}:
        # the same iterates and residuals as kpz_map then kpz_residual, from
        # d products per step (and d at W_0) instead of 4d
        if case == "manufactured":
            prob, _ = manufactured_problem(grid(2, 64))
        else:
            prob = KpzProblem(generic_data.xi, generic_data.V, generic_data.lam)
        assert l2_norm(prob.V) > 0.0
        W_ref, iterations, trace = reference_solve(prob)
        calls = []
        product = kpz.pointwise_product

        def counted(f, h):
            calls.append(1)
            return product(f, h)

        monkeypatch.setattr(kpz, "pointwise_product", counted)
        result = solve_kpz(prob)
        assert result.iterations == iterations
        assert np.array_equal(result.W.coeffs, W_ref.coeffs)
        assert result.trace == trace
        assert result.residual == trace[-1][1]
        assert len(calls) == prob.xi.grid.d * (iterations + 1)

    def test_tolerance_monotone(self):
        g = grid(2, 64)
        prob_loose, _ = manufactured_problem(g, seed=5)
        prob_tight = KpzProblem(prob_loose.xi, prob_loose.V, prob_loose.lam, tol=1e-13,
                                max_iter=400)
        loose = solve_kpz(KpzProblem(prob_loose.xi, prob_loose.V, prob_loose.lam,
                                     tol=1e-8))
        tight = solve_kpz(prob_tight)
        assert tight.residual <= loose.residual

    def test_nonconvergence_suggests_larger_lambda(self):
        g = grid(2, 32)
        rng = np.random.default_rng(6)
        xi = 200.0 * random_field_with_decay(g, 1.0, rng)
        prob = KpzProblem(mollify(xi, 0.1), zero_field(g), lam=0.5, max_iter=50)
        with pytest.raises(SolverDivergenceError, match="larger relaxation"):
            solve_kpz(prob)


class TestAutoLambda:
    def test_zero_data_immediate(self):
        g = grid(2, 32)
        prob, result = auto_lambda(zero_field(g), zero_field(g))
        assert prob.lam == 1.0
        assert result.iterations == 1
        assert not np.any(result.W.coeffs)

    def test_assumption_I_data_completes(self):
        g = grid(2, 64)
        spec = NoiseSpec("generic_I", seed=7, amplitude=1.0)
        data = enhance_generic(spec, g, 2.0**-3)  # runs auto_lambda internally
        assert data.lam >= 1.0
        assert data.kpz_residual() <= 1e-8

    def test_amplitude_monotone(self):
        g = grid(2, 64)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            base = mollify(random_field_with_decay(g, -0.4, rng), 2.0**-3)
            lam_small = auto_lambda(0.5 * base, zero_field(g))[0].lam
            lam_big = auto_lambda(4.0 * base, zero_field(g))[0].lam
            assert lam_big >= lam_small


@pytest.mark.parametrize("seed, n", [(1, 128), (7, 128), (15, 32)])
def test_auto_lambda_returns_the_solve_from_zero(monkeypatch, seed, n):
    # enhance_generic's one call to auto_lambda: each lam it doubles past
    # is refused for want of contraction within TRIAL_STEPS steps, and the
    # lam it accepts ends (seeds 1, 7) or is refused (seed 15 at n = 32) as
    # the plain Picard loop from W = 0 there, with d (iterations + 1)
    # products, so that no step is taken twice
    solves, calls = [], []
    solve, product = kpz.solve_kpz, kpz.pointwise_product

    def recorded(prob):
        calls.clear()
        try:
            out = solve(prob)
        except SolverDivergenceError as exc:
            solves.append((prob, exc, len(calls)))
            raise
        solves.append((prob, out, len(calls)))
        return out

    monkeypatch.setattr(kpz, "solve_kpz", recorded)
    monkeypatch.setattr(kpz, "pointwise_product",
                        lambda f, h: calls.append(1) or product(f, h))
    g = grid(2, n)
    try:
        enhance_generic(NoiseSpec("generic_I", seed, amplitude=2.0), g, 2.0**-3)
    except SolverDivergenceError:
        pass
    *refused, (prob, out, products) = solves
    assert [p.lam for p, _, _ in solves] == [2.0**i for i in range(len(solves))]
    for _, exc, refused_products in refused:
        assert isinstance(exc, kpz._NoContraction)
        assert refused_products <= g.d * TRIAL_STEPS
    monkeypatch.undo()
    if seed == 15:
        assert type(out) is SolverDivergenceError
        assert products == g.d * (prob.max_iter + 1)
        with pytest.raises(AssertionError, match="did not converge"):
            reference_solve(prob)
        return
    W_ref, iterations, trace = reference_solve(prob)
    assert np.array_equal(out.W.coeffs, W_ref.coeffs)
    assert (out.iterations, out.trace) == (iterations, trace)
    assert products == g.d * (iterations + 1)


@pytest.fixture(scope="module")
def P():
    return build_partition(grid(2, 64))


class TestSmoothing:
    def test_single_mode_closed_form(self, P):
        # on a single mode the resolvent is the scalar (lam + 4 pi^2 |k|^2)^{-1},
        # so the ratio is lam^kappa/(lam + 4 pi^2 |k|^2) times the (fixed)
        # quotient of the two weighted block norms; decreasing in lam for kappa < 1
        g = P.grid
        kmag, kappa, beta, mu = 8, 0.5, 1.5, 2.0
        c = np.zeros(g.shape, complex)
        c[kmag, 0] = 0.5
        c[-kmag, 0] = 0.5
        f = field_from_coeffs(g, to_half(c))
        weights = besov_norm(f, BesovIndex(beta, mu, np.inf), P) / besov_norm(
            f, BesovIndex(beta - 2 + kappa, mu, np.inf), P
        )
        vals = []
        for lam in (1e3, 1e4, 1e5):
            rf = field_from_coeffs(g, f.coeffs / (lam + 4 * np.pi**2 * g.ksq))
            num = besov_norm(rf, BesovIndex(beta, mu, np.inf), P)
            den = lam**-kappa * besov_norm(f, BesovIndex(beta - 2 + kappa, mu, np.inf), P)
            vals.append(num / den)
            expected = weights * lam**kappa / (lam + 4 * np.pi**2 * kmag**2)
            assert num / den == pytest.approx(expected, rel=1e-10)
        assert vals[0] > vals[1] > vals[2]

    def test_slope_nonpositive(self, P):
        # in the regime where lam exceeds the top resolved block scale the
        # measured ratio decays in lam (below it the sharp two-parameter
        # smoothing makes the lam^{-kappa}-normalized ratio grow like
        # lam^{kappa/2}; see the notes on the smoothing display)
        rep = check_smoothing(P, [2e4, 8e4, 3.2e5], beta=1.5, kappa=0.5,
                              mu=2.0, trials=5, seed=8)
        assert rep.slope_vs_scale() <= 0.05

    def test_kappa_zero_multiplier_bound(self, P):
        # kappa = 0: plain resolvent ratio bounded by 1 for lam >= 1 at mu = 2
        rep = check_smoothing(P, [1.0, 4.0, 16.0], beta=1.5, kappa=0.0,
                              mu=2.0, trials=5, seed=9)
        assert rep.ratio_max <= 1.0 + 1e-12

    def test_kappa_bound(self, P):
        with pytest.raises(ConfigurationError):
            check_smoothing(P, [1.0], beta=0.5, kappa=0.5, mu=2.0, trials=1)


class TestAssumptionIIProxy:
    def test_holder_proxy_stable_across_resolutions(self):
        # proxy for the 3/2+delta regularity of the solution: the
        # B^{1.4}_{inf,inf} norm is finite and stable across n = 128, 256
        # for the same band-limited data (coarse draw embedded into the
        # finer grid)
        from paratorus.torus import resample_half

        g128 = grid(2, 128)
        spec = NoiseSpec("generic_II", seed=10, amplitude=0.5,
                         delta=0.5, delta_prime=0.25, delta_dprime=0.1)
        data = enhance_generic(spec, g128, 2.0**-4)
        norms = {}
        for n in (128, 256):
            g = grid(2, n)
            xi = field_from_coeffs(g, resample_half(data.xi.coeffs, 128, n))
            V = field_from_coeffs(g, resample_half(data.V.coeffs, 128, n))
            result = solve_kpz(KpzProblem(xi, V, data.lam, tol=1e-10))
            P = build_partition(g)
            norms[n] = besov_norm(result.W, BesovIndex(1.4, np.inf, np.inf), P)
        assert norms[128] > 0
        assert abs(norms[256] / norms[128] - 1.0) <= 0.2
