import dataclasses

import numpy as np
import pytest

from paratorus import operators
from paratorus.errors import EigenSolverError, ShiftTooSmallError
from paratorus.linops import (
    add,
    compose,
    mult_field_op,
    multiplier_op,
    random_hermitian,
)
from paratorus.lp import build_partition, random_field_with_decay
from paratorus.noise import (
    NoiseSpec,
    enhance_anderson2d,
    enhance_generic,
    zero_data,
)
from paratorus.operators import (
    AOperator,
    ResolventOperator,
    StudyConfig,
    apply_A_tilde,
    convergence_study,
    equivalence_constants,
    factorization_remainder,
    resolvent,
    select_shift,
    spectrum,
)
from paratorus.torus import (
    constant_field,
    div,
    field_from_coeffs,
    grad,
    grid,
    l2_norm,
    product_size,
    sobolev_norm,
    sobolev_scale,
    to_spectral,
)
from paratorus.transforms import build_stack, choose_cutoffs

from oracles import dense_matrix, to_full


@pytest.fixture(scope="module")
def anderson_stack():
    g = grid(2, 64)
    data = enhance_anderson2d(g, 2.0**-3, seed=5)
    return choose_cutoffs(data, build_partition(g), power_iters=12, restarts=1)


@pytest.fixture(scope="module")
def zero_stack():
    g = grid(2, 64)
    return choose_cutoffs(zero_data(g), build_partition(g), power_iters=4,
                          restarts=1)


def probe(g, seed, kmax=8.0, s=2.5):
    rng = np.random.default_rng(seed)
    return random_field_with_decay(g, s, rng, kmax=kmax)


class TestApplyA:
    def test_zero_data_is_one_minus_laplacian(self):
        g = grid(2, 32)
        u = probe(g, 0)
        out = AOperator(zero_data(g)).apply(u)
        assert np.max(np.abs(out.coeffs - sobolev_scale(u, 2.0).coeffs)) < 1e-13

    def test_divergence_free_drift_kills_constants(self):
        g = grid(2, 64)
        data = enhance_generic(NoiseSpec("generic_I", seed=3), g, 2.0**-3)
        u = constant_field(g, 1.0)
        out = AOperator(data).apply(u)
        # div(rho u) = u div rho = 0, so A u = u + (xi + c) u for constant u
        expected = u + data.xi
        assert l2_norm(out - expected) <= 1e-9 * max(1.0, l2_norm(out))

    def test_adjoint_probe_symmetric_case(self):
        g = grid(2, 64)
        data = enhance_anderson2d(g, 2.0**-3, seed=1)
        u, v = probe(g, 1), probe(g, 2)
        au = AOperator(data).apply(u)
        av = AOperator(data).apply(v)
        lhs = np.vdot(au.coeffs, v.coeffs).real
        rhs = np.vdot(u.coeffs, av.coeffs).real
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def deriv_op(g, axis):
    return multiplier_op(np.broadcast_to(g.deriv_symbols[axis], g.half_shape))


def term_by_term_A(data):
    """A composed one multiplication at a time, each product in its own
    transforms, with the drift term in divergence form: the reference for
    AOperator's one-pass sum of products in drift form."""
    g = data.grid
    potential = data.xi + constant_field(g, data.c_eps)
    gv = grad(data.V)
    return add(
        multiplier_op(g.sobolev_symbol(2.0)),
        mult_field_op(g, potential.coeffs),
        *[compose(mult_field_op(g, gv[l].coeffs), deriv_op(g, l)) for l in range(g.d)],
        *[compose(deriv_op(g, l), mult_field_op(g, data.rho[l].coeffs))
          for l in range(g.d)],
    )


@pytest.fixture(scope="module")
def drift_data():
    data = enhance_generic(NoiseSpec("generic_I", seed=1, amplitude=2.0), grid(2, 32),
                           2.0**-3)
    assert not data.is_symmetric() and l2_norm(data.V) > 0.0
    return data


@pytest.fixture(scope="module")
def compressible_drift_data(drift_data):
    # A keeps div rho in its potential, so the drift form does not rest on
    # rho being divergence-free
    g = drift_data.grid
    rng = np.random.default_rng(3)
    rho = tuple(field_from_coeffs(g, random_hermitian(g, rng, kmax=8.0))
                for _ in range(g.d))
    assert l2_norm(div(list(rho))) > 1.0
    return dataclasses.replace(drift_data, rho=rho)


@pytest.fixture(scope="module")
def anderson_data():
    return enhance_anderson2d(grid(2, 64), 2.0**-3, seed=5)


def full_band_probes(g, count):
    """Random real fields on every kept mode |k_i| <= n/2 - 1."""
    rng = np.random.default_rng(11)
    probes = [random_hermitian(g, rng) for _ in range(count)]
    assert all(np.count_nonzero(to_full(x, g)) == (g.n - 1) ** g.d for x in probes)
    return probes


def test_anderson_operator_is_symmetric():
    # <x, A y> = <A x, y> to round-off: PCG and the symmetric spectrum
    # rely on it (it was off by 2e-6 relative while the Nyquist planes
    # were carried with split and fold weights)
    data = enhance_anderson2d(grid(2, 64), 2.0**-3, 1)
    assert AOperator(data).l2_symmetric
    op = AOperator(data).op
    rng = np.random.default_rng(0)
    x, y = random_hermitian(data.grid, rng), random_hermitian(data.grid, rng)
    lhs, rhs = np.vdot(x, op.apply(y)).real, np.vdot(op.apply(x), y).real
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


class TestFusedA:
    @pytest.mark.parametrize("name", ["drift_data", "compressible_drift_data",
                                      "anderson_data"])
    def test_matches_term_by_term_reference(self, request, name):
        data = request.getfixturevalue(name)
        g = data.grid
        op, ref = AOperator(data).op, term_by_term_A(data)
        lap1 = g.sobolev_symbol(2.0)
        x, y = full_band_probes(g, 2)
        for got, want in ((op.apply(x), ref.apply(x)), (op.adjoint(x), ref.adjoint(x))):
            # the lower-order part alone, so that (1 - Delta) x does not
            # dominate the scale
            assert (np.linalg.norm(got - want)
                    <= 1e-14 * np.linalg.norm(want - lap1 * x))
        lhs, rhs = np.vdot(op.apply(x), y).real, np.vdot(x, op.adjoint(y)).real
        assert abs(lhs - rhs) <= 1e-14 * (np.linalg.norm(op.apply(x)) * np.linalg.norm(y))

    @pytest.mark.parametrize("c, V", [(0.0, 0.0), (2.5, 0.0), (-1.25, 0.7)])
    def test_constant_potential_is_exact(self, monkeypatch, c, V):
        g = grid(2, 32)
        data = dataclasses.replace(zero_data(g), c_eps=c, V=constant_field(g, V))
        x = full_band_probes(g, 1)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("FFT called")

        for name in ("rfftn", "irfftn", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        op = AOperator(data).op
        want = g.sobolev_symbol(2.0) * x + c * x
        np.testing.assert_array_equal(op.apply(x), want)
        np.testing.assert_array_equal(op.adjoint(x), want)

    @pytest.mark.parametrize("which", ["apply", "adjoint"])
    def test_transform_budget(self, monkeypatch, drift_data, which):
        # drift form, q x + sum_l b_l d_l x: the inverse transforms of x,
        # d_1 x, d_2 x and the forward one of the sum (the adjoint: one
        # inverse, three forward), all on the product grid
        g = drift_data.grid
        op = AOperator(drift_data).op
        x = full_band_probes(g, 1)[0]
        shapes = []

        def counted(fn, of_output):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                shapes.append((out if of_output else a).shape)
                return out
            return wrapper

        monkeypatch.setattr(np.fft, "irfftn", counted(np.fft.irfftn, True))
        monkeypatch.setattr(np.fft, "rfftn", counted(np.fft.rfftn, False))
        getattr(op, which)(x)
        assert len(shapes) == 4
        assert set(shapes) == {(product_size(g.n),) * g.d}


class TestATilde:
    def test_zero_data(self, zero_stack):
        g = zero_stack.grid
        u = probe(g, 3)
        out, disc = apply_A_tilde(u, zero_stack)
        assert disc <= 1e-11
        assert np.max(np.abs(out.coeffs - sobolev_scale(u, 2.0).coeffs)) < 1e-12

    def test_smooth_manufactured_two_way(self):
        g = grid(2, 128)
        data = enhance_generic(
            NoiseSpec("smooth_manufactured", seed=0, amplitude=0.4), g, 2.0**-4
        )
        stack = choose_cutoffs(data, build_partition(g), power_iters=6,
                               restarts=1)
        u = probe(g, 4, kmax=16.0)
        _, disc = apply_A_tilde(u, stack)
        assert disc <= 1e-8

    def test_anderson_two_way(self, anderson_stack):
        u = probe(anderson_stack.grid, 5)
        _, disc = apply_A_tilde(u, anderson_stack)
        assert disc <= 1e-7


class TestFactorization:
    def test_zero_data_degenerate(self, zero_stack):
        rep = factorization_remainder(zero_stack, trials=10, power_iters=6)
        assert rep.norm_h2_l2 <= 1e-12
        assert rep.c_lo == pytest.approx(1.0, abs=1e-12)
        assert rep.c_hi == pytest.approx(1.0, abs=1e-12)

    def test_anderson_lower_order_bounded(self, anderson_stack):
        rep = factorization_remainder(anderson_stack, trials=10, power_iters=8)
        assert rep.norm_h2_l2 > 0
        assert rep.norm_h2_hdelta <= 10.0 * max(rep.norm_h2_l2, 1e-12)
        assert rep.c_lo > 0
        assert rep.residual_factorization <= 1e-11
        assert rep.residual_theta_roundtrip <= 1e-9


class TestResolvent:
    def test_zero_data_multiplier_solve(self):
        g = grid(2, 32)
        f = probe(g, 6)
        u = resolvent(f, zero_data(g), lam0=10.0)
        expected = field_from_coeffs(
            g, f.coeffs / (10.0 + g.sobolev_symbol(2.0)))
        assert l2_norm(u - expected) <= 1e-10 * l2_norm(expected)

    def test_residual_certified(self):
        g = grid(2, 64)
        data = enhance_anderson2d(g, 2.0**-3, seed=2)
        f = probe(g, 7)
        rop = ResolventOperator(data, 10.0)
        res = rop.solve(f)
        assert res.residual <= 1e-10

    def test_resolvent_then_apply_is_identity(self):
        g = grid(2, 64)
        data = enhance_anderson2d(g, 2.0**-3, seed=2)
        shifted = AOperator(data)
        for seed in range(10):
            f = probe(g, 100 + seed)
            u = resolvent(f, data, lam0=10.0)
            back = shifted.apply(u) + 10.0 * u
            assert l2_norm(back - f) <= 1e-9 * max(1.0, l2_norm(f))

    def test_nonsymmetric_residual_checked_independently(self):
        # drift data runs BiCGStab; the residual is recomputed from the
        # returned field with AOperator.apply, as the benchmark checks it
        g = grid(2, 32)
        data = enhance_generic(NoiseSpec("generic_I", seed=1, amplitude=2.0),
                               g, 2.0**-3)
        lam0 = select_shift([data], 1e-10, seed=1)
        rop = ResolventOperator(data, lam0, tol=1e-10)
        assert not rop.symmetric
        a_op = AOperator(data)
        rng = np.random.default_rng(5)
        for _ in range(4):
            f = random_field_with_decay(g, 1.0, rng, kmax=8.0)
            res = rop.solve(f)
            r = a_op.apply(res.u).coeffs + lam0 * res.u.coeffs - f.coeffs
            rel = np.linalg.norm(r) / np.linalg.norm(f.coeffs)
            assert rel <= 1e-10
            assert abs(res.residual - rel) <= 1e-3 * rel

    def test_solve_restarts_on_the_true_residual(self, monkeypatch):
        g = grid(2, 32)
        data = enhance_anderson2d(g, 2.0**-3, seed=2)
        f = probe(g, 7)
        rop = ResolventOperator(data, 10.0)
        calls = []
        exact_pcg = operators._pcg

        def early_pcg(apply_s, precond, b, tol, max_iter):
            calls.append(tol)
            return exact_pcg(apply_s, precond, b, 1e4 * tol, max_iter)

        monkeypatch.setattr(operators, "_pcg", early_pcg)
        res = rop.solve(f)
        back = AOperator(data).apply(res.u) + 10.0 * res.u
        assert len(calls) > 1
        assert l2_norm(back - f) <= 1e-10 * l2_norm(f)
        assert res.residual <= 1e-10

        monkeypatch.setattr(operators, "_pcg",
                            lambda apply_s, precond, b, tol, max_iter:
                            (np.zeros_like(b), 0.0, 1))
        with pytest.raises(ShiftTooSmallError, match="true relative residual"):
            rop.solve(f)

    def test_shift_too_small(self):
        g = grid(2, 32)
        data = zero_data(g)
        f = probe(g, 8)
        with pytest.raises(ShiftTooSmallError):
            resolvent(f, data, lam0=-50.0)


class TestSpectrum:
    def test_zero_data_exact(self):
        g = grid(2, 32)
        eigs = spectrum(zero_data(g), lam0=10.0, k_eigs=5, seed=0)
        expected = [1.0] + [1.0 + 4 * np.pi**2] * 4
        assert np.allclose(eigs, expected, atol=1e-6)

    def test_dense_oracle_small_grid(self):
        # smooth potential, eigenvalues vs dense diagonalization at n = 16
        g = grid(2, 16)
        mesh = g.meshgrid()
        pot = to_spectral(0.3 * np.cos(2 * np.pi * mesh[0]), g)
        data = dataclasses.replace(zero_data(g), xi=pot)
        dense = dense_matrix(AOperator(data).op.apply, g)
        dense = 0.5 * (dense + dense.T)
        exact = np.sort(np.linalg.eigvalsh(dense))[:4]
        eigs = spectrum(data, lam0=10.0, k_eigs=4, seed=1, tol=1e-9)
        assert np.max(np.abs(eigs - exact)) <= 1e-8

    def test_eigenvalues_real_symmetric_case(self):
        g = grid(2, 32)
        data = enhance_anderson2d(g, 2.0**-3, seed=3)
        eigs = spectrum(data, lam0=10.0, k_eigs=3, seed=2)
        assert np.all(np.isreal(eigs))

    def test_nonsymmetric_warns(self):
        g = grid(2, 64)
        data = enhance_generic(NoiseSpec("generic_I", seed=4, amplitude=0.3),
                               g, 2.0**-3)
        with pytest.warns(RuntimeWarning, match="symmetrized"):
            spectrum(data, lam0=40.0, k_eigs=2, seed=3, max_sweeps=30)


class TestBlockKrylovSpectrum:
    def test_restarted_basis_matches_dense_oracle(self, monkeypatch):
        g = grid(2, 16)
        rng = np.random.default_rng(11)
        pot = random_field_with_decay(g, 2.0, rng, kmax=4.0)
        data = dataclasses.replace(zero_data(g), xi=pot * (3.0 / l2_norm(pot)))
        dense = dense_matrix(AOperator(data).op.apply, g)
        exact = np.sort(np.linalg.eigvalsh(0.5 * (dense + dense.T)))[:5]
        solves = []
        original = ResolventOperator.solve_coeffs
        monkeypatch.setattr(ResolventOperator, "solve_coeffs",
                            lambda self, b: solves.append(1) or original(self, b))
        eigs = spectrum(data, lam0=10.0, k_eigs=5, seed=4, tol=1e-9, buffer=1)
        # more block steps than the basis holds: it was restarted
        assert len(solves) > operators._BASIS_BLOCKS * (5 + 1)
        assert np.max(np.abs(eigs - exact)) <= 1e-8

    def test_restart_converges_at_tight_tolerance(self):
        # the computed resolvent is symmetric only to its solves' tolerance;
        # restarting from the symmetrized Ritz vectors instead of an
        # invariant subspace ran out of these 20 block steps (13 suffice)
        data = enhance_anderson2d(grid(2, 64), 2.0**-3, seed=2)
        eigs = spectrum(data, lam0=10.0, k_eigs=5, seed=0, tol=1e-7, max_sweeps=20)
        assert len(eigs) == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_no_residual_floor_at_tight_tolerances(self, seed):
        # checking the Ritz vectors themselves on A hit a residual floor
        # from the inexact solves: 8 of these 16 cases ran out of 80 block
        # steps.  Checked after one more solve, all converge to one lambda_1
        data = enhance_anderson2d(grid(2, 64), 2.0**-3, seed=seed)
        lam1 = [spectrum(data, lam0=10.0, k_eigs=5, seed=0, tol=tol, max_sweeps=80)[0]
                for tol in (1e-7, 5e-8, 2e-8, 1e-8)]
        assert np.ptp(lam1) <= 1e-7 * lam1[0]

    def test_max_sweeps_exhausted(self):
        g = grid(2, 32)
        data = enhance_anderson2d(g, 2.0**-3, seed=3)
        with pytest.raises(EigenSolverError, match="1 block steps"):
            spectrum(data, lam0=10.0, k_eigs=3, seed=2, max_sweeps=1)

    def test_study_control_is_the_shifted_eigenvalue(self):
        cfg = StudyConfig(
            n=32, eps_list=(2.0**-3, 2.0**-4), seed=2, k_eigs=2,
            power_iters_res=2, power_iters_fac=2, power_iters_cert=4,
            equivalence_trials=2,
        )
        result = convergence_study(cfg)
        for row, eps in zip(result.rows, cfg.eps_list):
            data = enhance_anderson2d(grid(2, 32), eps, cfg.seed)
            assert data.c_eps > 0.0
            control = spectrum(data.without_renormalization(), result.lam0, 1,
                               seed=cfg.seed * 13 + 3, tol=cfg.eig_tol)
            assert row["lambda1_control"] == pytest.approx(control[0], abs=1e-9)

    def test_nonsymmetric_matches_dense_symmetrized_resolvent(self):
        g = grid(2, 16)
        x, y = g.meshgrid()
        psi = to_spectral(0.4 * np.sin(2 * np.pi * (x + 2 * y))
                          + 0.3 * np.cos(2 * np.pi * (3 * x - y)), g)
        dpsi = grad(psi)
        data = dataclasses.replace(zero_data(g), rho=(dpsi[1], -1.0 * dpsi[0]))
        assert not data.is_symmetric()
        lam0 = 10.0
        dense = dense_matrix(AOperator(data).op.apply, g)
        resolvent_dense = np.linalg.inv(lam0 * np.eye(len(dense)) + dense)
        mu = np.linalg.eigvalsh(0.5 * (resolvent_dense + resolvent_dense.T))
        exact = np.sort(1.0 / mu[::-1][:3] - lam0)
        with pytest.warns(RuntimeWarning, match="symmetrized"):
            eigs = spectrum(data, lam0=lam0, k_eigs=3, seed=5)
        assert np.all(np.abs(eigs - exact) <= 1e-5 * (lam0 + exact))


class TestEquivalence:
    def test_zero_data_equals_one(self, zero_stack):
        c_lo, c_hi = equivalence_constants(zero_stack, trials=10)
        assert c_lo == pytest.approx(1.0, abs=1e-12)
        assert c_hi == pytest.approx(1.0, abs=1e-12)

    def test_anderson_positive_floor(self, anderson_stack):
        c_lo, c_hi = equivalence_constants(anderson_stack, trials=20)
        assert c_lo > 0
        assert c_hi >= c_lo


class TestEq17StyleBound:
    def test_drift_term_h_minus_proxy_stable(self):
        # |e^{P>M(V+W)} div(rho e^{P>M W} v)| in the H^{-1+delta} proxy norm
        # is controlled by |v|_{H^1}, stably across resolutions
        ratios = {}
        for n in (64, 128):
            g = grid(2, n)
            data = enhance_generic(NoiseSpec("generic_I", seed=6), g, 2.0**-3)
            stack = choose_cutoffs(data, build_partition(g), power_iters=6,
                                   restarts=1)
            from paratorus.torus import div, pointwise_product
            worst = 0.0
            for seed in range(8):
                v = probe(g, 200 + seed, kmax=2.0**stack.partition.j_max)
                inner = pointwise_product(stack.e_pw, v)
                carried = [pointwise_product(r, inner) for r in data.rho]
                term = pointwise_product(stack.e_pwv, div(carried))
                worst = max(worst,
                            sobolev_norm(term, -1.0 + 0.6) / sobolev_norm(v, 1.0))
            ratios[n] = worst
        assert ratios[128] <= 1.5 * ratios[64]


class TestStudySmall:
    def test_zero_gaps_on_smooth_fixed_data(self):
        # degenerate sanity check: with a schedule acting on already-smooth
        # manufactured data the differences collapse toward zero
        cfg = StudyConfig(
            n=32, eps_list=(2.0**-2, 2.0**-3), seed=1, kind="smooth_manufactured",
            noise=NoiseSpec("smooth_manufactured", seed=1, amplitude=0.0),
            k_eigs=2, power_iters_res=4, power_iters_fac=4,
            power_iters_cert=4, equivalence_trials=4,
        )
        result = convergence_study(cfg)
        assert result.pairs[0]["d_res"] <= 1e-9
        assert result.pairs[0]["d_fac"] <= 1e-9
        assert result.rows[0]["c_lo"] == pytest.approx(1.0, abs=1e-10)

    def test_anderson_small_study_runs(self):
        cfg = StudyConfig(
            n=64, eps_list=(2.0**-3, 2.0**-4, 2.0**-5), seed=7,
            k_eigs=3, power_iters_res=4, power_iters_fac=4,
            power_iters_cert=8, equivalence_trials=4,
        )
        result = convergence_study(cfg)
        assert len(result.rows) == 3
        assert len(result.pairs) == 2
        assert all(p["d_res"] > 0 for p in result.pairs)
        assert result.rows[0]["c_eps"] < result.rows[-1]["c_eps"]
        # renormalization control: dropping c shifts the bottom eigenvalue
        row = result.rows[-1]
        assert row["lambda1_control"] < row["eigs"][0]
        # the summaries, recomputed from the rows: each eigenvalue moves
        # less at the second halving of eps than at the first (3 of 3), and
        # lambda_1 without c moves 4.4 times as far as with it
        eigs = [row["eigs"] for row in result.rows]
        moves = [[abs(b - a) for a, b in zip(e0, e1)] for e0, e1 in zip(eigs, eigs[1:])]
        shrunk = [b < a for a, b in zip(*moves)]
        assert result.eigenvalue_gap_shrink_fraction() == sum(shrunk) / len(shrunk) == 1.0
        control = [row["lambda1_control"] for row in result.rows]
        ratio = abs(control[-1] - control[0]) / abs(eigs[-1][0] - eigs[0][0])
        assert result.control_drift_ratio() == pytest.approx(ratio, rel=1e-15)
        assert ratio > 1.0
