"""The benchmark's three workloads: set-up, one timed operation, its checks.

Every workload derives all of its inputs from the benchmark seed; paratorus
only sees the generated inputs.  Each operation is checked on its own and
counted in an `Outcomes`: a named refusal (`ParatorusError`) or a failed
check is a failed operation, labelled with `errors.exit_code_for`, and
never ends the run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Layer functions are called through their modules, so that the traced
# run's patches of those modules apply to these calls too.
from paratorus import lp, noise, operators, transforms
from paratorus.errors import ParatorusError, exit_code_for
from paratorus.torus import Grid, grid

RESIDUAL_BOUND = 1e-10
ROUND_TRIP_BOUND = 1e-9

# Eigenvalues of the full-size anderson_study rows, per seed, recorded when
# the benchmark was introduced.
with open(Path(__file__).with_name("reference_eigs.json")) as _fh:
    REFERENCE_EIGS = {int(k): v for k, v in json.load(_fh)["eigs"].items()}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; SMOKE is the n=32 configuration the benchmark's own
    tests run."""

    study_n: int = 64
    study_eps: tuple = (2.0**-3, 2.0**-4, 2.0**-5)
    drift_n: int = 128
    drift_eps: float = 2.0**-3
    traced_probes: int = 4


FULL = Sizes()
SMOKE = Sizes(study_n=32, study_eps=(2.0**-2, 2.0**-3), drift_n=32, traced_probes=2)


class Outcomes:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[dict] = []

    def run(self, label: str, fn, check=None):
        """Run one operation; `check(result)` returns a problem or None.
        Returns the result, or None when the operation raised."""
        self.attempted += 1
        try:
            result = fn()
        except ParatorusError as exc:
            self.failed += 1
            self.failures.append({"op": label, "error": type(exc).__name__,
                                  "exit_code": exit_code_for(exc),
                                  "message": str(exc)[:300]})
            return None
        except Exception as exc:  # a defect, not a refusal: report, go on
            self.failed += 1
            self.incorrect += 1
            self.failures.append({"op": label, "error": type(exc).__name__,
                                  "exit_code": exit_code_for(exc),
                                  "message": traceback.format_exc()[-1500:]})
            return None
        problem = check(result) if check is not None else None
        if problem:
            self.failed += 1
            self.incorrect += 1
            self.failures.append({"op": label, "error": "check",
                                  "exit_code": None, "message": problem})
        return result


def digest(*arrays) -> str:
    """Hash of the exact bits of the given values."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()[:16]


def cheap_setup(n: int) -> lp.DyadicPartition:
    """Fresh grid and partition (bypassing the grid cache): the part of
    set-up every workload repeats to report a median."""
    return lp.build_partition(Grid(2, n))


def drift_datasets(seed: int, sizes: Sizes, count: int, outcomes: Outcomes) -> list:
    """generic_I data (amplitude 2) for seeds seed + 1000 j, j = 0, 1, ...,
    until `count` draws are accepted or 2 count were made.  Each refused
    draw is a failed operation; drawing on keeps the work (and memory) of
    a run the same whether or not a draw is refused."""
    out = []
    for j in range(2 * count):
        if len(out) == count:
            break
        spec = noise.NoiseSpec("generic_I", seed=seed + 1000 * j, amplitude=2.0)
        data = outcomes.run("enhance", lambda: noise.enhance_generic(
            spec, grid(2, sizes.drift_n), sizes.drift_eps))
        if data is not None:
            out.append(data)
    return out


class AndersonStudy:
    """The paper's mollification-removal study of the 2d Anderson operator.

    Operation i studies the noise drawn with seed `seed + 1000 i`, so a run
    averages over several draws; operation 0 uses the benchmark seed."""

    name = "anderson_study"

    def __init__(self, seed: int, sizes: Sizes, tmp_root):
        self.seed = seed
        self.sizes = sizes
        self.stage_seconds: dict = {}

    def config(self, i: int):
        return operators.StudyConfig(
            n=self.sizes.study_n, eps_list=self.sizes.study_eps, k_eigs=3,
            power_iters_res=4, power_iters_fac=4, power_iters_cert=8,
            equivalence_trials=4, seed=self.seed + 1000 * i,
        )

    def setup(self, outcomes: Outcomes) -> bool:
        return True  # each study builds its own data

    def op(self, i: int, outcomes: Outcomes):
        cfg = self.config(i)
        tic = perf_counter()
        result = outcomes.run("study", lambda: operators.convergence_study(cfg),
                              lambda r: self.check(cfg, r))
        t = perf_counter() - tic
        if result is None:
            return {"study_s": t}, None
        self.stage_seconds = dict(result.stage_seconds)
        values = []
        for row in result.rows:
            values += list(row["eigs"]) + [row["lambda1_control"], row["c_lo"], row["c_hi"]]
        for pair in result.pairs:
            values += [pair["d_res"], pair["d_fac"]]
        return {"study_s": t}, digest(np.array(values, float))

    def check(self, cfg, result) -> str | None:
        if len(result.rows) != len(cfg.eps_list) or len(result.pairs) != len(cfg.eps_list) - 1:
            return f"study has {len(result.rows)} rows and {len(result.pairs)} pairs"
        if not all(p["d_res"] > 0 for p in result.pairs):
            return "a resolvent difference is not positive"
        c_eps = [row["c_eps"] for row in result.rows]
        if not all(a < b for a, b in zip(c_eps, c_eps[1:])):
            return f"renormalization constants do not increase: {c_eps}"
        for row in result.rows:
            if not row["lambda1_control"] < row["eigs"][0]:
                return (f"control eigenvalue {row['lambda1_control']} is not below "
                        f"the renormalized one {row['eigs'][0]} at eps={row['eps']:g}")
        reference = REFERENCE_EIGS.get(cfg.seed) if self.sizes == FULL else None
        if reference is not None:
            got = np.array([row["eigs"] for row in result.rows])
            ref = np.array(reference)
            # subspace iteration stops at residual eig_tol * |phi|, which
            # bounds each eigenvalue's error by eig_tol (symmetric case)
            tol = 10.0 * cfg.eig_tol * np.maximum(1.0, np.abs(ref))
            if got.shape != ref.shape or np.any(np.abs(got - ref) > tol):
                return f"eigenvalues {got.tolist()} differ from reference {ref.tolist()}"
        return None


class DriftCertify:
    """Certify a stack for rough drift data, then persist and re-verify it.
    Every operation certifies the one data set drawn in set-up."""

    name = "drift_certify"

    def __init__(self, seed: int, sizes: Sizes, tmp_root):
        self.seed = seed
        self.sizes = sizes
        self.tmp_root = tmp_root

    def setup(self, outcomes: Outcomes) -> bool:
        tic = perf_counter()
        datasets = drift_datasets(self.seed, self.sizes, 1, outcomes)
        self.enhance_s = perf_counter() - tic
        self.data = datasets[0] if datasets else None
        self.partition = lp.build_partition(grid(2, self.sizes.drift_n))
        return self.data is not None

    def op(self, i: int, outcomes: Outcomes):
        data = self.data
        tic = perf_counter()
        stack = outcomes.run("certify", lambda: transforms.choose_cutoffs(data,
                                                                 self.partition),
                             check_certificates)
        certify_s = perf_counter() - tic
        if stack is None:
            return {"certify_s": certify_s}, None
        directory = tempfile.mkdtemp(prefix="stack-", dir=self.tmp_root)
        try:
            tic = perf_counter()
            table = outcomes.run("verify", lambda: self.save_and_verify(stack, directory),
                                 lambda table: check_verified(stack, table))
            verify_s = perf_counter() - tic
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        verified = [table["recomputed"][k] for k in sorted(table["recomputed"])] if table else []
        return ({"certify_s": certify_s, "verify_s": verify_s},
                digest(certificate_values(stack), verified))

    @staticmethod
    def save_and_verify(stack, directory):
        transforms.save_stack(stack, directory)
        return transforms.verify_stack(directory)


def certificate_values(stack) -> np.ndarray:
    return np.array([stack.M, stack.N, stack.cert_exp_plus, stack.cert_exp_minus,
                     stack.cert_phi] + [stack.cert_upsilon[s] for s in stack.sigma_list])


def check_certificates(stack) -> str | None:
    exp_bound = transforms.EXP_SMALLNESS
    op_bound = transforms.OPERATOR_SMALLNESS
    if stack.cert_exp_plus > exp_bound or stack.cert_exp_minus > exp_bound:
        return (f"exponential certificates ({stack.cert_exp_plus:.3g}, "
                f"{stack.cert_exp_minus:.3g}) exceed {exp_bound}")
    if stack.cert_phi > op_bound:
        return f"cert_phi {stack.cert_phi:.3g} exceeds {op_bound}"
    worst = max(stack.cert_upsilon.values())
    if worst > op_bound:
        return f"cert_upsilon {worst:.3g} exceeds {op_bound}"
    return None


def check_verified(stack, table) -> str | None:
    stored, recomputed = table["stored"], table["recomputed"]
    mine = {"cert_exp": stack.cert_exp_plus, "cert_exp_minus": stack.cert_exp_minus,
            "cert_phi": stack.cert_phi}
    mine.update({f"cert_ups_{s:g}": stack.cert_upsilon[s] for s in stack.sigma_list})
    if stored != mine or recomputed != mine:
        return "verified certificates differ from the certified stack"
    if (table["M"], table["N"]) != (stack.M, stack.N):
        return "verified cutoffs differ from the certified stack"
    return check_certificates(stack)


class DriftApply:
    """Apply the cached operators of certified drift stacks many times:
    per probe, a resolvent solve, then Theta forward and Theta inverse.

    Set-up certifies `datasets` data sets (see drift_datasets); probe i
    uses data set i mod their number, so a run averages over draws."""

    name = "drift_apply"
    datasets = 3

    def __init__(self, seed: int, sizes: Sizes, tmp_root):
        self.seed = seed
        self.sizes = sizes

    def setup(self, outcomes: Outcomes) -> bool:
        tic = perf_counter()
        datasets = drift_datasets(self.seed, self.sizes, self.datasets, outcomes)
        self.enhance_s = perf_counter() - tic
        self.operators = []
        for data in datasets:
            P = lp.build_partition(data.grid)
            stack = outcomes.run("certify", lambda: transforms.choose_cutoffs(
                                     data, P, power_iters=8, restarts=1),
                                 check_certificates)
            lam0 = stack and outcomes.run("shift", lambda: operators.select_shift(
                                              [data], RESIDUAL_BOUND, data.seed))
            if lam0:
                self.operators.append(AppliedStack(
                    data.grid, 2.0**P.j_max, lam0,
                    operators.ResolventOperator(data, lam0, tol=RESIDUAL_BOUND),
                    operators.AOperator(data), transforms.assemble_theta(stack)))
        return bool(self.operators)

    def op(self, i: int, outcomes: Outcomes):
        ops = self.operators[i % len(self.operators)]
        rng = np.random.default_rng((self.seed, i))
        f = lp.random_field_with_decay(ops.grid, 1.0, rng, kmax=ops.kmax)
        tic = perf_counter()
        solved = outcomes.run("solve", lambda: ops.resolvent.solve(f),
                              lambda r: ops.check_residual(f, r.u))
        solve_ms = 1e3 * (perf_counter() - tic)
        tic = perf_counter()
        back = outcomes.run("theta", lambda: ops.theta.inverse(ops.theta.forward(f)),
                            lambda v: check_round_trip(f, v))
        theta_ms = 1e3 * (perf_counter() - tic)
        return ({"solve_ms": solve_ms, "theta_ms": theta_ms},
                digest(solved.u.coeffs if solved else [], back.coeffs if back else []))


@dataclass(frozen=True)
class AppliedStack:
    """The operators drift_apply applies for one data set."""

    grid: Grid
    kmax: float
    lam0: float
    resolvent: object
    a_op: object
    theta: object

    def check_residual(self, f, u) -> str | None:
        r = self.a_op.apply(u).coeffs + self.lam0 * u.coeffs - f.coeffs
        rel = np.linalg.norm(r) / np.linalg.norm(f.coeffs)
        if not rel <= RESIDUAL_BOUND:
            return f"resolvent residual {rel:.3e} exceeds {RESIDUAL_BOUND:.0e}"
        return None


def check_round_trip(f, v) -> str | None:
    rel = np.linalg.norm(v.coeffs - f.coeffs) / np.linalg.norm(f.coeffs)
    if not rel <= ROUND_TRIP_BOUND:
        return f"Theta round trip error {rel:.3e} exceeds {ROUND_TRIP_BOUND:.0e}"
    return None


WORKLOADS = {cls.name: cls for cls in (AndersonStudy, DriftCertify, DriftApply)}
