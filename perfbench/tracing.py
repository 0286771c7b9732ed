"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each paratorus layer from the
outside: module-level functions are rebound in every paratorus module that
imported them (``from .torus import split_lattice`` makes a binding of its
own), methods are replaced on their class, and the numpy.fft / scipy.fft
entry points are replaced on their modules.  Everything must be installed
before any stack or operator is built, because ``LinOp`` closures capture
bound methods when they are constructed.

Each wrapped call records a span (name, start, end, parent).  A span's self
time is its duration minus the time covered by its direct children, so the
self times of all spans add up to the traced wall time.  Counters are
recorded at the same boundaries.  The wrappers only pass arguments and
results through (or wrap a ``LinOp`` in one that calls the same functions),
so a traced run computes bit-identical outputs.
"""

from __future__ import annotations

import collections
import json
import math
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("torus", "lp", "paraproducts", "linops", "kpz", "noise",
          "transforms", "operators")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("torus.fft.calls", "count", "lower"),
    ("torus.fft.points", "count", "lower"),
    ("torus.fft.self_s", "s", "lower"),
    ("torus.fft.c2c.calls", "count", "lower"),
    ("torus.fft.c2c.points", "count", "lower"),
    ("torus.fft.r2c.calls", "count", "lower"),
    ("torus.fft.r2c.points", "count", "lower"),
    ("torus.split_fold.calls", "count", "lower"),
    ("torus.split_fold.self_s", "s", "lower"),
    ("torus.pointwise_product.calls", "count", "lower"),
    ("torus.pointwise_product.self_s", "s", "lower"),
    ("torus.field_from_coeffs.calls", "count", "lower"),
    ("torus.field_from_coeffs.self_s", "s", "lower"),
    ("torus.exp_field.calls", "count", "lower"),
    ("torus.exp_field.self_s", "s", "lower"),
    ("torus.pcf1.bytes_written", "B", "lower"),
    ("torus.pcf1.bytes_read", "B", "lower"),
    ("torus.pcf1.self_s", "s", "lower"),
    ("lp.partition.calls", "count", "lower"),
    ("lp.partition.self_s", "s", "lower"),
    ("paraproducts.build.calls", "count", "lower"),
    ("paraproducts.build.self_s", "s", "lower"),
    ("paraproducts.apply.calls", "count", "lower"),
    ("paraproducts.apply.self_s", "s", "lower"),
    ("linops.neumann.calls", "count", "lower"),
    ("linops.neumann.terms", "count", "lower"),
    ("linops.neumann.self_s", "s", "lower"),
    ("linops.mult_field.calls", "count", "lower"),
    ("linops.mult_field.self_s", "s", "lower"),
    ("linops.operator_norm.calls", "count", "lower"),
    ("linops.operator_norm.steps", "count", "lower"),
    ("linops.operator_norm.self_s", "s", "lower"),
    ("kpz.auto_lambda.lams_tried", "count", "lower"),
    ("kpz.auto_lambda.accept_share", "share", "higher"),
    ("kpz.auto_lambda.self_s", "s", "lower"),
    ("kpz.solve.iterations", "count", "lower"),
    ("kpz.solve.self_s", "s", "lower"),
    ("noise.enhance.self_s", "s", "lower"),
    ("noise.validate.self_s", "s", "lower"),
    ("transforms.build_stack.calls", "count", "lower"),
    ("transforms.build_stack.kept_share", "share", "higher"),
    ("transforms.build_stack.self_s", "s", "lower"),
    ("transforms.choose_cutoffs.self_s", "s", "lower"),
    ("transforms.exp_certificates.calls", "count", "lower"),
    ("transforms.save_stack.self_s", "s", "lower"),
    ("transforms.verify_stack.self_s", "s", "lower"),
    ("transforms.theta.calls", "count", "lower"),
    ("transforms.theta.self_s", "s", "lower"),
    ("transforms.theta_inv.calls", "count", "lower"),
    ("transforms.theta_inv.self_s", "s", "lower"),
    ("operators.krylov.solves", "count", "lower"),
    ("operators.krylov.iterations", "count", "lower"),
    ("operators.krylov.self_s", "s", "lower"),
    ("operators.select_shift.tries", "count", "lower"),
    ("operators.select_shift.accept_share", "share", "higher"),
    ("operators.spectrum.calls", "count", "lower"),
    ("operators.spectrum.solves", "count", "lower"),
    ("operators.spectrum.self_s", "s", "lower"),
    ("operators.equivalence.self_s", "s", "lower"),
    ("operators.study.enhance_s", "s", "lower"),
    ("operators.study.stacks_s", "s", "lower"),
    ("operators.study.shift_s", "s", "lower"),
    ("operators.study.spectra_s", "s", "lower"),
    ("operators.study.differences_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# numpy.fft / scipy.fft entry points by kind; r2c covers the real-input
# forward transforms and the real-output inverses.
_FFT_KINDS = {
    "fft": "c2c", "ifft": "c2c", "fft2": "c2c", "ifft2": "c2c",
    "fftn": "c2c", "ifftn": "c2c",
    "rfft": "r2c", "irfft": "r2c", "rfft2": "r2c", "irfft2": "r2c",
    "rfftn": "r2c", "irfftn": "r2c",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._open: list[int] = []
        self.counters = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._fft_depth = 0
        self._lams: set | None = None
        self._shifts: set | None = None
        self._spectrum_depth = 0

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(math.nan)
        self._open.append(i)
        self.span_start.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        if not self.span_name:
            return {}
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        parent = np.asarray(self.span_parent)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = np.bincount(np.asarray(self.span_name), weights=dur - child,
                          minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as columns: name id, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.span_name,
                       "start": self.span_start, "end": self.span_end,
                       "parent": self.span_parent}, fh)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        """Return fn recording a span `name` (None: no span) and calling
        before(args, kwargs) -> args, kwargs and after(args, kwargs, out)."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = tracer.begin(name) if name is not None else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if i is not None:
                    tracer.end(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every paratorus module binding of `original`."""
        for mod in _paratorus_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] += by

    def install(self) -> None:
        """Patch all layers; call before any stack or operator is built."""
        from paratorus import kpz, linops, lp, noise, operators, paraproducts
        from paratorus import torus, transforms

        self._install_fft()
        self._install_torus(torus)
        self._set(lp.DyadicPartition, "__init__",
                  self._wrap("lp.partition", lp.DyadicPartition.__init__,
                             after=lambda a, k, o: self.count("lp.partition.calls")))
        self._install_paraproducts(paraproducts)
        self._install_linops(linops)
        self._install_kpz(kpz)
        for fn in (noise.enhance_generic, noise.enhance_anderson2d):
            self._rebind(fn, self._wrap("noise.enhance", fn))
        self._set(noise.EnhancedData, "validate",
                  self._wrap("noise.validate", noise.EnhancedData.validate))
        self._install_transforms(transforms)
        self._install_operators(operators)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _install_fft(self) -> None:
        owners = [np.fft]
        try:
            import scipy.fft
            owners.append(scipy.fft)
        except ImportError:
            pass
        for owner in owners:
            for fname, kind in _FFT_KINDS.items():
                fn = getattr(owner, fname, None)
                if fn is None:
                    continue
                wrapper = self._fft_wrapper(fn, fname, kind)
                self._set(owner, fname, wrapper)
                self._rebind(fn, wrapper)

    def _fft_wrapper(self, fn, fname, kind):
        tracer = self
        inverse_real = fname.startswith("irfft")

        def traced_fft(*args, **kwargs):
            if tracer._fft_depth:  # an entry point calling another
                return fn(*args, **kwargs)
            tracer._fft_depth += 1
            i = tracer.begin("torus.fft")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(i)
                tracer._fft_depth -= 1
            if kind == "c2c" or inverse_real:
                points = out.size
            else:
                points = _real_input_points(args, kwargs)
            tracer.count("torus.fft.calls")
            tracer.count("torus.fft.points", points)
            tracer.count(f"torus.fft.{kind}.calls")
            tracer.count(f"torus.fft.{kind}.points", points)
            return out

        traced_fft.__wrapped__ = fn
        return traced_fft

    def _install_torus(self, torus) -> None:
        for fn in (torus.split_lattice, torus.fold_lattice):
            self._rebind(fn, self._wrap(
                "torus.split_fold", fn,
                after=lambda a, k, o: self.count("torus.split_fold.calls")))
        for name in ("pointwise_product", "field_from_coeffs", "exp_field"):
            fn = getattr(torus, name)
            key = f"torus.{name}.calls"
            self._rebind(fn, self._wrap(
                f"torus.{name}", fn,
                after=lambda a, k, o, key=key: self.count(key)))

        def wrote(args, kwargs, out):
            self.count("torus.pcf1.bytes_written", os.path.getsize(args[0]))

        def read(args, kwargs, out):
            self.count("torus.pcf1.bytes_read", os.path.getsize(args[0]))

        self._rebind(torus.write_pcf1,
                     self._wrap("torus.pcf1", torus.write_pcf1, after=wrote))
        self._rebind(torus.read_pcf1,
                     self._wrap("torus.pcf1", torus.read_pcf1, after=read))

    def _install_paraproducts(self, paraproducts) -> None:
        cls = paraproducts._FixedSidePara
        self._set(cls, "__init__", self._wrap(
            "paraproducts.build", cls.__init__,
            after=lambda a, k, o: self.count("paraproducts.build.calls")))
        for meth in ("apply", "adjoint"):
            self._set(cls, meth, self._wrap(
                "paraproducts.apply", getattr(cls, meth),
                after=lambda a, k, o: self.count("paraproducts.apply.calls")))

    def _counting(self, op, apply_key, adjoint_key=None):
        """The same LinOp, counting its apply (and adjoint) calls."""
        from paratorus.linops import LinOp

        def apply(x):
            self.count(apply_key)
            return op.apply(x)

        def adjoint(x):
            if adjoint_key is not None:
                self.count(adjoint_key)
            return op.adjoint(x)

        return LinOp(apply, adjoint)

    def _install_linops(self, linops) -> None:
        def neumann_args(args, kwargs):
            self.count("linops.neumann.calls")
            step = self._counting(args[0], "linops.neumann.terms",
                                  "linops.neumann.terms")
            return (step,) + args[1:], kwargs

        self._rebind(linops.neumann_inverse_apply, self._wrap(
            "linops.neumann", linops.neumann_inverse_apply, before=neumann_args))

        def norm_args(args, kwargs):
            self.count("linops.operator_norm.calls")
            op = self._counting(args[0], "linops.operator_norm.steps")
            return (op,) + args[1:], kwargs

        self._rebind(linops.operator_norm, self._wrap(
            "linops.operator_norm", linops.operator_norm, before=norm_args))

        def traced_mult_field_op(*args, **kwargs):
            with self.span("linops.mult_field.build"):
                op = original(*args, **kwargs)
            apply = self._wrap("linops.mult_field", op.apply,
                               after=lambda a, k, o: self.count("linops.mult_field.calls"))
            adjoint = self._wrap("linops.mult_field", op.adjoint,
                                 after=lambda a, k, o: self.count("linops.mult_field.calls"))
            return linops.LinOp(apply, adjoint)

        original = linops.mult_field_op
        self._rebind(original, traced_mult_field_op)

    def _install_kpz(self, kpz) -> None:
        def saw_lam(args, kwargs, out):
            if self._lams is not None:
                self._lams.add(args[1].lam)

        self._rebind(kpz.kpz_map, self._wrap(None, kpz.kpz_map, after=saw_lam))
        original = kpz.auto_lambda

        def traced_auto_lambda(*args, **kwargs):
            self._lams = set()
            try:
                with self.span("kpz.auto_lambda"):
                    out = original(*args, **kwargs)
                self.count("kpz.auto_lambda.accepted")
                return out
            finally:
                self.count("kpz.auto_lambda.lams_tried", len(self._lams))
                self._lams = None

        self._rebind(original, traced_auto_lambda)
        self._rebind(kpz.solve_kpz, self._wrap(
            "kpz.solve", kpz.solve_kpz,
            after=lambda a, k, o: self.count("kpz.solve.iterations", o.iterations)))

    def _install_transforms(self, transforms) -> None:
        def built(args, kwargs, stack):
            self.count("transforms.build_stack.calls")
            if stack.cert_phi <= transforms.OPERATOR_SMALLNESS:
                self.count("transforms.build_stack.kept")

        self._rebind(transforms.build_stack, self._wrap(
            "transforms.build_stack", transforms.build_stack, after=built))
        self._rebind(transforms.choose_cutoffs, self._wrap(
            "transforms.choose_cutoffs", transforms.choose_cutoffs))
        self._rebind(transforms.exponential_certificates, self._wrap(
            "transforms.exp_certificates", transforms.exponential_certificates,
            after=lambda a, k, o: self.count("transforms.exp_certificates.calls")))
        for name in ("save_stack", "verify_stack"):
            fn = getattr(transforms, name)
            self._rebind(fn, self._wrap(f"transforms.{name}", fn))
        for meth, name in (("forward", "theta"), ("inverse", "theta_inv")):
            key = f"transforms.{name}.calls"
            self._set(transforms.Theta, meth, self._wrap(
                f"transforms.{name}", getattr(transforms.Theta, meth),
                after=lambda a, k, o, key=key: self.count(key)))

    def _install_operators(self, operators) -> None:
        cls = operators.ResolventOperator

        def solved(args, kwargs, out):
            rop = args[0]
            self.count("operators.krylov.solves")
            self.count("operators.krylov.iterations", rop.last_iterations)
            if self._spectrum_depth:
                self.count("operators.spectrum.solves")
            if self._shifts is not None:
                self._shifts.add(rop.lam0)

        for meth in ("solve_coeffs", "solve_adjoint_coeffs"):
            self._set(cls, meth, self._wrap("operators.krylov",
                                            getattr(cls, meth), after=solved))

        original_shift = operators.select_shift

        def traced_select_shift(*args, **kwargs):
            self._shifts = set()
            try:
                with self.span("operators.select_shift"):
                    out = original_shift(*args, **kwargs)
                self.count("operators.select_shift.accepted")
                return out
            finally:
                self.count("operators.select_shift.tries", len(self._shifts))
                self._shifts = None

        self._rebind(original_shift, traced_select_shift)
        original_spectrum = operators.spectrum

        def traced_spectrum(*args, **kwargs):
            self.count("operators.spectrum.calls")
            self._spectrum_depth += 1
            try:
                with self.span("operators.spectrum"):
                    return original_spectrum(*args, **kwargs)
            finally:
                self._spectrum_depth -= 1

        self._rebind(original_spectrum, traced_spectrum)
        self._rebind(operators.equivalence_constants, self._wrap(
            "operators.equivalence", operators.equivalence_constants))
        self._rebind(operators.convergence_study, self._wrap(
            "operators.study", operators.convergence_study))

    # -- report -----------------------------------------------------------

    def metrics(self, study_stages: dict | None, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric from the recorded spans and counters;
        `study_stages` is StudyResult.stage_seconds of a traced study."""
        own = self.self_times()
        c = self.counters
        out = {name: float(c.get(name, 0)) for name, unit, _ in PER_LAYER
               if unit in ("count", "B")}
        for name, unit, _ in PER_LAYER:
            if name.endswith(".self_s") and name.count(".") == 2:
                out[name] = own.get(name[: -len(".self_s")], 0.0)
        out["kpz.auto_lambda.accept_share"] = _share(
            c["kpz.auto_lambda.accepted"], c["kpz.auto_lambda.lams_tried"])
        out["operators.select_shift.accept_share"] = _share(
            c["operators.select_shift.accepted"], c["operators.select_shift.tries"])
        out["transforms.build_stack.kept_share"] = _share(
            c["transforms.build_stack.kept"], c["transforms.build_stack.calls"])
        for stage in ("enhance", "stacks", "shift", "spectra", "differences"):
            out[f"operators.study.{stage}_s"] = float((study_stages or {}).get(stage, 0.0))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, t in own.items()
                                         if name.split(".")[0] == layer)
        out["trace.spans"] = float(len(self.span_name))
        out["trace.overhead_s"] = overhead_s
        return out


def _share(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _real_input_points(args, kwargs) -> int:
    """Real samples transformed by a forward rfft-family call."""
    a = np.asarray(args[0])
    shape = kwargs.get("s", kwargs.get("n", args[1] if len(args) > 1 else None))
    if shape is None:
        return int(a.size)
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    batch = a.size // max(1, int(np.prod(a.shape[a.ndim - len(shape):])))
    return int(batch * np.prod(shape))


def _paratorus_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "paratorus" or name.startswith("paratorus."))]
