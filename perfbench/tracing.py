"""Spans around the calls into each breitlab layer, and the per-layer metrics.

The wraps live here, not in the program: ``install`` replaces module and
class attributes of an imported breitlab with wrappers that record a span
(name, start, end, parent) in memory.  ``layer_metrics`` folds the spans of
one task call into the benchmark's per-layer metrics.  A wrapped function
that a later version of the program no longer has is skipped, and the
metrics built on it are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> the (module, attribute path) pairs it wraps.  A function
# imported by name into another module is wrapped where it is looked up.
WRAPS = {
    "solver.operator_build": [("breitlab.solver", "TwoBodyOperator.__init__")],
    "solver.solve_spectrum": [("breitlab.solver", "solve_spectrum"), ("breitlab.cli", "solve_spectrum")],
    "solver.lobpcg": [("scipy.sparse.linalg", "lobpcg")],
    "solver.matvec": [
        ("breitlab.solver", "TwoBodyOperator.apply_php_shifted"),
        ("breitlab.solver", "TwoBodyOperator.apply_h"),
    ],
    "solver.precond": [("breitlab.solver", "TwoBodyOperator.apply_preconditioner")],
    "solver.fft": [("breitlab.solver", "fftn"), ("breitlab.solver", "ifftn")],
    "solver.project_k": [("breitlab.solver", "TwoBodyOperator._project_k")],
    "solver.kinetic_k": [("breitlab.solver", "TwoBodyOperator._kinetic_k")],
    "solver.potential_x": [("breitlab.solver", "TwoBodyOperator._potential_x")],
    "kernel.coefficient_fields": [
        ("breitlab.solver", "coefficient_fields"),
        ("breitlab.kernel", "coefficient_fields"),
    ],
    "kernel.band_limit": [("breitlab.kernel", "_band_limit")],
    "oracle.breit_shift_matrix": [
        ("breitlab.cli", "breit_shift_matrix"),
        ("breitlab.oracle", "breit_shift_matrix"),
    ],
    "oracle.sample_state": [("breitlab.oracle", "sample_state")],
    "oracle.first_order_shift": [("breitlab.oracle", "first_order_shift")],
    "darwin.circular_orbit": [("breitlab.darwin", "circular_orbit")],
    "darwin.integrate": [("breitlab.darwin", "integrate")],
    "darwin.accel_solve": [("breitlab.darwin", "_accel_fixed_point")],
    "darwin.pair_geometry": [("breitlab.darwin", "_pair_geometry")],
    "darwin.record": [("breitlab.darwin", "canonical_momenta"), ("breitlab.darwin", "lagrangian")],
    "darwin.write_csv": [("breitlab.darwin", "Trajectory.write_csv")],
}

TASK_SPAN = "cli.run"


class Tracer:
    """In-memory span store; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.wrapped = set()

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target in WRAPS that this version of breitlab has."""
        for name, targets in WRAPS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p, None)
                if owner is None or not hasattr(owner, attr):
                    continue
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
                self.wrapped.add(name)


def dump(path, meta, spans):
    with open(path, "w") as fh:
        json.dump(dict(meta, spans=spans), fh)


# metric -> (span name, what to take); see layer_metrics.
PER_LAYER = {
    "solver.operator_build_s": ("solver.operator_build", "time"),
    "solver.matvec_calls": ("solver.matvec", "calls"),
    "solver.matvec_s": ("solver.matvec", "time"),
    "solver.precond_calls": ("solver.precond", "calls"),
    "solver.precond_s": ("solver.precond", "time"),
    "solver.fft_calls": ("solver.fft", "calls"),
    "solver.fft_s": ("solver.fft", "time"),
    "solver.project_k_s": ("solver.project_k", "time"),
    "solver.kinetic_k_s": ("solver.kinetic_k", "time"),
    "solver.potential_x_s": ("solver.potential_x", "time"),
    "solver.lobpcg_self_s": ("solver.lobpcg", "self"),
    # operator applications made by solve_spectrum itself, after LOBPCG
    "solver.residual_check_s": ("solver.matvec", ("parent", "solver.solve_spectrum")),
    "kernel.coefficient_fields_calls": ("kernel.coefficient_fields", "calls"),
    "kernel.coefficient_fields_s": ("kernel.coefficient_fields", "time"),
    # the oracle reuses the band-limit routine; count the kernel's only
    "kernel.band_limit_s": ("kernel.band_limit", ("ancestor", "kernel.coefficient_fields")),
    "oracle.breit_shift_matrix_s": ("oracle.breit_shift_matrix", "time"),
    "oracle.sample_state_s": ("oracle.sample_state", "time"),
    "oracle.first_order_shift_calls": ("oracle.first_order_shift", "calls"),
    "oracle.first_order_shift_s": ("oracle.first_order_shift", "time"),
    "darwin.circular_orbit_s": ("darwin.circular_orbit", "time"),
    "darwin.integrate_s": ("darwin.integrate", "time"),
    "darwin.accel_solve_calls": ("darwin.accel_solve", "calls"),
    "darwin.accel_solve_s": ("darwin.accel_solve", "time"),
    "darwin.pair_geometry_calls": ("darwin.pair_geometry", "calls"),
    # canonical_momenta and lagrangian made per step by integrate
    "darwin.record_s": ("darwin.record", ("parent", "darwin.integrate")),
    "darwin.write_csv_s": ("darwin.write_csv", "time"),
    "cli.run_s": (TASK_SPAN, "time"),
}


def layer_metrics(spans, wrapped):
    """Per-layer metrics from one task call's spans."""
    names = [s[0] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    available = set(wrapped) | {TASK_SPAN}

    out = {}
    for metric, (name, what) in PER_LAYER.items():
        if name not in available:
            continue
        sel = [i for i, n in enumerate(names) if n == name]
        if isinstance(what, tuple):
            rel, other = what
            if rel == "parent":
                sel = [i for i in sel if spans[i][3] >= 0 and names[spans[i][3]] == other]
            else:
                sel = [i for i in sel if any(names[a] == other for a in ancestors(i))]
            what = "time"
        dur = [spans[i][2] - spans[i][1] for i in sel]
        if what == "calls":
            out[metric] = len(sel)
        elif what == "time":
            out[metric] = sum(dur)
        else:  # self time: the span minus its direct child spans
            out[metric] = sum(
                d - sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
                for i, d in zip(sel, dur)
            )
    return out
