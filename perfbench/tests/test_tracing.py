"""Per-layer metrics are folded correctly from spans.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tracing  # noqa: E402

# [name, start, end, parent index]
SPANS = [
    ["cli.run", 0.0, 20.0, -1],
    ["solver.solve_spectrum", 0.0, 10.0, 0],
    ["solver.lobpcg", 1.0, 8.0, 1],
    ["solver.matvec", 2.0, 3.0, 2],
    ["solver.precond", 4.0, 5.0, 2],
    ["solver.matvec", 8.5, 9.0, 1],
    ["kernel.coefficient_fields", 10.0, 12.0, 0],
    ["kernel.band_limit", 10.5, 11.0, 6],
    ["oracle.breit_shift_matrix", 12.0, 20.0, 0],
    ["kernel.band_limit", 13.0, 14.0, 8],
]


def test_layer_metrics_from_spans():
    m = tracing.layer_metrics(SPANS, set(tracing.WRAPS))
    assert m["solver.matvec_calls"] == 2
    assert m["solver.matvec_s"] == pytest.approx(1.5)
    assert m["solver.lobpcg_self_s"] == pytest.approx(5.0)
    assert m["solver.residual_check_s"] == pytest.approx(0.5)
    assert m["kernel.band_limit_s"] == pytest.approx(0.5)
    assert m["cli.run_s"] == pytest.approx(20.0)
    assert m["darwin.integrate_s"] == 0


def test_metrics_of_a_removed_function_are_absent():
    wrapped = set(tracing.WRAPS) - {"solver.precond"}
    m = tracing.layer_metrics(SPANS, wrapped)
    assert "solver.precond_s" not in m and "solver.precond_calls" not in m
    assert "solver.matvec_s" in m


def test_install_skips_missing_targets(monkeypatch):
    import importlib

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))
    # let monkeypatch put back every attribute install() replaces
    for targets in tracing.WRAPS.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.setitem(tracing.WRAPS, "solver.gone", [("breitlab.solver", "TwoBodyOperator._gone")])

    tracer = tracing.Tracer()
    tracer.install()
    assert "solver.gone" not in tracer.wrapped
    assert "solver.matvec" in tracer.wrapped
