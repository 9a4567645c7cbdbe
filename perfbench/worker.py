"""One benchmark round in a fresh process: set-up, the timed task call, checks.

    python3 perfbench/worker.py --workload NAME --seed N --round I --t0 T
                                --trace 0|1 --out DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from process start.  The program is imported
from ``src/`` of the checkout.  The last line of standard output is one
JSON object describing the round.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Orbit of configs/orbit.cfg; dt scales with radius^1.5 so that every
# radius takes the same number of steps per orbit.
ORBIT_DT = 0.008
ORBIT_STEPS = 1000


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _write_config(tmp, text):
    path = tmp / "bench.cfg"
    path.write_text(text)
    return path


def spectrum_breit(rng, tmp):
    """Lowest four states of P H P: spectrum_equal_masses.cfg physics at n=12."""
    from breitlab import HamiltonianSpec, load_config, solver

    path = _write_config(tmp, f"""task = spectrum
mass2 = 1.0
alpha_eff = 0.2
grid_n = 12
box_length = 40.0
softening = 0.0390625
terms = coulomb,gaunt,retardation
n_states = 4
tol = 1e-8
seed = {rng.randrange(2**31)}
""")
    cfg = load_config(path)
    x = cfg.extras
    spec = HamiltonianSpec(cfg.particle1, cfg.particle2, cfg.coupling, cfg.grid,
                           terms=frozenset(x["terms"].split(",")))
    mu = cfg.particle2.mass / (1.0 + cfg.particle2.mass)

    def call():
        return solver.solve_spectrum(spec, n_states=x["n_states"], tol=x["tol"],
                                     seed=x["seed"], keep_vectors=True)

    def check(res):
        import checks

        trial = checks.singlet_trial(cfg.grid, 1.0 / (mu * cfg.coupling.alpha_eff))
        return checks.eigenpair_failures(spec, x["tol"], res.eigenvalues, res.eigenvectors, trial)

    return call, check, x["n_states"]


def converge_coulomb(rng, tmp):
    """Softening-axis study of the Coulomb-only ground state, three levels."""
    from breitlab import cli, load_config

    path = _write_config(tmp, f"""task = converge
mass2 = 1.0
alpha_eff = 0.1
grid_n = 12
box_length = 160.0
softening = 2.5
terms = coulomb
converge_axis = softening
tol = 1e-9
seed = {rng.randrange(2**31)}
""")
    cfg = load_config(path)
    request = cli.TaskRequest("converge", str(path), str(tmp / "converge.json"))
    mu = cfg.particle2.mass / (1.0 + cfg.particle2.mass)

    def check(rec):
        import checks

        table = rec.results["table"]
        return checks.study_failures([r["level"] for r in table], [r["binding"] for r in table],
                                     mu, cfg.coupling.alpha_eff, cfg.grid.spacing)

    return lambda: cli.run(request), check, 3


def dynamics_orbit(rng, tmp):
    """Circular orbit of configs/orbit.cfg at a radius drawn from the seed."""
    from breitlab import cli, darwin, load_config

    radius = 1.0 + 0.1 * (2.0 * rng.random() - 1.0)
    path = _write_config(tmp, f"""task = dynamics
mass2 = 2.0
alpha_eff = 1.0
grid_n = 8
box_length = 20.0
light_speed = 10.0
orbit_radius = {radius!r}
dt = {ORBIT_DT * radius**1.5!r}
n_steps = {ORBIT_STEPS}
tol = 1e-6
""")
    cfg = load_config(path)
    x = cfg.extras
    system = darwin.DarwinSystem((cfg.particle1, cfg.particle2), light_speed=x["light_speed"])
    request = cli.TaskRequest("dynamics", str(path), str(tmp / "orbit.json"))

    def check(rec):
        import numpy as np

        import checks

        res = rec.results
        data = np.loadtxt(res["trajectory_file"], delimiter=",", skiprows=1, ndmin=2)
        n = system.n_particles
        cols = data[:, 1:1 + 9 * n].reshape(len(data), n, 3, 3)  # pos, vel, mom
        pos, vel = cols[:, :, 0], cols[:, :, 1]
        back = darwin.integrate(system, darwin.ClassicalState(0.0, pos[-1], -vel[-1]),
                                res["dt"], res["n_steps"])
        return [checks.orbit_failures(
            data[:, 0], pos, vel, data[:, -4], data[:, -3:], res["initial_binding_energy"],
            res["orbit_radius"], res["orbital_frequency"], x["tol"], res["dt"],
            back.positions[-1], back.velocities[-1], system.fixed_point_tol)]

    return lambda: cli.run(request), check, 1


def perturb_oracle(rng, tmp):
    """First-order shift matrix at the spectrum_equal_masses.cfg grid.

    n = 32 is the smallest grid the oracle accepts (h <= a/4, L >= 8a); the
    seed scales every length by s in [0.9, 1.1] and alpha by 1/s, which
    keeps both limits met and the work the same.
    """
    from breitlab import (HamiltonianSpec, HydrogenicState, PauliEmbedding, apply_hamiltonian,
                          cli, load_config, sample_state)

    s = 1.0 + 0.1 * (2.0 * rng.random() - 1.0)
    path = _write_config(tmp, f"""task = perturb
mass2 = 1.0
alpha_eff = {0.2 / s!r}
grid_n = 32
box_length = {80.0 * s!r}
softening = {0.0390625 * s!r}
""")
    cfg = load_config(path)
    request = cli.TaskRequest("perturb", str(path), str(tmp / "perturb.json"))

    def check(rec):
        import numpy as np

        import checks

        res = rec.results
        oracle = np.array(res["shift_matrix_real"]) + 1j * np.array(res["shift_matrix_imag"])
        orb = res["orbital"]
        state = HydrogenicState(orb["n"], orb["l"], orb["m"], orb["mu"], cfg.coupling.alpha_eff)
        basis = [(1.0, 0.0), (0.0, 1.0)]
        fields = [sample_state(state, PauliEmbedding(s1, s2, True), cfg.grid, m1=1.0,
                               m2=cfg.particle2.mass, band_limit_fine=4)
                  for s1 in basis for s2 in basis]

        def elements(terms):
            spec = HamiltonianSpec(cfg.particle1, cfg.particle2, cfg.coupling, cfg.grid,
                                   terms=frozenset(terms))
            h = [apply_hamiltonian(spec, f) for f in fields]
            return np.array([[a.dot(b) for b in h] for a in fields])

        solver = elements(("gaunt", "retardation")) - elements(())
        return [checks.shift_matrix_failures(oracle, solver, cfg.grid.spacing, state.bohr_radius)]

    return lambda: cli.run(request), check, 1


WORKLOADS = {
    "spectrum-breit": spectrum_breit,
    "converge-coulomb": converge_coulomb,
    "dynamics-orbit": dynamics_orbit,
    "perturb-oracle": perturb_oracle,
}


def run_round(workload, seed, rnd, t0, traced, out):
    """Set-up, the task call and its checks; times in reference seconds.

    The probe runs through set-up and through the task call.  A traced
    call's spans include the probe passes that fell inside them; the layer
    times take them out in proportion, as the probe's share of the call.
    """
    import speed

    probe = speed.Probe()
    probe.start()
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=out))
    try:
        sys.path.insert(0, str(ROOT / "src"))
        call, check, n_ops = WORKLOADS[workload](rng, tmp)
        setup_raw_s = time.monotonic() - t0
        probe.stop()
        setup_s = speed.reference_seconds(setup_raw_s, probe.warm_wall + probe.spent_wall,
                                          probe.scale())

        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            call = tracer.wrap(tracing.TASK_SPAN, call)
        probe.start()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        error = None
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed task fails its operations
            error = f"task raised {type(exc).__name__}: {exc}"
        task_raw_s = time.perf_counter() - start
        cpu_raw_s = _cpu_s() - cpu0
        probe.stop()
        scale = probe.scale()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spans = list(tracer.spans) if tracer else None

        if error is None:
            try:
                check_failures = [m for op in check(result) for m in op]
            except Exception as exc:  # noqa: BLE001 - an output the check cannot read is wrong
                check_failures = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            check_failures = []

        row = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "task_s": speed.reference_seconds(task_raw_s, probe.spent_wall, scale),
            "cpu_s": speed.reference_seconds(cpu_raw_s, probe.spent_cpu, scale),
            "task_raw_s": task_raw_s,
            "cpu_raw_s": cpu_raw_s,
            "probe_passes": len(probe.passes),
            "probe_scale": scale,
            "peak_rss_mb": peak_rss_mb,
            "attempted": n_ops,
            "failed": n_ops if error else 0,
            "error": error,
            "check_failures": check_failures,
        }
        if error is None and workload == "spectrum-breit":
            row["iterations"] = result.iterations
        if tracer:
            share = row["task_s"] / task_raw_s
            row["layers"] = {k: v * share if k.endswith("_s") else v
                             for k, v in tracing.layer_metrics(spans, tracer.wrapped).items()}
            tracing.dump(out / f"trace-{workload}-seed{seed}-round{rnd}.json",
                         {"workload": workload, "seed": seed, "round": rnd}, spans)
        return row
    finally:
        # a round that raised must not leave the timer to kill the process
        probe.disarm()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args(argv)
    row = run_round(a.workload, a.seed, a.round, a.t0, a.trace, a.out)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
