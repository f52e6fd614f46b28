"""The benchmark's span tracer still finds every layer function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import hessian_radial

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = [hessian_radial] + [
    importlib.import_module(f"hessian_radial.{m}")
    for m in ("nonlinearity", "radial", "solver", "cli", "gaussian",
              "keller_osserman", "symmetric")]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(name):
    owner = hessian_radial
    for part in name.split("."):
        owner = getattr(owner, part)
    return owner


def snapshot():
    return {(m.__name__, key): value
            for m in MODULES for key, value in vars(m).items()}


def test_tracer_wraps_every_target_and_restores_it():
    spans = load_spans()
    originals = {name: resolve(name) for name in spans.TARGETS}
    before = snapshot()
    commands = dict(hessian_radial.cli._COMMANDS)
    with spans.Tracer():
        for name, original in originals.items():
            assert resolve(name) is not original, name
            assert resolve(name).__wrapped__ is original, name
    for name, original in originals.items():
        assert resolve(name) is original, name
    assert snapshot() == before
    assert hessian_radial.cli._COMMANDS == commands


def test_tracer_records_the_walks_and_their_steps():
    # the walk inlines its step, so these spans are what is left of the
    # per-layer walk metrics: one span per walk, work = steps taken
    spans = load_spans()
    p = hessian_radial.ProblemParams(3, 2, 0.0)
    f = hessian_radial.Nonlinearity.constant(1.0)
    solver = hessian_radial.solver
    with spans.Tracer() as tracer:
        prof = solver.euler_break_line(p, f, 1.0, 2.0, 1e-2)
        rep = solver.detect_blowup(p, f, 1.0, r_max=3.0, h0=1e-2)
    metrics = {name: value for name, (value, _) in
               tracer.layer_metrics().items()}
    assert rep.status == "global"
    assert metrics["solver.euler_break_line.calls"] == 1
    assert metrics["solver.euler_break_line.steps"] == len(prof.grid) - 1
    assert metrics["solver._blowup_walk.calls"] == 1
    assert metrics["solver._blowup_walk.steps"] == len(rep.profile.grid) - 1
    assert metrics["solver.detect_blowup.walks_per_call"] == 1
    assert metrics["solver.euler_break_line.steps_per_s"] > 0
    assert metrics["solver._blowup_walk.steps_per_s"] > 0


def test_tracer_records_each_picard_pass(monkeypatch):
    # the grid stays the third argument of _forward_pass, which the tracer
    # counts as the pass's work; each pass runs solver._pass once
    spans = load_spans()
    solver = hessian_radial.solver
    passes, run_pass = [], solver._pass

    def counting(*args):
        passes.append(None)
        return run_pass(*args)
    monkeypatch.setattr(solver, "_pass", counting)
    p = hessian_radial.ProblemParams(2, 1, 0.0)
    f = hessian_radial.Nonlinearity.exponential(1.0)
    with spans.Tracer() as tracer:
        prof = solver.picard_solve(p, f, 0.0, 2.0, 1e-3)
    metrics = {name: value for name, (value, _) in
               tracer.layer_metrics().items()}
    work = sum(state.stats["solver._forward_pass"].work
               for state in tracer._states)
    assert len(passes) >= 3
    assert metrics["solver._forward_pass.calls"] == len(passes)
    assert metrics["solver.picard_solve.sweeps_per_solve"] == len(passes)
    assert work == len(passes) * len(prof.grid)
