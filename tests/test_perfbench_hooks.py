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
