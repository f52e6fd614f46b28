"""The README's examples: every CLI command it shows exits with the code it
documents, the library quick start runs, and the public API is the listed
one."""

import importlib
import re
import shlex
import types
from pathlib import Path

import pytest

import hessian_radial
from hessian_radial.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# the CLI block shows commands that succeed; the examples in the prose each
# come with the exit code the text gives them
BLOCK_COMMANDS = [
    line.removeprefix("hessian-radial ")
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines() if line.startswith("hessian-radial ")]
INLINE_EXIT = {
    "solve --n 2 --k 1 --mu 0 --f exp:1 --a 0 --r-end 2.82 --h 1e-2": 1,
    "solve --n 2 --k 1 --mu 0 --f exp:1 --a 0 --r-end 1 --h 2.3e-16": 64,
    "verify --n 3 --k 3 --mu 0 --A 0.6 --alpha 1 --r-max 1.05e154": 64,
    "verify --n 3 --k 2 --mu 0 --A 1e-200 --alpha 1": 64,
}


def test_prose_examples_are_the_listed_ones():
    # a command with two or more flag values, not a flag named on its own
    inline = re.findall(
        r"`((?:solve|ko|verify|mu0|sweep)(?: --[\w-]+ [^\s`]+){2,})`", README)
    assert sorted(inline) == sorted(INLINE_EXIT)


@pytest.mark.parametrize(
    "command,code",
    [(c, 0) for c in BLOCK_COMMANDS] + sorted(INLINE_EXIT.items()))
def test_cli_example_exit_code(command, code, tmp_path, capsys):
    argv = shlex.split(command)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == code
    if "--out" in argv and code == 0:
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0


def test_cli_block_covers_every_command():
    assert sorted({c.split()[0] for c in BLOCK_COMMANDS}) == [
        "ko", "mu0", "solve", "sweep", "verify"]


def test_library_quick_start(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})
    # exp:1 with k = 2: the growth integral converges, and mu = 0.1 < mu0
    assert capsys.readouterr().out.splitlines()[-1] == "not_exists"


# every name the package exports; adding or deleting one is a change of the
# public API, made here too
PUBLIC_API = [
    "AdmissibilityError", "BlowupReport", "CONVERGES", "DIVERGES", "EXISTS",
    "ExistenceReport", "GaussianCandidate", "INCONCLUSIVE", "KOVerdict",
    "NOT_EXISTS", "NonConvergenceError", "Nonlinearity", "OUTSIDE_THEORY",
    "ProblemParams", "RadialProfile", "RadiusCheck", "SCHEMA_ID",
    "SingularityError", "SubsolutionReport", "binom", "chi", "ddphi_at_zero",
    "default_radii", "detect_blowup", "dphi_from_integral", "elem_sym",
    "elem_sym_all", "euler_break_line", "existence_verdict",
    "gaussian_spectrum", "gaussian_threshold",
    "gaussian_threshold_negative_mu", "in_gamma_k", "ko_classify_analytic",
    "ko_classify_numeric", "mu_zero", "parse_f_spec", "per_cell_defect",
    "picard_solve", "verify_subsolution",
]


# the modules whose `__all__` the package re-exports; `cli.main` is the
# command line, not library API
LIBRARY_MODULES = ["symmetric", "nonlinearity", "radial", "solver",
                   "keller_osserman", "gaussian"]


def package_exports():
    # submodules are attributes once imported, but not exports
    return sorted(name for name, value in vars(hessian_radial).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def test_public_api_is_the_listed_one():
    assert package_exports() == PUBLIC_API


def test_exports_are_the_modules_all_lists():
    # a deletion that leaves a name in `__all__` fails here
    listed = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"hessian_radial.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
        listed.update(module.__all__)
    assert package_exports() == sorted(listed)


def test_quick_start_uses_only_public_api():
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    used = set(re.findall(r"\bhr\.(\w+)", code))
    assert used and used <= set(PUBLIC_API)
