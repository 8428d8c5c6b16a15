from __future__ import annotations

import functools
import io
import time
from collections import Counter, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from christoffel import ModifierSpec, TolerancePolicy, cli, zeros

settings.register_profile(
    "mp256",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mp256")


@pytest.fixture(scope="session")
def policy() -> TolerancePolicy:
    return TolerancePolicy()


CliRun = namedtuple("CliRun", "code out err dispatch_s")  # cli.main's exit code, stdout, stderr; dispatch's wall time


def _main(argv: tuple) -> CliRun:
    seconds, dispatch, out, err = [], cli.dispatch, io.StringIO(), io.StringIO()

    def timed(config):
        started = time.perf_counter()
        report = dispatch(config)
        seconds.append(time.perf_counter() - started)
        return report

    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(cli, "dispatch", timed)
        return CliRun(cli.main(list(argv)), out.getvalue(), err.getvalue(), sum(seconds))


@pytest.fixture(scope="session")
def cli_runs():
    """``run(argv: tuple) -> CliRun``, each argv run at most once per session: the library
    keeps no state between runs.  Only fixtures call it, so no test's monkeypatch reaches a
    shared run; a test that alters a run makes its own."""
    return functools.cache(_main)


@pytest.fixture
def grid_run(cli_runs, request) -> CliRun:
    """The shared run of the argv tuple a test passes with ``indirect=["grid_run"]``."""
    return cli_runs(request.param)


@pytest.fixture(scope="session")
def default_grid(cli_runs) -> SimpleNamespace:
    """The default ``--grid`` run, and the (label, n) of each ``zeros._Spectrum`` built, the families
    ``cli.mp_family`` built, the k of each ``ModifierSpec`` built and the arguments (G, g, degree,
    outer, policy) of each ``interlace_strict`` call during it."""
    grid = SimpleNamespace(solved=Counter(), families=[], modifiers=[], interlaced=[])
    spectrum, mp_family, init, interlace = zeros._Spectrum, cli.mp_family, ModifierSpec.__init__, cli.interlace_strict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_Spectrum", lambda fam, n, policy: grid.solved.update([(fam.label, n)]) or spectrum(fam, n, policy))
        patch.setattr(cli, "mp_family", lambda *args: grid.families.append(mp_family(*args)) or grid.families[-1])
        patch.setattr(ModifierSpec, "__init__", lambda self, *args: init(self, *args) or grid.modifiers.append(self.k))
        patch.setattr(cli, "interlace_strict", lambda *args: grid.interlaced.append(args) or interlace(*args))
        grid.run = cli_runs(("--grid",))
    return grid
