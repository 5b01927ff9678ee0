"""Shared fixtures: one characterized technology for the whole session."""

import os

import pytest

from repro.devices import CMOSP35, TableModelLibrary, nmos_model, pmos_model
from repro.core import WaveformEvaluator


@pytest.fixture(scope="session", autouse=True)
def _flight_bundles_from_env():
    """CI forensics hook: ``REPRO_FLIGHT_BUNDLES=DIR`` enables the
    flight recorder with bundle capture for the whole test session, so
    a failing solve leaves a replayable debug bundle under DIR that the
    workflow uploads as an artifact.  Yields the armed recorder (None
    without the variable)."""
    directory = os.environ.get("REPRO_FLIGHT_BUNDLES")
    if not directory:
        yield None
        return
    from repro.obs import recording

    with recording(flight=True, bundle_dir=directory) as bundle:
        yield bundle.flight


@pytest.fixture(autouse=True)
def _flight_recorder_kept(_flight_bundles_from_env):
    """Fail a test that leaves another flight recorder installed than
    the session's armed one: the rest of the session would run
    without forensics."""
    yield
    if _flight_bundles_from_env is not None:
        from repro.obs import flight

        assert flight() is _flight_bundles_from_env, (
            "test left a different flight recorder installed; scope "
            "recorder changes with repro.obs.recording()")


@pytest.fixture(scope="session")
def tech():
    return CMOSP35


@pytest.fixture(scope="session")
def library(tech):
    """Session-wide table library (characterization is expensive)."""
    lib = TableModelLibrary(tech)
    lib.get("n")
    lib.get("p")
    return lib


@pytest.fixture(scope="session")
def nmos(tech):
    return nmos_model(tech)


@pytest.fixture(scope="session")
def pmos(tech):
    return pmos_model(tech)


@pytest.fixture(scope="session")
def evaluator(tech, library):
    return WaveformEvaluator(tech, library=library)
