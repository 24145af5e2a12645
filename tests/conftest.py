import gc
import pathlib
import sys

import pytest
import yaml

from ctxflow import files

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Tests draw generated bundles from the benchmark's generator.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

# libyaml's loader where PyYAML has it, and always the pure-Python fallback.
LOADERS = ([yaml.CSafeLoader] if yaml.__with_libyaml__ else []) + [yaml.SafeLoader]


@pytest.fixture(scope="module", params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request):
    """Parse every document with each loader in turn."""
    saved = files._Loader
    files._Loader = request.param
    yield request.param
    files._Loader = saved


@pytest.fixture
def collections_during():
    """Call ``func(*args)`` and give its result with the generation of each
    cyclic collection that started inside ``func``."""
    def watch(func, *args):
        starts = []

        def started(phase, info):
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                if frame.f_code is func.__code__:
                    starts.append(info["generation"])
                    return
                frame = frame.f_back

        gc.callbacks.append(started)
        try:
            return func(*args), starts
        finally:
            gc.callbacks.remove(started)

    return watch


@pytest.fixture
def kiosk_dir():
    return FIXTURES / "kiosk"


@pytest.fixture
def kiosk_bundle(kiosk_dir):
    return kiosk_dir / "bundle.yaml"


@pytest.fixture
def ideal_bundle(kiosk_dir):
    return kiosk_dir / "ideal-bundle.yaml"


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdict lines collected by test_acceptance."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)
