import os
from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bless",
        action="store_true",
        default=False,
        help="rewrite golden files under tests/golden/ from current CLI output",
    )


@pytest.fixture
def bless(request):
    return request.config.getoption("--bless")


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """The CLI tests run ``python -m degenbern`` in a child process; give
    the child the package these tests import, so that a plain ``pytest``
    in a checkout needs neither an install nor ``PYTHONPATH``."""
    import degenbern

    root = str(Path(degenbern.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, inherited])))
        yield
