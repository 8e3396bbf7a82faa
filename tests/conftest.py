import os

import pytest

import cogalloc
from cogalloc import default_system_params


@pytest.fixture
def params():
    return default_system_params()


@pytest.fixture
def geom(params):
    return params.geometry()


@pytest.fixture
def src_env():
    """Environment for a child interpreter that must import cogalloc: it
    sees only its own sys.path, so the package's source directory goes on
    PYTHONPATH, as pytest's ``pythonpath`` setting does for this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cogalloc.__file__)))
    return dict(os.environ, PYTHONPATH=src)
