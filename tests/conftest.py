import os
from pathlib import Path

import pytest

import mha_nw_lab


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def configs_dir(repo_root) -> Path:
    return repo_root / "configs"


@pytest.fixture(scope="session")
def package_env():
    """``package_env(**overrides)``: this environment plus ``overrides``, with
    the imported package's source directory first on PYTHONPATH, so that a
    child ``python -m mha_nw_lab`` runs it in a checkout that is not installed
    (pyproject's ``pythonpath`` reaches only the pytest process)."""
    src = str(Path(mha_nw_lab.__file__).resolve().parents[1])

    def env(**overrides):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path, **overrides)

    return env
