# Anchors pytest's rootdir and puts the repo root on sys.path so test
# modules can import shared fixtures from each other.

import os

import pytest


@pytest.fixture
def subprocess_env():
    """Return a builder of environments for child interpreters.

    The child imports the same ``tsm`` as this process: the absolute source
    root of the imported package is prepended to ``PYTHONPATH``, so a
    relative entry such as ``src`` no longer matters once the child runs
    in another cwd. Keyword arguments are set as extra variables.
    """
    import tsm

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(tsm.__file__)))

    def build(**extra):
        env = dict(os.environ, **extra)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (source_root + os.pathsep + existing
                             if existing else source_root)
        return env

    return build


@pytest.fixture
def market_params_count(monkeypatch):
    """A one-item list counting MarketParams constructions during the test."""
    from tsm.core import MarketParams

    count = [0]
    original = MarketParams.__post_init__

    def counting(params):
        count[0] += 1
        original(params)

    monkeypatch.setattr(MarketParams, "__post_init__", counting)
    return count
