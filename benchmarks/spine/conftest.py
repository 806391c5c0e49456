"""Keep the spine's self-test out of the repository's default test run.

``test_spine.py`` drives ``run.py --smoke`` in child processes, and its
answer checks run against a timed server; that belongs to
``python -m pytest benchmarks/spine -q``, not to a bare ``pytest`` from the
root (which has no ``testpaths`` and would collect it).
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    named = [Path(str(arg).split("::")[0]).resolve() for arg in config.args]
    if not any(path == HERE or HERE in path.parents for path in named):
        return True
    return None
