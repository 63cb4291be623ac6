"""A test under ``tests/`` that leaks a process or a pipe fails: its
ResourceWarning is an error, also where it is raised in a finalizer,
which pytest reports as an unraisable exception."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(_HERE):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
