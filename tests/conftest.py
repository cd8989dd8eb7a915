"""Test tiers: every item of ``test_acceptance.py`` carries the ``acceptance`` marker.

``pytest -m "not acceptance"`` runs the fast tier; plain ``pytest`` runs
everything.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
