"""The suite's warning policy, set by tests/conftest.py, holds inside every test."""

import warnings

import pytest


@pytest.mark.parametrize("category", [ResourceWarning, pytest.PytestUnraisableExceptionWarning])
def test_the_policy_makes_the_warning_an_error(category):
    assert ("error", category) in {(f[0], f[2]) for f in warnings.filters}
    with pytest.raises(category):  # and no earlier filter overrides that entry
        warnings.warn(category("probe"))
