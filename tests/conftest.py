"""Shared test setup."""

import pytest

from sasakijoin import cscrays


@pytest.fixture(autouse=True)
def _uncached_family_certificates():
    """Start every test without cached family certificates, so that a test
    which patches a certificate's checks sees them run."""
    cscrays._certified_structure.cache_clear()
