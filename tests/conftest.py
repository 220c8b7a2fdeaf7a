"""Fixtures shared by the test modules."""

import pytest

from gme_maps import criteria


@pytest.fixture
def fresh_maps():
    """`criteria.build_map` builds afresh in the test and keeps nothing after
    it: a test that patches a name a build or a first application reads
    sees its patch used, and leaves no shared map with data worked out
    under the patch."""
    criteria._built.cache_clear()
    yield
    criteria._built.cache_clear()
