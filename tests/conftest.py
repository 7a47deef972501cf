"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, with no example database and no deadline.

The opt-in `cold_fields` fixture starts a test from no interned field."""

import pytest
from hypothesis import settings

from pbelyi import field

settings.register_profile("pbelyi", derandomize=True, database=None, deadline=None)
settings.load_profile("pbelyi")


@pytest.fixture
def cold_fields():
    """Clear the canonical moduli, and with them every interned field and its
    tables, Zech logarithms and embeddings, for a test that counts field
    builds or needs a freshly built table.  Not autouse: the rest of the
    suite shares the interned fields rather than search every modulus again."""
    field._canonical_modulus.cache_clear()
