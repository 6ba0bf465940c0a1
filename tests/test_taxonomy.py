"""Tests for ``repro.obs.taxonomy`` — the one category and event table.

Every other category, event or column list is derived from the two
tables, so these checks cover the facts the derivations cannot: that
the tables agree with each other and with the capacity sweep.
"""

from __future__ import annotations

from repro.analysis import capacity
from repro.obs import taxonomy


def test_every_span_category_is_a_category():
    for name in taxonomy.SPAN_EVENTS:
        assert taxonomy.SPAN_CATEGORY[name] in taxonomy.CATEGORIES, name


def test_display_order_ends_with_the_fallback():
    assert taxonomy.DISPLAY_ORDER[-1] == "other"


def test_capacity_columns_are_recorded_point_fields():
    for field, _text, _title, _spec in capacity.CAPACITY_COLUMNS:
        assert field in capacity.CAPACITY_POINT_FIELDS, field
