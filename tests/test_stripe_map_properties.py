"""Property-based tests (hypothesis) for the striped address map.

The :class:`~repro.disk.geometry.StripeMap` is the foundation the whole
multi-device layer stands on: the array's request routing, the per-device
elevators, and the push pipeline's one-fetch-per-extent guarantee all
assume the map is a *total, stable, balanced partition* of the global
page space.  These tests state those words as executable properties over
arbitrary (device count, stripe size, page) triples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SharingConfig
from repro.disk.geometry import StripeMap
from repro.engine.database import Database, SystemConfig

from tests.conftest import simple_table_schema

maps = st.builds(
    StripeMap,
    n_devices=st.integers(min_value=1, max_value=8),
    stripe_pages=st.integers(min_value=1, max_value=64),
)
pages = st.integers(min_value=0, max_value=8192)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(stripe_map=maps, page=pages)
    def test_locate_then_global_of_is_identity(self, stripe_map, page):
        device, local = stripe_map.locate(page)
        assert stripe_map.global_of(device, local) == page

    @settings(max_examples=200, deadline=None)
    @given(
        stripe_map=maps,
        device=st.integers(min_value=0, max_value=7),
        local=st.integers(min_value=0, max_value=4096),
    )
    def test_global_of_then_locate_is_identity(self, stripe_map, device, local):
        if device >= stripe_map.n_devices:
            with pytest.raises(ValueError):
                stripe_map.global_of(device, local)
            return
        page = stripe_map.global_of(device, local)
        assert stripe_map.locate(page) == (device, local)


class TestPartition:
    @settings(max_examples=100, deadline=None)
    @given(stripe_map=maps, page=pages)
    def test_total_every_page_has_exactly_one_home(self, stripe_map, page):
        device, local = stripe_map.locate(page)
        assert 0 <= device < stripe_map.n_devices
        assert local >= 0
        # Same call, same answer: the map holds no state to drift.
        assert stripe_map.locate(page) == (device, local)

    @settings(max_examples=50, deadline=None)
    @given(
        stripe_map=maps,
        total=st.integers(min_value=1, max_value=1024),
    )
    def test_injective_over_a_prefix(self, stripe_map, total):
        homes = {stripe_map.locate(page) for page in range(total)}
        assert len(homes) == total

    @settings(max_examples=100, deadline=None)
    @given(stripe_map=maps, page=pages)
    def test_contiguous_within_a_stripe(self, stripe_map, page):
        """Pages of one stripe land on one device at consecutive locals."""
        run = stripe_map.run_on_device(page, stripe_map.stripe_pages * 2)
        device, local = stripe_map.locate(page)
        for offset in range(run):
            assert stripe_map.locate(page + offset) == (device, local + offset)


class TestBalance:
    @settings(max_examples=100, deadline=None)
    @given(
        stripe_map=maps,
        n_stripes=st.integers(min_value=0, max_value=64),
        tail=st.integers(min_value=0, max_value=63),
    )
    def test_loads_balanced_within_one_stripe(self, stripe_map, n_stripes, tail):
        total = n_stripes * stripe_map.stripe_pages + min(
            tail, stripe_map.stripe_pages - 1
        )
        loads = [0] * stripe_map.n_devices
        for page in range(total):
            loads[stripe_map.locate(page)[0]] += 1
        assert sum(loads) == total
        assert len(loads) == stripe_map.n_devices
        # Round-robin placement: no device is more than one stripe unit
        # ahead of any other.
        assert max(loads) - min(loads) <= stripe_map.stripe_pages


class TestConfigStability:
    @settings(max_examples=10, deadline=None)
    @given(
        n_disks=st.integers(min_value=1, max_value=4),
        stripe_extents=st.integers(min_value=1, max_value=3),
    )
    def test_reopening_same_config_rebuilds_the_same_map(
        self, n_disks, stripe_extents
    ):
        """Two databases from one SystemConfig agree on every placement:
        the stripe map is a pure function of the config."""

        def build():
            config = SystemConfig(
                n_cpus=1, pool_pages=32,
                sharing=SharingConfig(), extent_size=8,
                n_disks=n_disks, stripe_extents=stripe_extents,
            )
            db = Database(config)
            db.create_table(simple_table_schema("t"), n_pages=64)
            return db.open()

        first, second = build(), build()
        map_a = first.disk.stripe_map if n_disks > 1 else None
        map_b = second.disk.stripe_map if n_disks > 1 else None
        if n_disks == 1:
            # A single device needs no striping; nothing to compare.
            return
        assert map_a == map_b
        assert map_a.stripe_pages == stripe_extents * 8
        for page in range(64):
            assert map_a.locate(page) == map_b.locate(page)
