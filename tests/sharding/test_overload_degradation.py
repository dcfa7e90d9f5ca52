"""Graceful degradation: overloaded shards degrade to the backend.

An :class:`~repro.resilience.AdmissionController` with ``burst=0`` never
admits (its virtual queue is born past the hard bound), which makes shard
overload deterministic: attach it to a shard's engine server and every
statement that shard would run is shed with ``OverloadError`` before any
effect — exactly the situation the router must absorb.
"""

from __future__ import annotations

import pytest

from repro.client.connection import connect
from repro.resilience import AdmissionController

pytestmark = [pytest.mark.shard, pytest.mark.overload]


def _always_shed_gate(clock, name="shard"):
    # burst=0: the bucket can never hold a token, so the projected delay
    # is always past the hard bound and every request sheds.
    return AdmissionController(clock, rate=0.001, burst=0.0, name=name)


@pytest.fixture
def overloaded_shard(sharded):
    """Overload the shard owning item 7; restore on teardown."""
    owner = sharded.partitioner.owner(7)
    cache = sharded.shard(owner)
    cache.server.admission = _always_shed_gate(sharded.clock, owner)
    yield owner, cache
    cache.server.admission = None


def test_key_route_degrades_to_backend_when_shard_sheds(
    sharded, router, overloaded_shard
):
    owner, cache = overloaded_shard
    backend = connect(sharded.backend, database=sharded.database_name)
    expected = backend.cursor().execute("EXEC getStock @i_id = @i_id", {"i_id": 7}).result.rows
    degraded_before = sharded.metrics.counter(
        "overload.degraded_scatter", labels={"shard": owner}
    ).value
    actual = router.execute("EXEC getStock @i_id = @i_id", {"i_id": 7}).rows
    assert actual == expected
    assert (
        sharded.metrics.counter(
            "overload.degraded_scatter", labels={"shard": owner}
        ).value
        == degraded_before + 1
    )


def test_scatter_degrades_only_the_overloaded_slice(
    sharded, router, overloaded_shard
):
    owner, cache = overloaded_shard
    backend = connect(sharded.backend, database=sharded.database_name)
    expected = backend.cursor().execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).result.rows
    actual = router.execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).rows
    assert actual == expected
    # Exactly the overloaded shard's slice was degraded; the other
    # shards served theirs locally.
    assert (
        sharded.metrics.counter(
            "overload.degraded_scatter", labels={"shard": owner}
        ).value
        >= 1
    )


def test_writes_are_never_dropped_under_shard_overload(
    sharded, router, overloaded_shard
):
    """A write routed at an overloaded shard still lands exactly once
    (on the backend): OverloadError fires before effects, so the
    degraded re-run cannot double-apply."""
    owner, cache = overloaded_shard
    # addr_id is partitioned? Use a backend-routed write through the
    # router on the overloaded deployment: it must succeed exactly once.
    router.execute(
        "UPDATE item SET i_stock = 77 WHERE i_id = @i_id", {"i_id": 7}
    )
    backend = connect(sharded.backend, database=sharded.database_name)
    rows = backend.cursor().execute(
        "SELECT i_stock FROM item WHERE i_id = @i_id", {"i_id": 7}
    ).result.rows
    assert rows == [(77,)]
