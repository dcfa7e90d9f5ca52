"""Bounded-staleness degraded reads when admission control sheds.

The cache remembers recent read-only results together with the time
their data was current as of (``as_of``). When the engine server sheds a
statement (OverloadError), a read may be answered from that memory as
long as capture-time staleness plus entry age — ``now - as_of`` — stays
within ``degraded_staleness``: a *declared* bounded-staleness answer
instead of an error. Writes always surface the OverloadError.
"""

from __future__ import annotations

import pytest

from repro.errors import OverloadError
from repro.mtcache.cache_server import _degraded_key
from repro.resilience import AdmissionController

pytestmark = pytest.mark.overload

SELECT = "SELECT cname FROM Cust1000 WHERE cid = @cid"


def overload(cache):
    """Attach an admission gate that deterministically sheds everything
    (burst=0: the bucket is born past the hard bound)."""
    cache.server.admission = AdmissionController(
        cache.server.clock, rate=0.001, burst=0.0, name=cache.name
    )


class TestDegradedReads:
    def test_fresh_cached_result_served_under_overload(self, deployment, cache):
        live = cache.execute(SELECT, {"cid": 7})
        assert live.rows == [("cust7",)]
        overload(cache)
        degraded = cache.execute(SELECT, {"cid": 7})
        assert degraded.rows == live.rows
        assert cache.degraded_reads == 1
        assert cache.server.metrics.counter("overload.degraded_reads").value == 1

    def test_unseen_read_still_sheds(self, deployment, cache):
        overload(cache)
        with pytest.raises(OverloadError) as excinfo:
            cache.execute(SELECT, {"cid": 7})
        assert excinfo.value.transient
        assert cache.degraded_reads == 0

    def test_entry_past_the_staleness_bound_is_not_served(self, deployment, cache):
        cache.execute(SELECT, {"cid": 7})
        overload(cache)
        deployment.clock.advance(cache.degraded_staleness + 0.1)
        with pytest.raises(OverloadError):
            cache.execute(SELECT, {"cid": 7})

    def test_capture_time_replication_lag_counts_against_the_bound(
        self, deployment, cache
    ):
        """An entry captured while replication was lagging has already
        spent part of its staleness budget: age + lag-at-capture must
        stay within the bound, so a lagging capture expires sooner."""
        self._capture_with_lag(deployment, cache, lag=4.0)
        overload(cache)
        deployment.clock.advance(2.0)  # age 2s + lag 4s > bound 5s
        with pytest.raises(OverloadError):
            cache.execute(SELECT, {"cid": 7})

    def test_capture_within_the_bound_after_lag_is_served(self, deployment, cache):
        """The mirror case: age 2s + lag 2s stays within the 5s bound."""
        live = self._capture_with_lag(deployment, cache, lag=2.0)
        overload(cache)
        deployment.clock.advance(2.0)
        assert cache.execute(SELECT, {"cid": 7}).rows == live.rows
        assert cache.degraded_reads == 1

    @staticmethod
    def _capture_with_lag(deployment, cache, lag):
        """Capture SELECT's result, then re-stamp its entry as captured
        while replication lagged ``lag`` seconds behind the clock."""
        live = cache.execute(SELECT, {"cid": 7})
        key = _degraded_key(SELECT, {"cid": 7})
        _, result = cache._degraded_results.get(key)
        cache._degraded_results[key] = (deployment.clock.now() - lag, result)
        return live

    def test_writes_always_surface_the_overload_error(self, deployment, cache):
        overload(cache)
        with pytest.raises(OverloadError):
            cache.execute("UPDATE customer SET cname = 'x' WHERE cid = 1")
        assert cache.degraded_reads == 0

    def test_degradation_ends_when_admission_recovers(self, deployment, cache):
        live = cache.execute(SELECT, {"cid": 9})
        overload(cache)
        degraded = cache.execute(SELECT, {"cid": 9})
        assert degraded.rows == live.rows
        cache.server.admission = None
        fresh = cache.execute(SELECT, {"cid": 9})
        assert fresh.rows == live.rows
        assert cache.degraded_reads == 1  # only the overloaded call degraded
