"""The partitioned cache tier: shard routing, rebalancing, failover.

The paper's scale-out replicates the same cached views to every cache
server, so each server pays the full replication-apply cost and the tier
tops out around five servers. This example partitions instead: four
shards each subscribe to a horizontal slice of the TPC-W item table, a
shard-aware router sends single-key statements to the owning shard and
scatter-gathers scans and the best-seller aggregate (item and order_line
co-partition on the item id, so no group spans two shards), and the tier
rebalances live — all behind the same client surface every other
example uses.

Run:  python examples/sharded_tier.py
"""

from repro.client.connection import connect
from repro.faults import FaultInjector
from repro.net import register_inproc
from repro.sharding import ShardedDeployment
from repro.tpcw import TPCWConfig


def shard_hits(sharded):
    return {
        name: sharded.metrics.counter("shard.hits", labels={"shard": name}).value
        for name in sharded.partitioner.shards
    }


def main() -> None:
    config = TPCWConfig(num_items=200, num_ebs=6, seed=11)
    sharded = ShardedDeployment(config=config, shards=4)
    cursor = sharded.connect().cursor()
    register_inproc("sharded/backend", sharded.backend, database=sharded.database_name)
    backend = connect("inproc://sharded/backend").cursor()

    print("Slices (item ids per shard):")
    for name in sharded.partitioner.shards:
        low, high = sharded.partitioner.slice(name)
        print(f"  {name}: i_id BETWEEN {low} AND {high}")

    # --- Key routing ----------------------------------------------------------
    for i_id in (3, 60, 120, 190):
        owner = sharded.partitioner.owner(i_id)
        rows = cursor.execute("EXEC getBook @i_id = @i_id", {"i_id": i_id}).fetchall()
        print(f"  getBook({i_id:3d}) -> {owner}, {len(rows)} row")
    print(f"  per-shard hits: {shard_hits(sharded)}")

    # --- Scatter-gather -------------------------------------------------------
    sql = "EXEC doSubjectSearch @subject = @subject"
    routed = cursor.execute(sql, {"subject": "HISTORY"}).fetchall()
    direct = backend.execute(sql, {"subject": "HISTORY"}).fetchall()
    fanout = sharded.metrics.counter("shard.fanout").value
    print(f"\nScatter-gather: {len(routed)} rows, identical to backend: "
          f"{routed == direct} (fanout counter: {fanout})")

    # Grouped by the co-partition key: per-shard sums are the global ones.
    # Rows tied on orders_sum may come back in another order, so compare sums.
    sql = "EXEC getBestSellers @subject = @subject"
    routed = cursor.execute(sql, {"subject": "HISTORY"}).fetchall()
    direct = backend.execute(sql, {"subject": "HISTORY"}).fetchall()
    print(f"Grouped scatter (getBestSellers): {len(routed)} rows, orders_sum "
          f"identical to backend: {[r[-1] for r in routed] == [r[-1] for r in direct]}")

    # --- Live rebalancing -----------------------------------------------------
    print("\nAdding shard4 (splits the widest slice):")
    sharded.add_shard("shard4")
    sharded.sync()
    for name in sharded.partitioner.shards:
        low, high = sharded.partitioner.slice(name)
        print(f"  {name}: i_id BETWEEN {low} AND {high}")
    low, _ = sharded.partitioner.slice("shard4")
    rows = cursor.execute("EXEC getBook @i_id = @i_id", {"i_id": low}).fetchall()
    print(f"  getBook({low}) now served by shard4: {len(rows)} row, "
          f"hits={shard_hits(sharded)['shard4']}")

    # --- Shard loss -----------------------------------------------------------
    print("\nCrashing shard1; traffic degrades to the backend, never fails:")
    injector = FaultInjector(sharded.clock, seed=3)
    sharded.attach_fault_injector(injector)
    injector.crash_cache(sharded.shard("shard1"))
    low, _ = sharded.partitioner.slice("shard1")
    rows = cursor.execute("EXEC getBook @i_id = @i_id", {"i_id": low}).fetchall()
    print(f"  getBook({low}) with shard1 down -> {len(rows)} row "
          f"(failed over transparently)")
    injector.restart_cache(sharded.shard("shard1"))
    sharded.sync()
    rows = cursor.execute("EXEC getBook @i_id = @i_id", {"i_id": low}).fetchall()
    print(f"  after restart + sync       -> {len(rows)} row, served locally again")


if __name__ == "__main__":
    main()
