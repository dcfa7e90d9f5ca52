"""The partitioned cache tier: placement, provisioning, rebalancing.

The paper's scale-out (Figure 6) replicates the *same* articles to every
cache server, so each server pays the full apply cost and the tier tops
out where replication work saturates one cache (five servers in the
paper). This package partitions instead: each shard subscribes to a
horizontal slice of the hot tables, apply work divides across the tier,
and a shard-aware router (:class:`repro.client.shard_router.ShardRouter`) sends
single-key statements to the owning shard and scatter-gathers scans.

Placement lives in :mod:`repro.sharding.ring`; the declaration of where
data lives in :mod:`repro.sharding.policy`; the one decision of where a
statement goes in :mod:`repro.sharding.routing`; scatter-gather
decomposition in :mod:`repro.sharding.scatter`; provisioning and
rebalancing in :mod:`repro.sharding.deployment` and
:mod:`repro.sharding.rebalance`.
"""

from repro.sharding.deployment import ShardedDeployment
from repro.sharding.policy import ShardingPolicy, TablePartition, tpcw_sharding_policy
from repro.sharding.ring import RangePartitioner, stable_hash
from repro.sharding.routing import decide, procedure_routes
from repro.sharding.scatter import ScatterQuery, decompose

__all__ = [
    "RangePartitioner",
    "ScatterQuery",
    "ShardedDeployment",
    "ShardingPolicy",
    "TablePartition",
    "decide",
    "decompose",
    "procedure_routes",
    "stable_hash",
    "tpcw_sharding_policy",
]
