"""Transactional replication: publish-subscribe change propagation.

Mirrors SQL Server transactional replication as the paper describes it
(§2.2): a publisher exposes *publications* made of *articles*
(select-project expressions over tables or materialized views); a log
reader collects committed changes from the publisher's log into a
*distribution database*; one distribution agent per subscriber pushes
complete transactions **in commit order**, each applied atomically across
all of the subscriber's tables, so a subscriber always sees a
transactionally consistent — if slightly stale — state.
"""

from repro.replication.publication import Article, Publication
from repro.replication.logreader import LogReader
from repro.replication.distributor import DistributionDatabase, Distributor
from repro.replication.subscription import Subscriber, Subscription
from repro.replication.agent import DistributionAgent

__all__ = [
    "Article",
    "Publication",
    "LogReader",
    "DistributionDatabase",
    "Distributor",
    "Subscriber",
    "Subscription",
    "DistributionAgent",
]
