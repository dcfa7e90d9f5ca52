"""TPC-W: the transactional web benchmark used in the paper's evaluation.

Implements the bookstore schema (items, authors, customers, addresses,
orders, order lines, credit-card transactions, plus shopping carts), a
scaled-down data generator, the fourteen web interactions as stored
procedures plus application logic, and the three benchmark mixes
(Browsing 95/5, Shopping 80/20, Ordering 50/50 Browse/Order).
"""

from repro.tpcw.config import SUBJECTS, TPCWConfig
from repro.tpcw.schema import SCHEMA_SQL, create_schema
from repro.tpcw.datagen import populate
from repro.tpcw.procedures import (
    CACHE_PROCEDURES,
    UPDATE_DOMINATED_PROCEDURES,
    install_procedures,
    procedure_definitions,
)
from repro.tpcw.workload import (
    BROWSE_INTERACTIONS,
    INTERACTIONS,
    MIXES,
    ORDER_INTERACTIONS,
    WorkloadMix,
    browse_order_split,
)
from repro.tpcw.application import TPCWApplication
from repro.tpcw.setup import CACHED_VIEW_DDL, build_backend, enable_caching

__all__ = [
    "TPCWConfig",
    "SUBJECTS",
    "SCHEMA_SQL",
    "create_schema",
    "populate",
    "install_procedures",
    "procedure_definitions",
    "CACHE_PROCEDURES",
    "UPDATE_DOMINATED_PROCEDURES",
    "INTERACTIONS",
    "BROWSE_INTERACTIONS",
    "ORDER_INTERACTIONS",
    "MIXES",
    "WorkloadMix",
    "browse_order_split",
    "TPCWApplication",
    "build_backend",
    "enable_caching",
    "CACHED_VIEW_DDL",
]
