"""Distributed cuTS: simulated MPI, Algorithm-3 scheduler, load balance,
fault injection and crash recovery."""

from .balance import BalanceReport, balance_report
from .bulksync import BulkSyncCuTS, BulkSyncResult
from .comm import Message, NetworkModel, SimComm
from .faults import FaultInjector, FaultPlan
from .protocol import (
    BufferMeta,
    FreeNodeRegistry,
    Shipment,
    ShipmentTracker,
    StrideLedger,
    WorkEnvelope,
)
from .runtime import DistributedCuTS, DistributedResult
from .worker import RankWorker, WorkItem

__all__ = [
    "DistributedCuTS",
    "DistributedResult",
    "BulkSyncCuTS",
    "BulkSyncResult",
    "RankWorker",
    "WorkItem",
    "SimComm",
    "Message",
    "NetworkModel",
    "FaultPlan",
    "FaultInjector",
    "FreeNodeRegistry",
    "BufferMeta",
    "WorkEnvelope",
    "Shipment",
    "ShipmentTracker",
    "StrideLedger",
    "BalanceReport",
    "balance_report",
]
