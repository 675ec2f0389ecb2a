"""Simulated MPI runtime: a deterministic discrete-event MPI in pure Python.

This package substitutes for the paper's MPICH2/TSUBAME2 execution
environment. Rank programs are generator coroutines scheduled by
:class:`~repro.simmpi.engine.Engine`; the API mirrors mpi4py (``send`` /
``recv`` / ``isend`` / collectives / ``split``), collectives use MPICH2's
algorithms so traces show the same structure the paper reports, and every
message is byte-accurately recorded by
:class:`~repro.simmpi.tracing.TraceRecorder`.
"""

from repro.simmpi.comm import Communicator
from repro.simmpi.config import EngineConfig
from repro.simmpi.engine import Engine, KernelLoop, RankContext, run_program
from repro.simmpi.reference import ReferenceEngine
from repro.simmpi.schedule import ScheduleTrace
from repro.simmpi.shard import ShardedEngine, partition_workload
from repro.simmpi.errors import (
    CommunicatorError,
    DeadlockError,
    RankFailedError,
    SimMPIError,
)
from repro.simmpi.network import LinkParameters, NetworkModel, zero_latency_network
from repro.simmpi.request import (
    ANY_SOURCE,
    ANY_TAG,
    MessagePool,
    MessageView,
    PersistentRecvRequest,
    PersistentSendRequest,
    Status,
    nbytes_of,
)
from repro.simmpi.tracing import TraceRecorder
from repro.simmpi import collectives

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "CommunicatorError",
    "DeadlockError",
    "Engine",
    "EngineConfig",
    "KernelLoop",
    "LinkParameters",
    "MessagePool",
    "MessageView",
    "NetworkModel",
    "PersistentRecvRequest",
    "PersistentSendRequest",
    "RankContext",
    "RankFailedError",
    "ReferenceEngine",
    "ScheduleTrace",
    "ShardedEngine",
    "SimMPIError",
    "Status",
    "TraceRecorder",
    "collectives",
    "nbytes_of",
    "partition_workload",
    "run_program",
    "zero_latency_network",
]
