"""Testing infrastructure shared by the runtime and the test suite.

:mod:`repro.testing.faults` provides the deterministic fault-injection
layer: the crash-safe runtime (checkpointing, the parallel executor, the
training loop) declares named *fault points*, and chaos tests activate
:class:`FaultPlan` rules to fire worker crashes, transient errors, and
checkpoint corruption at exact, reproducible moments.
"""

from repro.testing.faults import (
    CheckpointFault,
    FaultPlan,
    InjectedFault,
    TransientFault,
    WorkerCrash,
    active_plan,
    fault_point,
    flip_byte,
    inject,
    truncate_file,
)

__all__ = [
    "CheckpointFault",
    "FaultPlan",
    "InjectedFault",
    "TransientFault",
    "WorkerCrash",
    "active_plan",
    "fault_point",
    "flip_byte",
    "inject",
    "truncate_file",
]
