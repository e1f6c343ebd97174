"""The paper's core contribution: scheme-switching CKKS bootstrapping."""

from .fanout import PRIMARY, CommLog, Fault, FaultInjector, FaultTolerantFanout
from .functional import relu_fn, sigmoid_fn, sign_fn
from .keys import KeySizeAudit, SwitchingKeySet, conventional_bootstrap_key_bytes
from .luts import (
    ALGORITHM2,
    RELU,
    SIGMOID,
    SIGN,
    WORKLOADS,
    LutRegistry,
    LutSpec,
    build_functional_lut,
    functional_lut_g,
    quantized,
    threshold,
)
from .mp_executor import ProcessPoolFanoutExecutor
from .pipeline import (
    BootstrapPipeline,
    BootstrapTrace,
    Executor,
    LocalExecutor,
    expected_k_prime_std,
    run_batch,
)
from .scheduler import (
    BootstrapSchedule,
    NodeAssignment,
    make_schedule,
    pick_recovery_node,
)

__all__ = [
    "BootstrapPipeline",
    "BootstrapTrace",
    "CommLog",
    "Executor",
    "Fault",
    "FaultInjector",
    "FaultTolerantFanout",
    "LocalExecutor",
    "PRIMARY",
    "ProcessPoolFanoutExecutor",
    "expected_k_prime_std",
    "run_batch",
    "relu_fn",
    "sigmoid_fn",
    "sign_fn",
    "ALGORITHM2",
    "LutRegistry",
    "LutSpec",
    "RELU",
    "SIGMOID",
    "SIGN",
    "WORKLOADS",
    "build_functional_lut",
    "functional_lut_g",
    "quantized",
    "threshold",
    "KeySizeAudit",
    "SwitchingKeySet",
    "conventional_bootstrap_key_bytes",
    "BootstrapSchedule",
    "NodeAssignment",
    "make_schedule",
    "pick_recovery_node",
]
