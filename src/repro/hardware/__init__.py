"""HEAP accelerator performance model: single FPGA, cluster, baselines."""

from .area import AreaPoint, area_comparison, heap_area, heap_within_asic_envelope
from .baselines import (
    BOOTSTRAP_SHARE,
    HEAP_BOOTSTRAP_SPLIT_MS,
    HEAP_LR_ITER_S,
    HEAP_NTT_THROUGHPUT,
    HEAP_RESNET_S,
    HEAP_TABLE3,
    HEAP_TABLE5,
    TABLE3_REFERENCES,
    TABLE4_REFERENCES,
    TABLE5_REFERENCES,
    TABLE6_REFERENCES,
    TABLE7_REFERENCES,
    TABLE8_PAPER,
    ReferencePoint,
    reference_by_name,
)
from .cluster import BootstrapBreakdown, ClusterBootstrapModel
from .config import EIGHT_FPGA, SINGLE_FPGA, ClusterConfig, HeapHwConfig
from .fpga import CalibrationEntry, SingleFpgaModel
from .memory_layout import BramLayout, NttAddressGenerator, UramLayout, WordCoordinate
from .metrics import (
    compute_to_bootstrap_ratio,
    cycle_speedup,
    geometric_mean,
    speedup,
    t_mult_a_slot,
)
from .opmodel import HeapOpModel, OpCost
from .resources import PAPER_UTILIZED, U280_AVAILABLE, ResourceModel, ResourceReport
from .simulator import BootstrapEventSimulator, SimulationResult, TimelineEvent
from .traffic import (
    ConventionalKeyTraffic,
    key_traffic_reduction,
    scheme_switching_key_bytes,
)

__all__ = [
    "AreaPoint",
    "area_comparison",
    "heap_area",
    "heap_within_asic_envelope",
    "BramLayout",
    "NttAddressGenerator",
    "UramLayout",
    "WordCoordinate",
    "BootstrapEventSimulator",
    "SimulationResult",
    "TimelineEvent",
    "BOOTSTRAP_SHARE",
    "HEAP_BOOTSTRAP_SPLIT_MS",
    "HEAP_LR_ITER_S",
    "HEAP_NTT_THROUGHPUT",
    "HEAP_RESNET_S",
    "HEAP_TABLE3",
    "HEAP_TABLE5",
    "TABLE3_REFERENCES",
    "TABLE4_REFERENCES",
    "TABLE5_REFERENCES",
    "TABLE6_REFERENCES",
    "TABLE7_REFERENCES",
    "TABLE8_PAPER",
    "ReferencePoint",
    "reference_by_name",
    "BootstrapBreakdown",
    "ClusterBootstrapModel",
    "EIGHT_FPGA",
    "SINGLE_FPGA",
    "ClusterConfig",
    "HeapHwConfig",
    "CalibrationEntry",
    "SingleFpgaModel",
    "compute_to_bootstrap_ratio",
    "cycle_speedup",
    "geometric_mean",
    "speedup",
    "t_mult_a_slot",
    "HeapOpModel",
    "OpCost",
    "PAPER_UTILIZED",
    "U280_AVAILABLE",
    "ResourceModel",
    "ResourceReport",
    "ConventionalKeyTraffic",
    "key_traffic_reduction",
    "scheme_switching_key_bytes",
]
