"""Hardware configuration of the HEAP accelerator (paper Sections IV-V).

Every number here is taken from the paper's description of the Alveo
U280 mapping: 512 modular arithmetic units at 7 cycles per scalar op,
512 automorph lanes covering 16 elements each, 32 AXI ports into two
HBM2 stacks (460 GB/s), a 100 Gb/s CMAC link needing 458 kernel cycles
per RLWE ciphertext, 300 MHz kernel / 450 MHz memory clocks, and the
URAM/BRAM geometry of Figures 2-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParameterError


@dataclass(frozen=True)
class HeapHwConfig:
    """Static description of one HEAP FPGA instance."""

    # Clocks (Section IV-B / VI).
    kernel_freq_hz: float = 300e6
    mem_freq_hz: float = 450e6
    cmac_freq_hz: float = 322e6

    # Functional units (Section IV-A).
    num_mod_units: int = 512
    modop_latency_cycles: int = 7
    num_automorph_units: int = 512
    automorph_elems_per_unit: int = 16

    # Main memory (Section V).
    hbm_bandwidth_bytes_per_s: float = 460e9
    hbm_capacity_bytes: int = 8 * 2**30
    axi_ports: int = 32
    axi_width_bits: int = 256

    # Network (Section V).
    cmac_gbps: float = 100.0
    cycles_per_rlwe_tx: int = 458

    # On-chip memory (Section IV-C).
    uram_blocks_used: int = 960
    uram_blocks_available: int = 962
    uram_words: int = 4096
    uram_word_bits: int = 72
    bram_blocks_used: int = 3840
    bram_blocks_available: int = 4032
    bram_words: int = 1024
    bram_word_bits: int = 18  # BRAM18 primitive: each address holds half a coefficient

    # Register files and FIFOs (Section IV-B).
    register_file_bytes: int = 1 * 2**20
    rd_fifo_depth: int = 512
    wr_fifo_depth: int = 128
    num_fifos: int = 32

    def __post_init__(self):
        if self.num_mod_units <= 0 or self.kernel_freq_hz <= 0:
            raise ParameterError("invalid hardware configuration")

    # -- derived quantities ---------------------------------------------------------

    @property
    def uram_bytes(self) -> int:
        return self.uram_blocks_used * self.uram_words * self.uram_word_bits // 8

    @property
    def bram_bytes(self) -> int:
        return self.bram_blocks_used * self.bram_words * self.bram_word_bits // 8

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip storage; the paper quotes ~43 MB per FPGA."""
        return self.uram_bytes + self.bram_bytes + self.register_file_bytes

    @property
    def hbm_bytes_per_cycle(self) -> float:
        """HBM throughput normalised to kernel cycles."""
        return self.hbm_bandwidth_bytes_per_s / self.kernel_freq_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.kernel_freq_hz


@dataclass(frozen=True)
class ClusterConfig:
    """A multi-FPGA HEAP deployment (Section V: one primary + secondaries)."""

    node: HeapHwConfig = field(default_factory=HeapHwConfig)
    num_nodes: int = 8

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ParameterError("cluster needs at least one node")


#: The two deployments evaluated in the paper.
SINGLE_FPGA = ClusterConfig(num_nodes=1)
EIGHT_FPGA = ClusterConfig(num_nodes=8)
