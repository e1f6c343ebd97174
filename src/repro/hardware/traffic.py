"""Main-memory key-traffic accounting (paper Sections III-C and IV-E).

Two headline claims are reproduced here:

* conventional CKKS bootstrapping reads ~**32 GB** of key material per
  bootstrap (25 switching keys of ~126 MB, each re-read across the
  hundreds of KeySwitch operations inside CoeffToSlot / EvalMod /
  SlotToCoeff), whereas
* scheme-switching bootstrapping reads the **1.76 GB** blind-rotate key
  set exactly once (the Section IV-E batch schedule uses each ``brk_i``
  once per batch and discards it), i.e. ~**18x** less key traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import TfheParams

GB = float(2**30)
MB = float(2**20)


@dataclass(frozen=True)
class ConventionalKeyTraffic:
    """Key traffic of the conventional bootstrap (paper's accounting)."""

    key_bytes: float = 126 * MB   # one switching key at bootstrappable params
    num_unique_keys: int = 25     # 24 rotation keys + 1 relin key [1]
    #: Total key reads per bootstrap; the paper's ~32 GB over 126 MB keys
    #: implies each key is streamed ~10x across the bootstrap pipeline
    #: (every BSGS rotation in the linear transforms re-fetches its key).
    refetch_factor: float = 32 * GB / (25 * 126 * MB)

    @property
    def unique_bytes(self) -> float:
        return self.key_bytes * self.num_unique_keys

    @property
    def total_bytes(self) -> float:
        return self.unique_bytes * self.refetch_factor


def scheme_switching_key_bytes(tfhe: TfheParams, log_q_total: int) -> float:
    """Total brk bytes (read once per bootstrap): ``n_t`` RGSW pairs with
    full-``Q`` coefficients — the paper's 3.52 MB x 500 = 1.76 GB."""
    rows = (tfhe.glwe_mask + 1) * tfhe.decomp_digits
    cols = tfhe.glwe_mask + 1
    pair_bytes = 2 * rows * cols * tfhe.n * log_q_total / 8.0
    return tfhe.n_t * pair_bytes


def key_traffic_reduction(tfhe: TfheParams, log_q_total: int,
                          conventional: ConventionalKeyTraffic = ConventionalKeyTraffic(),
                          ) -> float:
    """The paper's ~18x claim."""
    return conventional.total_bytes / scheme_switching_key_bytes(tfhe, log_q_total)
