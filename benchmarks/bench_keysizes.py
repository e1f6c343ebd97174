"""Section III-C size audit: ciphertext/key sizes, the 18x key-traffic
reduction claim, and the seeded (seed+``b``) at-rest sizes.

Emits ``BENCH_keysizes.json`` through the shared ``write_bench_json``
harness (so every run also lands in ``benchmarks/out/trajectory.jsonl``)
with three sections:

* the paper's size audit (model formula vs paper number, rel 12% gate);
* seed+b at-rest sizes — the formula at paper parameters *and* a
  measured compression ratio from real toy-parameter keys
  (``SwitchingKeySet.generate().compress()``), gated >= 1.9x;
* key-streaming lower bounds at 460 GB/s HBM for the conventional,
  scheme-switching, and seeded-at-rest key volumes.

Run with ``PYTHONPATH=src python benchmarks/bench_keysizes.py`` (or via
pytest).  ``--quick`` skips the toy keygen measurement (formula and
audit gates still enforced).
"""

import os
import sys

try:
    from conftest import emit
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

from _timing import write_bench_json

from repro.analysis import format_table, key_size_table
from repro.ckks import CkksContext, CkksKeyGenerator
from repro.hardware import (
    ConventionalKeyTraffic,
    bootstrap_hbm_seconds,
    key_traffic_reduction,
    scheme_switching_key_bytes,
    seeded_scheme_switching_key_bytes,
)
from repro.math.sampling import Sampler
from repro.params import make_heap_params, make_toy_params

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_keysizes.json")

HBM_BPS = 460e9


def _measured_toy_ratio():
    """Compression measured on real keys, not the formula: generate a
    toy-parameter switching key set and compare its expanded resident
    bytes against the compressed seed+``b`` material."""
    from repro.switching.keys import SwitchingKeySet

    params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    sk = CkksKeyGenerator(ctx, Sampler(501)).secret_key()
    swk = SwitchingKeySet.generate(ctx, sk, base_bits=4, error_std=0.8,
                                   key_seed=99)
    material = swk.compress()
    return swk.resident_bytes(), material.resident_bytes()


def _run(quick=False):
    params = make_heap_params()
    log_q = params.ckks.log_q_total

    # -- paper audit --------------------------------------------------------
    headers, rows = key_size_table()
    for r in rows:
        rel = abs(r["Model"] - r["Paper"]) / abs(r["Paper"])
        assert rel < 0.12, (r["Quantity"], r["Model"], r["Paper"])

    # -- seeded at-rest sizes ----------------------------------------------
    ss_bytes = scheme_switching_key_bytes(params.tfhe, log_q)
    seeded_bytes = seeded_scheme_switching_key_bytes(params.tfhe, log_q)
    formula_ratio = ss_bytes / seeded_bytes
    assert formula_ratio >= 1.9, formula_ratio
    seeded_rows = [
        {"Quantity": "seeded brk at rest (GB)",
         "Model": round(seeded_bytes / 1e9, 2), "Paper": None},
        {"Quantity": "seed+b compression (x)",
         "Model": round(formula_ratio, 2), "Paper": None},
    ]
    measured = None
    if not quick:
        expanded_b, at_rest_b = _measured_toy_ratio()
        measured_ratio = expanded_b / at_rest_b
        assert measured_ratio >= 1.9, measured_ratio
        measured = {"expanded_bytes": expanded_b, "at_rest_bytes": at_rest_b,
                    "ratio": round(measured_ratio, 3)}
        seeded_rows.append(
            {"Quantity": "measured toy compression (x)",
             "Model": round(measured_ratio, 2), "Paper": None})
    all_rows = rows + seeded_rows

    # -- streaming lower bounds --------------------------------------------
    conv = ConventionalKeyTraffic()
    bounds = {
        "conventional_s": bootstrap_hbm_seconds(conv.total_bytes, HBM_BPS),
        "scheme_switching_s": bootstrap_hbm_seconds(ss_bytes, HBM_BPS),
        "seeded_at_rest_s": bootstrap_hbm_seconds(seeded_bytes, HBM_BPS),
    }
    assert bounds["conventional_s"] / bounds["scheme_switching_s"] > 15

    write_bench_json(
        JSON_PATH, "keysizes", all_rows,
        extra={"hbm_bytes_per_s": HBM_BPS,
               "streaming_lower_bounds_s":
                   {k: round(v, 6) for k, v in bounds.items()},
               "key_traffic_reduction_x":
                   round(key_traffic_reduction(params.tfhe, log_q), 1),
               "measured_toy_compression": measured})

    text = ["Section III-C: key sizes and traffic (+ seeded at-rest form)",
            format_table(headers, all_rows),
            "",
            f"Key-streaming lower bounds at {HBM_BPS / 1e9:.0f} GB/s HBM:",
            f"  conventional:     {conv.total_bytes / 1e9:>6.1f} GB -> "
            f"{bounds['conventional_s'] * 1e3:7.1f} ms",
            f"  scheme switching: {ss_bytes / 1e9:>6.2f} GB -> "
            f"{bounds['scheme_switching_s'] * 1e3:7.2f} ms",
            f"  seeded at rest:   {seeded_bytes / 1e9:>6.2f} GB -> "
            f"{bounds['seeded_at_rest_s'] * 1e3:7.2f} ms "
            "(+ on-chip mask expansion)",
            f"  reduction: "
            f"{key_traffic_reduction(params.tfhe, log_q):.1f}x (paper: ~18x)"]
    emit("keysizes", "\n".join(text))
    return all_rows


def bench_keysizes():
    _run(quick=False)


if __name__ == "__main__":
    _run(quick="--quick" in sys.argv[1:])
    print("bench_keysizes: OK")
