"""Streaming correlation model of the analog front end.

Models the analog channel pair performing the correlation numerator on
diagonal sample streams: a causal moving-average filter replaces the block
mean (so mean removal runs sample by sample), a multiplier forms the
products, and an integrator accumulates them. Gaussian noise scaled by the
clean product RMS is injected at the multiplier (per sample) and at the
integrator readout (once, scaled by sqrt(N)). Normalization stays digital
and noiseless: denominators come from exact diagonal variance terms.

Also carries the supporting analog-budget operations: RMS, dynamic-range to
noise-fraction conversion, and the per-component power budget.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .diagonal import DiagTables, _window_view
from .images import GrayImage
from .ncc import EPS_VAR, CorrelationMap, OpCounter, ShiftRange, _correlation_map, _open_kernel

MULTIPLIER_STAGE = 0
INTEGRATOR_STAGE = 1


@dataclass(frozen=True)
class MovingAverageConfig:
    """Causal low-pass used for streaming mean removal.

    kind "boxcar": mean over the trailing ``window_len`` samples, with a
    growing window during warmup. kind "pole": the one-pole recurrence
    y[-1] = x[0], y[k] = alpha * x[k] + (1 - alpha) * y[k-1].
    """

    kind: str
    window_len: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "boxcar":
            if self.window_len is None or self.window_len < 1:
                raise ValueError(f"boxcar window_len must be >= 1, got {self.window_len}")
        elif self.kind == "pole":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"single-pole alpha must be in (0, 1], got {self.alpha}")
        else:
            raise ValueError(f"unknown moving-average kind {self.kind!r}")

    @classmethod
    def boxcar(cls, window_len: int) -> "MovingAverageConfig":
        return cls(kind="boxcar", window_len=window_len)

    @classmethod
    def single_pole(cls, alpha: float) -> "MovingAverageConfig":
        return cls(kind="pole", alpha=alpha)

    @classmethod
    def parse(cls, text: str) -> "MovingAverageConfig":
        """Parse 'boxcar:L' or 'pole:ALPHA'."""
        kind, sep, arg = text.partition(":")
        if not sep:
            raise ValueError(f"moving-average spec {text!r} must be 'boxcar:L' or 'pole:ALPHA'")
        if kind not in ("boxcar", "pole"):
            raise ValueError(f"unknown moving-average kind {kind!r}")
        try:
            value = int(arg) if kind == "boxcar" else float(arg)
        except ValueError as exc:
            raise ValueError(f"moving-average spec {text!r} needs a number after ':', got {arg!r}") from exc
        return cls.boxcar(value) if kind == "boxcar" else cls.single_pole(value)


def _moving_average_batch(signals: np.ndarray, config: MovingAverageConfig) -> np.ndarray:
    """Moving average along the last axis of a (..., N) array. The single
    pole runs y[-1] = x[0], y[k] = alpha * x[k] + (1 - alpha) * y[k-1] over a
    sample-major copy, one sample at a time, products formed as written."""
    x = np.asarray(signals, dtype=np.float64)
    n = x.shape[-1]
    if config.kind == "boxcar":
        length = config.window_len
        c = np.cumsum(x, axis=-1)
        out = np.empty_like(x)
        warm = min(length, n)
        out[..., :warm] = c[..., :warm] / np.arange(1, warm + 1)
        if n > length:
            out[..., length:] = (c[..., length:] - c[..., :-length]) / length
        return out
    # Rows indexed, not iterated: iterating a 1D copy yields scalar copies.
    y = np.moveaxis(x, -1, 0).copy()
    for k in range(n):
        y[k] = config.alpha * y[k] + (1.0 - config.alpha) * y[max(k - 1, 0)]
    return np.moveaxis(y, 0, -1)


def zero_mean_stream(signal, config: MovingAverageConfig) -> np.ndarray:
    """A non-empty 1D signal minus its causal moving average."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"signal must be a non-empty 1D sequence, got shape {x.shape}")
    return x - _moving_average_batch(x, config)


def rms(signal) -> float:
    """Root mean square of a non-empty sequence."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        raise ValueError("rms of an empty sequence is undefined")
    return float(np.sqrt(np.mean(x * x)))


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian circuit noise as fractions of the clean product RMS.

    Streams are counter-based: each (seed, stage, stream id) pair yields an
    independent deterministic generator, so evaluation order cannot change
    results.
    """

    multiplier_fraction: float = 0.0
    integrator_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.multiplier_fraction) and self.multiplier_fraction >= 0):
            raise ValueError(f"multiplier_fraction must be finite and >= 0, got {self.multiplier_fraction}")
        if not (np.isfinite(self.integrator_fraction) and self.integrator_fraction >= 0):
            raise ValueError(f"integrator_fraction must be finite and >= 0, got {self.integrator_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def rng(self, stage: int, stream_id: tuple[int, ...]) -> np.random.Generator:
        return np.random.default_rng((self.seed, stage) + tuple(stream_id))


# Per slot, "front ends" or a noise stage, its last call's (key, arrays, result).
_last: dict = {}


def _recall(slot, key: tuple, arrays: tuple, compute):
    """``compute()``, or the result it gave the last call on ``slot`` if that
    call had an equal ``key`` and ``arrays`` of the same shapes and bits as
    ``uint64`` views (-0.0 is not 0.0). The slot keeps read-only copies of
    the arrays; the last call's go before ``compute`` runs.

    Each copy has its own anonymous mapping: megabytes held in the malloc heap
    stop glibc trimming the pages freed above them, and so change the page
    faults of every later large temporary."""
    held = _last.pop(slot, None)
    if held is None or held[0] != key or not all(
            np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(held[1], arrays)):
        copies = [np.ndarray(a.shape, a.dtype, mmap.mmap(-1, max(a.nbytes, 1))) for a in arrays]
        for copy, array in zip(copies, arrays):
            copy[...] = array
            copy.flags.writeable = False
        held = (key, copies, compute())
    _last[slot] = held
    return held[2]


def _draws(noise: NoiseModel, stage: int, stream_ids: tuple, shapes: tuple) -> list[np.ndarray]:
    """Per stream id, the row sums of the (n, k) standard normal draws of its
    (noise.seed, stage, stream id) stream, read-only as the stage's slot
    keeps them; the fractions of a seed share them."""
    def draw():
        sums = [noise.rng(stage, stream_id).standard_normal(shape).sum(axis=1)
                for stream_id, shape in zip(stream_ids, shapes)]
        for g in sums:
            g.flags.writeable = False
        return sums
    return _recall(stage, (noise.seed, stream_ids, shapes), (), draw)


def _clean_products(b_zm, t_zm, b_energy) -> tuple[np.ndarray, np.ndarray]:
    """The n noiseless integrated products of the (n, D) streams ``b_zm``
    with the (D,) stream ``t_zm``, and each row's clean product RMS, given
    each row's energy, ``sum(b_zm**2)``."""
    d = b_zm.shape[1]
    rms_p = np.sqrt(b_energy / d) * rms(t_zm)
    return (b_zm * t_zm[None, :]).sum(axis=1), rms_p


def _add_noise(numerators, rms_p, d, noise, stream_ids) -> list[np.ndarray]:
    """Add the circuit noise to each block's (n,) clean ``numerators`` in
    place, scaled by each row's clean product RMS ``rms_p``, and return
    them; block i reads the streams ``stream_ids[i]`` (:func:`_draws`).

    The multiplier stage adds D per-sample draws to each row's products;
    they are integrated as their row sum, so the stage adds that sum times
    the per-sample noise level. The integrator stage then adds one readout
    draw a row, scaled by sqrt(D). A stage whose fraction is 0 draws nothing.
    """
    if noise.multiplier_fraction > 0:
        draws = _draws(noise, MULTIPLIER_STAGE, stream_ids, tuple((len(x), d) for x in numerators))
        for x, g, r in zip(numerators, draws, rms_p):
            x += g * (noise.multiplier_fraction * r)
    if noise.integrator_fraction > 0:
        draws = _draws(noise, INTEGRATOR_STAGE, stream_ids, tuple((len(x), 1) for x in numerators))
        for x, g, r in zip(numerators, draws, rms_p):
            x += g * noise.integrator_fraction * r * math.sqrt(d)
    return numerators


def _front_end(t_diag: np.ndarray, region: np.ndarray, orientation: str,
               ma_config: MovingAverageConfig | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The noiseless part of :func:`ncc_stream` for one block under
    ``ma_config`` (None: a boxcar of the block): per in-bounds shift, in
    row-major order, the clean numerator, the clean product RMS and whether
    the stream is dead: its zero-mean stream or the template's carries
    energy below ``EPS_VAR``.

    The window samples come from ``diagonal._window_view`` of the region,
    copied once into (n, D) sample-ordered streams. The arrays are
    read-only: ``ncc_stream``'s memory keeps them for its next call.
    """
    d = len(t_diag)
    config = MovingAverageConfig.boxcar(d) if ma_config is None else ma_config
    t_zm = zero_mean_stream(t_diag, config)
    t_energy = float(np.sum(t_zm * t_zm))
    # The view holds anti-diagonal sample D - 1 - k at index k: flip it so
    # that each stream runs in sample order. One C-order copy, (n, D).
    view = _window_view(region, d, orientation)
    samples = (view if orientation == "main" else view[:, ::-1]).transpose(0, 2, 1).reshape(-1, d)
    b_zm = samples - _moving_average_batch(samples, config)
    b_energy = np.sum(b_zm * b_zm, axis=1)
    numerators, rms_p = _clean_products(b_zm, t_zm, b_energy)
    dead = (b_energy < EPS_VAR) | (t_energy < EPS_VAR)
    for array in (numerators, rms_p, dead):
        array.flags.writeable = False
    return numerators, rms_p, dead


def ncc_stream(
    template_block: GrayImage | Sequence[GrayImage],
    reference: GrayImage,
    origin: tuple[int, int] | Sequence[tuple[int, int]],
    shifts: ShiftRange,
    tables: DiagTables,
    *,
    ma_config: MovingAverageConfig | None = None,
    noise: NoiseModel | None = None,
    block_id: int = 0,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Diagonal NCC with the streaming numerator and noiseless digital denominator.

    The diagonals are those of the orientation of ``tables``. Numerator
    per shift: the integrated product of the zero-mean stream of the
    shifted window diagonal with the template's (:func:`_front_end`), plus
    circuit noise (:func:`_add_noise`) from the (seed, stage, block_id)
    stream, consumed over in-bounds shifts in row-major order. Denominators
    are the exact diagonal variance sums (template two-pass, reference from
    ``tables``). Values are clamped to [-1, 1]; ``clamped`` records the
    shifts whose value was pulled back and is all False when no shift is in
    bounds. A dead stream, one whose zero-mean stream or the template's
    carries no energy (e.g. under a degenerate alpha=1 filter), has its
    window variance sum written as 0, so the shared tail
    (``ncc._correlation_map``) flags it zero-variance with value 0, as it
    does a flat window. Takes one block or a stack of blocks, as
    ``ncc.ncc_full_naive`` does; block i of a stack reads the streams of
    ``block_id + i``.

    A call reuses the noiseless front ends of the call before it, and each
    noise stage its last draws, when they read the same (:func:`_recall`):
    the result is the same bits as a first call, and ``counter`` is tallied
    either way.
    """
    frame = _open_kernel(template_block, reference, origin, shifts, counter, DiagTables, tables)
    if noise is None:
        noise = NoiseModel()
    diagonals = np.array([t_diag for _, t_diag, _, _ in frame.blocks])
    key = (tables.shape, np.asarray(origin).tolist(), shifts, tables.orientation, ma_config)
    front_ends = _recall("front ends", key, (diagonals, frame.box), lambda: [
        _front_end(t_diag, region, tables.orientation, ma_config) for _, t_diag, _, region in frame.blocks])
    numerators = _add_noise([clean.copy() for clean, _, _ in front_ends], [rms_p for _, rms_p, _ in front_ends],
                            diagonals.shape[-1], noise, tuple((block_id + b[0][0],) for b in frame.blocks))
    for (inbounds, _, _, _), values, (_, _, dead) in zip(frame.blocks, numerators, front_ends):
        r_var = frame.r_var[inbounds]
        frame.values[inbounds] = values.reshape(r_var.shape)
        r_var[dead.reshape(r_var.shape)] = 0.0
    return _clamp(_correlation_map(shifts, frame))


def _clamp(cmap: CorrelationMap) -> CorrelationMap:
    """Clip ``cmap.values`` into [-1, 1] in place, recording in
    ``cmap.clamped`` which shifts moved."""
    cmap.clamped = cmap.values > 1.0
    cmap.clamped |= cmap.values < -1.0
    np.clip(cmap.values, -1.0, 1.0, out=cmap.values)
    return cmap


def dynamic_range_to_noise(db: float) -> float:
    """Noise fraction corresponding to a dynamic range in dB: 10^(-db/20)."""
    if not np.isfinite(db) or db < 0:
        raise ValueError(f"dynamic range must be finite and >= 0 dB, got {db}")
    return float(10.0 ** (-db / 20.0))


@dataclass(frozen=True)
class PowerComponent:
    name: str
    unit_power_mw: float
    quantity: int

    @property
    def power_mw(self) -> float:
        return self.unit_power_mw * self.quantity


@dataclass(frozen=True)
class PowerBudget:
    components: tuple[PowerComponent, ...]

    @property
    def total_mw(self) -> float:
        return float(sum(c.power_mw for c in self.components))


# Effective per-unit powers of the four analog circuits. The 64-channel
# budget rows (179.2, 35.13, 0.058, 0.768 mW) fix the summer and multiplier
# units beyond their 3-digit nominal roundings (0.549 mW, 1.83 uW).
LPF_MW_PER_UNIT = 2.8
SUMMER_MW_PER_UNIT = 35.13 / 64
MULTIPLIER_MW_PER_UNIT = 0.058 / 32
INTEGRATOR_MW_PER_UNIT = 0.024


def power_budget(channels: int) -> PowerBudget:
    """Analog power budget for ``channels`` channels.

    Channels pair up (template/reference), so each pair shares one
    multiplier and one integrator while every channel needs its own
    low-pass filter and summer. Channel count must be even.
    """
    if channels < 0 or channels % 2 != 0:
        raise ValueError(f"channel count must be even and >= 0, got {channels}")
    return PowerBudget(components=(
        PowerComponent("lpf", LPF_MW_PER_UNIT, channels),
        PowerComponent("summer", SUMMER_MW_PER_UNIT, channels),
        PowerComponent("multiplier", MULTIPLIER_MW_PER_UNIT, channels // 2),
        PowerComponent("integrator", INTEGRATOR_MW_PER_UNIT, channels // 2),
    ))
