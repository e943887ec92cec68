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
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .diagonal import (
    DiagTables,
    _check_orientation,
    _check_square,
    build_diag_tables,
    extract_diagonal,
    gather_window_diagonals,
)
from .images import GrayImage
from .ncc import (
    EPS_VAR,
    CorrelationMap,
    OpCounter,
    ShiftRange,
    _check_tables,
    _correlation_map,
    _validate_kernel_inputs,
    block_stats,
)

MULTIPLIER_STAGE = 0
INTEGRATOR_STAGE = 1

NOISE_CADENCES = ("per-sample", "per-stream")


@dataclass(frozen=True)
class MovingAverageConfig:
    """Causal low-pass used for streaming mean removal.

    kind "boxcar": mean over the trailing ``window_len`` samples, with a
    growing window during warmup. kind "pole": one-pole IIR
    y[n] = alpha * x[n] + (1 - alpha) * y[n-1], primed with y[-1] = x[0].
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
        if kind == "boxcar":
            return cls.boxcar(int(arg))
        if kind == "pole":
            return cls.single_pole(float(arg))
        raise ValueError(f"unknown moving-average kind {kind!r}")


def _moving_average_batch(signals: np.ndarray, config: MovingAverageConfig) -> np.ndarray:
    """Moving average along the last axis of a (..., N) array."""
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
    alpha = config.alpha
    zi = (1.0 - alpha) * x[..., :1]
    out, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], x, axis=-1, zi=zi)
    return out


def moving_average(signal, config: MovingAverageConfig) -> np.ndarray:
    """Causal moving average of a 1D signal."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"signal must be a non-empty 1D sequence, got shape {x.shape}")
    return _moving_average_batch(x, config)


def zero_mean_stream(signal, config: MovingAverageConfig) -> np.ndarray:
    """Signal minus its causal moving average."""
    x = np.asarray(signal, dtype=np.float64)
    return x - moving_average(x, config)


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
    results. cadence "per-sample" draws one value per product sample;
    "per-stream" draws a single value broadcast over the stream.
    """

    multiplier_fraction: float = 0.0
    integrator_fraction: float = 0.0
    seed: int = 0
    cadence: str = "per-sample"

    def __post_init__(self):
        if not (np.isfinite(self.multiplier_fraction) and self.multiplier_fraction >= 0):
            raise ValueError(f"multiplier_fraction must be finite and >= 0, got {self.multiplier_fraction}")
        if not (np.isfinite(self.integrator_fraction) and self.integrator_fraction >= 0):
            raise ValueError(f"integrator_fraction must be finite and >= 0, got {self.integrator_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.cadence not in NOISE_CADENCES:
            raise ValueError(f"unknown noise cadence {self.cadence!r}")

    def rng(self, stage: int, stream_id: tuple[int, ...]) -> np.random.Generator:
        return np.random.default_rng((self.seed, stage) + tuple(stream_id))


def multiply_integrate(
    b_zm: np.ndarray,
    t_zm: np.ndarray,
    noise: NoiseModel,
    stream_id: tuple[int, ...] = (0,),
) -> np.ndarray:
    """The n integrated products of the (n, D) streams ``b_zm`` with the (D,)
    stream ``t_zm``, plus noise scaled by each row's clean product RMS.

    The multiplier stage draws (n, D) values, or (n, 1) for the "per-stream"
    cadence; the integrator stage then draws n readout values scaled by
    sqrt(D). Each stage reads ``noise.rng(stage, stream_id)``.
    """
    return _multiply_integrate(b_zm, t_zm, noise, stream_id, np.sum(b_zm * b_zm, axis=1))


def _multiply_integrate(b_zm, t_zm, noise, stream_id, b_energy) -> np.ndarray:
    """:func:`multiply_integrate` given each row's energy, ``sum(b_zm**2)``."""
    n, d = b_zm.shape
    rms_p = np.sqrt(b_energy / d) * rms(t_zm)
    products = b_zm * t_zm[None, :]
    if noise.multiplier_fraction > 0:
        rng = noise.rng(MULTIPLIER_STAGE, stream_id)
        shape = products.shape if noise.cadence == "per-sample" else (n, 1)
        products = products + rng.standard_normal(shape) * noise.multiplier_fraction * rms_p[:, None]
    numerators = products.sum(axis=1)
    if noise.integrator_fraction > 0:
        g = noise.rng(INTEGRATOR_STAGE, stream_id).standard_normal(n)
        numerators = numerators + g * noise.integrator_fraction * rms_p * math.sqrt(d)
    return numerators


def ncc_stream(
    template_block: GrayImage,
    reference: GrayImage,
    origin: tuple[int, int],
    shifts: ShiftRange,
    orientation: str = "main",
    ma_config: MovingAverageConfig | None = None,
    noise: NoiseModel | None = None,
    tables: DiagTables | None = None,
    block_id: int = 0,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Diagonal NCC with the streaming numerator and noiseless digital denominator.

    Numerator per shift: :func:`multiply_integrate` of the zero-mean stream
    of the shifted window diagonal against the template's, with circuit
    noise from the (seed, stage, block_id) stream, consumed over in-bounds
    shifts in row-major order. Denominators are the exact diagonal variance
    sums (template two-pass, reference from tables). Values are clamped to
    [-1, 1]; ``clamped`` records the shifts whose value was pulled back and
    is all False when no shift is in bounds. Shifts whose zero-mean stream
    carries no energy (e.g. a degenerate alpha=1 filter) flag zero-variance.
    Validates the template block and the reference region it reads; when
    ``tables`` is None, building them validates the whole reference.
    """
    _check_orientation(orientation)
    t, ref, bounds = _validate_kernel_inputs(template_block, reference, origin, shifts)
    d = _check_square(t)
    if noise is None:
        noise = NoiseModel()
    if ma_config is None:
        ma_config = MovingAverageConfig.boxcar(d)
    if tables is None:
        tables = build_diag_tables(ref, (orientation,))
    else:
        _check_tables(tables, ref)
        tables.orientation_tables(orientation)
    du_lo, du_hi, dv_lo, dv_hi = bounds
    if du_lo > du_hi or dv_lo > dv_hi:
        return _clamp(_correlation_map(shifts, bounds))
    x0, y0 = origin

    t_diag = extract_diagonal(t, orientation)
    t_var = block_stats(t_diag)[1]
    t_zm = zero_mean_stream(t_diag, ma_config)
    t_energy = float(np.sum(t_zm * t_zm))

    dus = np.arange(du_lo, du_hi + 1)
    dvs = np.arange(dv_lo, dv_hi + 1)
    if counter is not None:
        counter.tally(len(dvs) * len(dus), d)

    samples = gather_window_diagonals(ref, origin, d, dus, dvs, orientation).reshape(-1, d)
    b_zm = samples - _moving_average_batch(samples, ma_config)
    r_var = tables.window_var_sum((x0 + dus), (y0 + dvs)[:, None], d, orientation)
    b_energy = np.sum(b_zm * b_zm, axis=1)
    numerators = _multiply_integrate(b_zm, t_zm, noise, (block_id,), b_energy).reshape(r_var.shape)
    ok = (b_energy.reshape(r_var.shape) >= EPS_VAR) & (t_energy >= EPS_VAR)
    return _clamp(_correlation_map(shifts, bounds, numerators, r_var, t_var, ok))


def _clamp(cmap: CorrelationMap) -> CorrelationMap:
    """Clip ``cmap.values`` into [-1, 1] in place, recording in
    ``cmap.clamped`` which shifts moved."""
    cmap.clamped = np.abs(cmap.values) > 1.0
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
