"""Waveform synthesis, bandwidth conversion, and log-Mel features.

Narrowband (8 kHz) and wideband (16 kHz) are the only two sample rates.
Narrowband inputs are upsampled back to 16 kHz before feature extraction
so both conditions share one frame geometry; the narrowband signature
survives as missing energy above ~4 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioError, ConfigError, ContractError, FormatError, LimitError
from .moe import Bandwidth
from .numerics import Tensor, constant

SAMPLE_RATE_WB = 16000
SAMPLE_RATE_NB = 8000

N_MELS = 80
FRAME_LENGTH_MS = 25
FRAME_SHIFT_MS = 10
N_FFT = 512
LOG_FLOOR = 1e-10

MAX_SECONDS = 30.0
MAX_FRAMES = 3000

# windowed-sinc anti-aliasing filter used for both down- and up-sampling
FILTER_TAPS = 63
CUTOFF_FRACTION = 0.475  # of the narrowband Nyquist


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate not in (SAMPLE_RATE_NB, SAMPLE_RATE_WB):
            raise AudioError(f"sample rate must be 8000 or 16000, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioError("waveform must be mono (1-D)")

    @property
    def bandwidth(self) -> Bandwidth:
        return Bandwidth.WB if self.sample_rate == SAMPLE_RATE_WB else Bandwidth.NB

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class MixtureSpec:
    """Stationary tone/noise mixture: (frequency_hz, amplitude) pairs plus
    white-noise amplitude."""

    tones: tuple[tuple[float, float], ...] = ()
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if not self.tones and self.noise_amplitude == 0.0:
            raise ConfigError("mixture spec is empty: no tones and no noise")


def synth_wave(
    spec: MixtureSpec,
    seed: int,
    duration_s: float,
    sample_rate: int = SAMPLE_RATE_WB,
) -> Waveform:
    """Render a deterministic tone/noise mixture, peak-limited to 0.95."""
    if duration_s <= 0:
        raise ConfigError(f"duration must be positive, got {duration_s}")
    if duration_s > MAX_SECONDS:
        raise LimitError(f"duration {duration_s}s exceeds the {MAX_SECONDS}s cap")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    samples = np.zeros(n)
    for freq, amp in spec.tones:
        samples += amp * np.sin(2.0 * np.pi * freq * t)
    if spec.noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        samples += spec.noise_amplitude * rng.standard_normal(n)
    peak = np.abs(samples).max() if n else 0.0
    if peak > 0.95:
        samples *= 0.95 / peak
    return Waveform(samples=samples, sample_rate=sample_rate)


def _lowpass_kernel(cutoff_normalized: float, taps: int) -> np.ndarray:
    """Hamming-windowed sinc, unit DC gain. cutoff is a fraction of the
    sampling rate (not Nyquist)."""
    m = np.arange(taps) - (taps - 1) / 2.0
    kernel = 2.0 * cutoff_normalized * np.sinc(2.0 * cutoff_normalized * m)
    kernel *= np.hamming(taps)
    return kernel / kernel.sum()


def to_narrowband(w: Waveform) -> Waveform:
    """Downsample 16 kHz audio to 8 kHz: anti-alias lowpass then keep every
    second sample. Output length is floor(n / 2)."""
    if w.sample_rate != SAMPLE_RATE_WB:
        raise ContractError(f"to_narrowband needs 16 kHz input, got {w.sample_rate}")
    # cutoff ~3.8 kHz = 0.475 * 8 kHz, expressed as a fraction of 16 kHz
    kernel = _lowpass_kernel(CUTOFF_FRACTION * SAMPLE_RATE_NB / SAMPLE_RATE_WB, FILTER_TAPS)
    filtered = np.convolve(w.samples, kernel, mode="same")
    n_out = len(w.samples) // 2
    return Waveform(samples=filtered[: 2 * n_out : 2].copy(), sample_rate=SAMPLE_RATE_NB)


def upsample_to_wideband(w: Waveform) -> Waveform:
    """Zero-insert 8 kHz audio to 16 kHz and lowpass to remove images; the
    band above ~3.8 kHz stays empty, which is the narrowband signature."""
    if w.sample_rate != SAMPLE_RATE_NB:
        raise ContractError(f"upsample needs 8 kHz input, got {w.sample_rate}")
    up = np.zeros(2 * len(w.samples))
    up[0::2] = w.samples
    kernel = _lowpass_kernel(CUTOFF_FRACTION * SAMPLE_RATE_NB / SAMPLE_RATE_WB, FILTER_TAPS)
    filtered = 2.0 * np.convolve(up, kernel, mode="same")  # restore amplitude
    return Waveform(samples=filtered, sample_rate=SAMPLE_RATE_WB)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int = N_MELS, n_fft: int = N_FFT, sample_rate: int = SAMPLE_RATE_WB) -> np.ndarray:
    """Triangular filters [n_mels x n_fft//2+1], equally spaced on the mel
    scale from 0 Hz to Nyquist."""
    n_bins = n_fft // 2 + 1
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * sample_rate / n_fft
    bank = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        bank[i] = np.maximum(0.0, np.minimum(up, down))
    return bank


@dataclass
class FbankFeatures:
    frames: Tensor  # [n_frames x n_mels]
    bandwidth: Bandwidth
    n_mels: int = N_MELS
    frame_shift_ms: int = FRAME_SHIFT_MS
    frame_length_ms: int = FRAME_LENGTH_MS

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


_MEL_BANK = mel_filterbank()
_WINDOW = np.hanning(int(SAMPLE_RATE_WB * FRAME_LENGTH_MS / 1000))


def fbank(w: Waveform) -> FbankFeatures:
    """Log-Mel filterbank features at a fixed 16 kHz frame geometry.

    25 ms Hanning window, 10 ms hop, magnitude-squared FFT, 80 triangular
    mel filters over 0-8 kHz, natural log floored at 1e-10. Narrowband
    input is upsampled to 16 kHz first and keeps its NB label.
    """
    bandwidth = w.bandwidth
    if w.sample_rate == SAMPLE_RATE_NB:
        w = upsample_to_wideband(w)
    if w.duration_s > MAX_SECONDS:
        raise LimitError(f"audio of {w.duration_s:.2f}s exceeds the {MAX_SECONDS}s cap")
    window_len = len(_WINDOW)
    hop = int(SAMPLE_RATE_WB * FRAME_SHIFT_MS / 1000)
    n = len(w.samples)
    if n < window_len:
        raise AudioError(f"audio too short: {n} samples < one {window_len}-sample window")
    n_frames = 1 + (n - window_len) // hop
    if n_frames > MAX_FRAMES:
        raise LimitError(f"{n_frames} frames exceeds the {MAX_FRAMES}-frame cap")
    idx = np.arange(window_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = w.samples[idx] * _WINDOW
    spectrum = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel = power @ _MEL_BANK.T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    return FbankFeatures(frames=constant(logmel), bandwidth=bandwidth)


def expected_frame_count(n_samples: int, sample_rate: int = SAMPLE_RATE_WB) -> int:
    window = int(sample_rate * FRAME_LENGTH_MS / 1000)
    hop = int(sample_rate * FRAME_SHIFT_MS / 1000)
    return 1 + (n_samples - window) // hop


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write 16-bit PCM mono WAV, canonical little-endian RIFF layout."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF"
    header += (36 + len(data)).to_bytes(4, "little")
    header += b"WAVEfmt "
    header += (16).to_bytes(4, "little")  # fmt chunk size
    header += (1).to_bytes(2, "little")  # PCM
    header += (1).to_bytes(2, "little")  # mono
    header += w.sample_rate.to_bytes(4, "little")
    header += (w.sample_rate * 2).to_bytes(4, "little")  # byte rate
    header += (2).to_bytes(2, "little")  # block align
    header += (16).to_bytes(2, "little")  # bits per sample
    header += b"data"
    header += len(data).to_bytes(4, "little")
    Path(path).write_bytes(header + data)


def read_wav(path: str | Path) -> Waveform:
    raw = Path(path).read_bytes()
    if len(raw) < 44 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"not a RIFF/WAVE file: {path}")
    if raw[12:16] != b"fmt " or int.from_bytes(raw[20:22], "little") != 1:
        raise FormatError(f"only canonical PCM WAV supported: {path}")
    channels = int.from_bytes(raw[22:24], "little")
    rate = int.from_bytes(raw[24:28], "little")
    bits = int.from_bytes(raw[34:36], "little")
    if channels != 1 or bits != 16:
        raise FormatError(f"need 16-bit mono, got {channels} ch / {bits} bit: {path}")
    if raw[36:40] != b"data":
        raise FormatError(f"missing data chunk: {path}")
    n_bytes = int.from_bytes(raw[40:44], "little")
    payload = raw[44 : 44 + n_bytes]
    if len(payload) < n_bytes:
        raise FormatError(f"truncated WAV data: {path}")
    if n_bytes % 2:
        raise FormatError(f"odd data byte count {n_bytes} for 16-bit PCM: {path}")
    pcm = np.frombuffer(payload, dtype="<i2")
    return Waveform(samples=pcm.astype(np.float64) / 32767.0, sample_rate=rate)
