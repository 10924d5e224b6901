"""Waveforms, WAV files, bandwidth conversion, and log-Mel features.

Narrowband (8 kHz) and wideband (16 kHz) are the only two sample rates.
Narrowband inputs are upsampled back to 16 kHz before feature extraction
so both conditions share one frame geometry; the narrowband signature
survives as missing energy above ~4 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioError, ContractError, FormatError, LimitError
from .moe import Bandwidth
from .numerics import Tensor, constant

SAMPLE_RATE_WB = 16000
SAMPLE_RATE_NB = 8000

N_MELS = 80
FRAME_LENGTH_MS = 25
FRAME_SHIFT_MS = 10
N_FFT = 512
LOG_FLOOR = 1e-10

MAX_SECONDS = 30.0  # bounds every input at 2,998 frames

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


def _lowpass_kernel(cutoff_normalized: float, taps: int) -> np.ndarray:
    """Hamming-windowed sinc, unit DC gain. cutoff is a fraction of the
    sampling rate (not Nyquist)."""
    m = np.arange(taps) - (taps - 1) / 2.0
    kernel = 2.0 * cutoff_normalized * np.sinc(2.0 * cutoff_normalized * m)
    kernel *= np.hamming(taps)
    return kernel / kernel.sum()


# cutoff ~3.8 kHz = 0.475 * 8 kHz, expressed as a fraction of 16 kHz. The
# filter runs polyphase (Crochiere & Rabiner 1983): at the 2:1 rate change
# each output sample meets only the even or only the odd taps, so neither
# direction multiplies a discarded output or an inserted zero.
_KERNEL = _lowpass_kernel(CUTOFF_FRACTION * SAMPLE_RATE_NB / SAMPLE_RATE_WB, FILTER_TAPS)
_KERNEL_EVEN = _KERNEL[0::2]
_KERNEL_ODD = _KERNEL[1::2]
_DELAY = (FILTER_TAPS - 1) // 4  # group delay of 31 samples at 16 kHz, in whole 8 kHz samples


def to_narrowband(w: Waveform) -> Waveform:
    """Downsample 16 kHz audio to 8 kHz: anti-alias lowpass then keep every
    second sample. Output length is floor(n / 2)."""
    if w.sample_rate != SAMPLE_RATE_WB:
        raise ContractError(f"to_narrowband needs 16 kHz input, got {w.sample_rate}")
    x = w.samples
    n = len(x) // 2
    if n == 0:
        return Waveform(samples=np.zeros(0), sample_rate=SAMPLE_RATE_NB)
    lo, hi = _DELAY, _DELAY + n
    y = np.convolve(x[0::2], _KERNEL_ODD)[lo:hi] + np.convolve(x[1::2], _KERNEL_EVEN)[lo:hi]
    return Waveform(samples=y, sample_rate=SAMPLE_RATE_NB)


def upsample_to_wideband(w: Waveform) -> Waveform:
    """Zero-insert 8 kHz audio to 16 kHz and lowpass to remove images; the
    band above ~3.8 kHz stays empty, which is the narrowband signature.
    Output length is 2 * n."""
    if w.sample_rate != SAMPLE_RATE_NB:
        raise ContractError(f"upsample needs 8 kHz input, got {w.sample_rate}")
    x = w.samples
    n = len(x)
    out = np.zeros(2 * n)
    if n:
        out[0::2] = np.convolve(x, _KERNEL_ODD)[_DELAY : _DELAY + n]
        out[1::2] = np.convolve(x, _KERNEL_EVEN)[_DELAY + 1 : _DELAY + 1 + n]
        out *= 2.0  # restore the amplitude the zero insertion halved
    return Waveform(samples=out, sample_rate=SAMPLE_RATE_WB)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters [N_MELS x N_FFT//2+1], equally spaced on the mel
    scale from 0 Hz to the wideband Nyquist."""
    n_bins = N_FFT // 2 + 1
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE_WB / 2.0), N_MELS + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * SAMPLE_RATE_WB / N_FFT
    bank = np.zeros((N_MELS, n_bins))
    for i in range(N_MELS):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        bank[i] = np.maximum(0.0, np.minimum(up, down))
    return bank


@dataclass(frozen=True)
class FbankFeatures:
    frames: Tensor  # [n_frames x n_mels]
    bandwidth: Bandwidth  # routes the encoder's experts, so nothing else is accepted

    def __post_init__(self):
        if not isinstance(self.bandwidth, Bandwidth):
            raise ContractError(f"features need a Bandwidth, got {self.bandwidth!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @cached_property
    def norm_stats(self) -> tuple[float, float]:
        """The frames' mean and their std clamped to at least 1e-8, computed
        once, on first use; `fbank` makes the frames read-only."""
        r = self.frames.data
        return r.mean(), max(r.std(), 1e-8)

    def normalized(self) -> np.ndarray:
        """(frames - mean) / std over all frames and mels, by `norm_stats`:
        the encoder's input. Per-utterance global normalization keeps log-mel
        magnitudes sane without erasing the relative band structure."""
        mean, std = self.norm_stats
        return (self.frames.data - mean) / std


_MEL_BANK = mel_filterbank()
_WINDOW = np.hanning(int(SAMPLE_RATE_WB * FRAME_LENGTH_MS / 1000))


def fbank(w: Waveform) -> FbankFeatures:
    """Log-Mel filterbank features at a fixed 16 kHz frame geometry.

    25 ms Hanning window, 10 ms hop, magnitude-squared FFT, 80 triangular
    mel filters over 0-8 kHz, natural log floored at 1e-10. Narrowband
    input is upsampled to 16 kHz first and keeps its NB label.
    """
    if w.duration_s > MAX_SECONDS:
        raise LimitError(f"audio of {w.duration_s:.2f}s exceeds the {MAX_SECONDS}s cap")
    window_len = len(_WINDOW)
    hop = int(SAMPLE_RATE_WB * FRAME_SHIFT_MS / 1000)
    n = len(w.samples) * (SAMPLE_RATE_WB // w.sample_rate)  # length at 16 kHz
    if n < window_len:
        raise AudioError(f"audio too short: {n} samples < one {window_len}-sample window")
    bandwidth = w.bandwidth
    if w.sample_rate == SAMPLE_RATE_NB:
        w = upsample_to_wideband(w)
    # a strided view over the samples: the frames are read once, by the window product
    frames = sliding_window_view(w.samples, window_len)[::hop] * _WINDOW
    spectrum = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel = power @ _MEL_BANK.T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    logmel.flags.writeable = False  # utterances of several tasks share one array
    return FbankFeatures(frames=constant(logmel), bandwidth=bandwidth)


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
    """Read 16-bit mono PCM from a RIFF/WAVE file.

    The chunks after the RIFF header are walked in order: `fmt ` must come
    before `data`, any other chunk (LIST, fact, ...) is skipped, and a
    chunk of odd size is followed by one pad byte.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"not a RIFF/WAVE file: {path}")
    rate = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        size = int.from_bytes(raw[pos + 4 : pos + 8], "little")
        end = pos + 8 + size
        if end > len(raw):
            raise FormatError(f"truncated WAV {chunk_id!r} chunk: {path}")
        body = raw[pos + 8 : end] if chunk_id in (b"fmt ", b"data") else b""
        if chunk_id == b"fmt ":
            if size < 16 or int.from_bytes(body[0:2], "little") != 1:
                raise FormatError(f"only PCM WAV supported: {path}")
            channels = int.from_bytes(body[2:4], "little")
            bits = int.from_bytes(body[14:16], "little")
            if channels != 1 or bits != 16:
                raise FormatError(f"need 16-bit mono, got {channels} ch / {bits} bit: {path}")
            rate = int.from_bytes(body[4:8], "little")
        elif chunk_id == b"data":
            if rate is None:
                raise FormatError(f"no fmt chunk before the data chunk: {path}")
            if size % 2:
                raise FormatError(f"odd data byte count {size} for 16-bit PCM: {path}")
            pcm = np.frombuffer(body, dtype="<i2")
            return Waveform(samples=pcm.astype(np.float64) / 32767.0, sample_rate=rate)
        pos = end + size % 2
    raise FormatError(f"missing data chunk: {path}")
