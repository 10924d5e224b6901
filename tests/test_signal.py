from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smoe import errors
from smoe.errors import AudioError, ContractError, FormatError, LimitError
from smoe.moe import Bandwidth, Task
from smoe.numerics import constant
from smoe.signal import (
    LOG_FLOOR,
    SAMPLE_RATE_WB,
    FbankFeatures,
    Waveform,
    fbank,
    mel_filterbank,
    read_wav,
    to_narrowband,
    upsample_to_wideband,
    write_wav,
)


def waveform(*tones, seconds=1.0, noise=0.0, seed=0):
    """16 kHz sum of (frequency_hz, amplitude) sines plus seeded white noise."""
    t = np.arange(int(round(seconds * SAMPLE_RATE_WB))) / SAMPLE_RATE_WB
    samples = sum(a * np.sin(2.0 * np.pi * f * t) for f, a in tones)
    if noise:
        samples = samples + noise * np.random.default_rng(seed).standard_normal(len(t))
    return Waveform(samples=samples, sample_rate=SAMPLE_RATE_WB)


def tone(freq, amp=0.5, seconds=1.0):
    return waveform((freq, amp), seconds=seconds)


def tone_amplitude(w: Waveform, freq: float) -> float:
    spectrum = np.abs(np.fft.rfft(w.samples)) * 2.0 / len(w.samples)
    freqs = np.fft.rfftfreq(len(w.samples), d=1.0 / w.sample_rate)
    return float(spectrum[np.argmin(np.abs(freqs - freq))])


def test_narrowband_keeps_1khz_within_5pct():
    w = tone(1000.0, amp=0.5)
    nb = to_narrowband(w)
    assert nb.sample_rate == 8000
    assert abs(tone_amplitude(nb, 1000.0) - 0.5) / 0.5 < 0.05


def test_narrowband_kills_6khz():
    w = tone(6000.0, amp=0.5)
    nb = to_narrowband(w)
    energy_in = float(np.sum(w.samples**2))
    energy_out = float(np.sum(nb.samples**2))
    assert energy_out < 0.01 * energy_in


def test_narrowband_length_halved():
    w = Waveform(samples=np.zeros(32000), sample_rate=16000)
    assert len(to_narrowband(w).samples) == 16000
    odd = Waveform(samples=np.zeros(16001), sample_rate=16000)
    assert len(to_narrowband(odd).samples) == 8000


def test_narrowband_rejects_8khz_input():
    with pytest.raises(ContractError):
        to_narrowband(Waveform(samples=np.zeros(100), sample_rate=8000))
    with pytest.raises(ContractError):
        upsample_to_wideband(Waveform(samples=np.zeros(100), sample_rate=16000))


def test_fbank_one_second_is_98_frames():
    feats = fbank(tone(440.0))
    assert feats.frames.shape == (98, 80)
    assert feats.n_frames == 98
    assert feats.bandwidth is Bandwidth.WB


def test_fbank_frame_count_formula_various_lengths():
    for n in (400, 401, 559, 560, 561, 7000, 16000):
        w = Waveform(samples=np.zeros(n), sample_rate=16000)
        feats = fbank(w)
        assert feats.n_frames == 1 + (n - 400) // 160


def test_fbank_all_zero_audio_hits_log_floor():
    w = Waveform(samples=np.zeros(1600), sample_rate=16000)
    feats = fbank(w)
    assert np.all(feats.frames.data == np.log(LOG_FLOOR))


def test_fbank_too_short_rejected():
    with pytest.raises(AudioError):
        fbank(Waveform(samples=np.zeros(399), sample_rate=16000))
    for n in (0, 1, 31, 199):  # checked before narrowband input is resampled
        with pytest.raises(AudioError):
            fbank(Waveform(samples=np.zeros(n), sample_rate=8000))


def test_fbank_values_finite():
    w = waveform((500.0, 0.3), (3000.0, 0.3), seconds=0.5, noise=0.01, seed=3)
    feats = fbank(w)
    assert np.all(np.isfinite(feats.frames.data))


def test_nb_fbank_depresses_high_bins_keeps_low():
    w = waveform((800.0, 0.4), (6000.0, 0.4))
    wb_feats = fbank(w).frames.data
    nb_feats_obj = fbank(to_narrowband(w))
    nb_feats = nb_feats_obj.frames.data
    assert nb_feats_obj.bandwidth is Bandwidth.NB
    assert nb_feats.shape == wb_feats.shape
    # mel bins above ~4 kHz: high-band energy collapses toward the floor
    high = slice(85 * 80 // 100, 80)  # top bins
    low = slice(0, 30)
    assert nb_feats[:, high].mean() < wb_feats[:, high].mean() - 5.0
    # low bins match the wideband path within 10%
    rel = np.abs(nb_feats[:, low].mean() - wb_feats[:, low].mean()) / np.abs(
        wb_feats[:, low].mean()
    )
    assert rel < 0.10


def test_wav_round_trip(tmp_path):
    w = waveform((700.0, 0.5), seconds=0.3, noise=0.02, seed=5)
    path = tmp_path / "t.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32767.0)


def test_wav_skips_unknown_chunks_and_pad_bytes(tmp_path):
    w = tone(500.0, seconds=0.1)
    canonical = tmp_path / "canonical.wav"
    write_wav(canonical, w)
    raw = canonical.read_bytes()
    # an odd-size LIST chunk (5 bytes plus a pad byte) between fmt and data
    extra = b"LIST" + (5).to_bytes(4, "little") + b"INFOx" + b"\x00"
    body = raw[12:36] + extra + raw[36:]
    edited = tmp_path / "list.wav"
    edited.write_bytes(b"RIFF" + (4 + len(body)).to_bytes(4, "little") + b"WAVE" + body)
    back, want = read_wav(edited), read_wav(canonical)
    assert back.sample_rate == want.sample_rate
    np.testing.assert_array_equal(back.samples, want.samples)


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFxxxxJUNK")
    with pytest.raises(FormatError):
        read_wav(path)


def test_waveform_validates_rate():
    with pytest.raises(AudioError):
        Waveform(samples=np.zeros(10), sample_rate=44100)


# -- oracles for the fast paths -----------------------------------------------


def _oracle_kernel():
    """The 63-tap Hamming-windowed sinc at 3.8 kHz of 16 kHz, unit DC gain."""
    cutoff = 0.475 * 8000 / 16000
    m = np.arange(63) - 31.0
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.hamming(63)
    return kernel / kernel.sum()


def _oracle_narrowband(x):
    """Full-rate filter, then every second output."""
    return np.convolve(x, _oracle_kernel(), mode="same")[: 2 * (len(x) // 2) : 2]


def _oracle_wideband(x):
    """Zero insertion, then the full-rate filter at twice the gain."""
    up = np.zeros(2 * len(x))
    up[0::2] = x
    return 2.0 * np.convolve(up, _oracle_kernel(), mode="same")


def _oracle_fbank_frames(samples):
    """Log-mel features framed by a fancy-index gather of every window."""
    n_frames = 1 + (len(samples) - 400) // 160
    idx = np.arange(400)[None, :] + 160 * np.arange(n_frames)[:, None]
    spectrum = np.fft.rfft(samples[idx] * np.hanning(400), n=512, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    return np.log(np.maximum(power @ mel_filterbank().T, LOG_FLOOR))


@pytest.mark.parametrize("n", [63, 64, 101, 1000, 1001, 4801])
def test_polyphase_resampling_matches_full_rate_oracle(n):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
    nb = to_narrowband(Waveform(samples=x, sample_rate=16000)).samples
    want = _oracle_narrowband(x)
    assert len(nb) == n // 2
    assert np.max(np.abs(nb - want)) <= 1e-13 * np.max(np.abs(want))
    wb = upsample_to_wideband(Waveform(samples=x, sample_rate=8000)).samples
    want = _oracle_wideband(x)
    assert len(wb) == 2 * n
    assert np.max(np.abs(wb - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33])
def test_resampling_lengths_hold_for_short_inputs(n):
    x = np.ones(n)
    assert len(upsample_to_wideband(Waveform(samples=x, sample_rate=8000)).samples) == 2 * n
    assert len(to_narrowband(Waveform(samples=x, sample_rate=16000)).samples) == n // 2


@pytest.mark.parametrize("n", [400, 401, 559, 560, 561, 7000, 16001])
def test_wideband_fbank_matches_fancy_index_oracle(n):
    x = np.random.default_rng(n).uniform(-0.9, 0.9, size=n)
    got = fbank(Waveform(samples=x, sample_rate=16000)).frames.data
    np.testing.assert_array_equal(got, _oracle_fbank_frames(x))


def test_fbank_narrowband_limits_at_the_boundary():
    assert fbank(Waveform(samples=np.zeros(200), sample_rate=8000)).n_frames == 1
    with pytest.raises(LimitError):
        fbank(Waveform(samples=np.zeros(30 * 8000 + 1), sample_rate=8000))


@pytest.mark.parametrize("frames, constant_value", [
    (37, None), (1, None), (12, -8.5), (1, -3.0), (1, 0.0),
])
def test_cached_normalization_is_the_per_call_expression(frames, constant_value):
    rng = np.random.default_rng(frames)
    r = (rng.normal(loc=-8.0, scale=3.0, size=(frames, 80)) if constant_value is None
         else np.full((frames, 80), constant_value))
    feats = FbankFeatures(frames=constant(r), bandwidth=Bandwidth.WB)
    want = (r - r.mean()) / max(r.std(), 1e-8)
    first = feats.normalized()
    assert "norm_stats" in vars(feats)  # kept after the first use
    assert np.array_equal(first, want) and np.array_equal(feats.normalized(), want)


@pytest.mark.parametrize("bandwidth", ["wb", "WB", None, Task.ASR, 1])
def test_features_reject_a_bandwidth_that_is_no_bandwidth(bandwidth):
    frames = constant(np.zeros((3, 80)))
    with pytest.raises(ContractError, match="need a Bandwidth"):
        FbankFeatures(frames=frames, bandwidth=bandwidth)
    with pytest.raises(ContractError, match="need a Bandwidth"):
        replace(FbankFeatures(frames=frames, bandwidth=Bandwidth.NB), bandwidth=bandwidth)


def test_fbank_features_are_read_only():
    feats = fbank(tone(440.0, seconds=0.1))
    with pytest.raises(ValueError):
        feats.frames.data[0, 0] = 0.0


# -- fuzzed WAV bytes -----------------------------------------------------------


def _wav_bytes(tmp_path, n_samples, sample_rate):
    path = tmp_path / "seed.wav"
    samples = np.sin(np.arange(n_samples) / 3.0) * 0.5
    write_wav(path, Waveform(samples=samples, sample_rate=sample_rate))
    return path.read_bytes()


def _read_and_featurize(path):
    """read_wav then fbank; only package errors may escape."""
    try:
        fbank(read_wav(path))
    except Exception as exc:
        assert type(exc).__module__ == errors.__name__, repr(exc)


_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_EMPTY_NB_WAV = (
    b"RIFF" + (36).to_bytes(4, "little") + b"WAVEfmt " + (16).to_bytes(4, "little")
    + (1).to_bytes(2, "little") + (1).to_bytes(2, "little") + (8000).to_bytes(4, "little")
    + (16000).to_bytes(4, "little") + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
    + b"data" + (0).to_bytes(4, "little")
)


@_FUZZ
@given(raw=st.binary(max_size=2048))
@example(raw=_EMPTY_NB_WAV)
@example(raw=_EMPTY_NB_WAV[:-4] + (2).to_bytes(4, "little") + b"\x01\x00")
def test_read_wav_fbank_arbitrary_bytes_fail_closed(tmp_path, raw):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(raw)
    _read_and_featurize(path)


@_FUZZ
@given(
    sample_rate=st.sampled_from([8000, 16000]),
    n_samples=st.sampled_from([0, 1, 199, 200, 399, 400, 1000]),
    edits=st.lists(st.tuples(st.integers(0, 2100), st.integers(0, 255)), max_size=6),
    cut=st.one_of(st.none(), st.integers(0, 2100)),
)
def test_read_wav_fbank_mutated_bytes_fail_closed(tmp_path, sample_rate, n_samples, edits, cut):
    raw = bytearray(_wav_bytes(tmp_path, n_samples, sample_rate))
    for pos, value in edits:
        if pos < len(raw):
            raw[pos] = value
    path = tmp_path / "fuzz.wav"
    path.write_bytes(bytes(raw[:cut]))
    _read_and_featurize(path)
