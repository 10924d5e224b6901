import functools
import hashlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import smoe.data
from smoe import errors
from smoe.data import (
    ALPHABET,
    MANIFEST_HEADER,
    ManifestRecord,
    SyntheticTaskSpec,
    generate_dataset_files,
    load_dataset,
    make_paired_dataset,
    make_utterance,
    read_manifest,
    render_symbols,
    symbol_tones,
    write_manifest,
)
from smoe.errors import ConfigError, FormatError
from smoe.moe import Bandwidth, Task
from smoe.seqio import Vocabulary


def test_default_task_spec_is_a_derangement():
    spec = SyntheticTaskSpec.default()
    assert all(spec.map_a[s] != spec.map_b[s] for s in ALPHABET)
    assert sorted(spec.map_b.values()) == sorted(ALPHABET)
    assert all(spec.map_b[s] != s for s in ALPHABET)


def test_task_spec_apply():
    spec = SyntheticTaskSpec.default()
    assert spec.apply(Task.ASR, "abc") == "abc"
    st = spec.apply(Task.ST, "abc")
    assert st != "abc" and len(st) == 3


def test_render_deterministic_and_peaked():
    a = render_symbols("abcd", seed=5)
    b = render_symbols("abcd", seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert np.abs(a.samples).max() <= 0.95 + 1e-12
    # 4 tone segments with 3 inter-symbol gaps
    assert len(a.samples) == 4 * 1280 + 3 * 320
    with pytest.raises(ConfigError):
        render_symbols("", seed=0)


def test_make_utterance_nb_and_wb_geometry_match():
    spec = SyntheticTaskSpec.default()
    vocab = Vocabulary()
    wb = make_utterance("abcd", Task.ASR, spec, vocab, seed=1)
    nb = make_utterance("abcd", Task.ASR, spec, vocab, seed=1, narrowband=True)
    assert wb.bandwidth is Bandwidth.WB and nb.bandwidth is Bandwidth.NB
    assert wb.features.frames.shape == nb.features.frames.shape
    assert wb.target.ids == nb.target.ids


def test_paired_dataset_counts_and_tasks():
    items = make_paired_dataset(6, seed=1, nb_fraction=0.5)
    # 6 inputs x 2 tasks, plus NB twins for 3 inputs x 2 tasks
    assert len(items) == 12 + 6
    assert sum(1 for it in items if it.task is Task.ASR) == sum(
        1 for it in items if it.task is Task.ST
    )
    n_nb = sum(1 for it in items if it.bandwidth is Bandwidth.NB)
    assert n_nb == 6


def test_generate_dataset_files_counts(tmp_path):
    manifest = generate_dataset_files(tmp_path, n_items=20, nbwb_mix_fraction=0.15, seed=3)
    records = read_manifest(manifest)
    wb = [r for r in records if r.bandwidth is Bandwidth.WB]
    nb = [r for r in records if r.bandwidth is Bandwidth.NB]
    assert len(wb) == 20
    assert len(nb) == 3  # round(0.15 * 20)
    assert (tmp_path / "vocab.txt").exists()
    # the manifest is the one map from audio to text: no second targets file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.tsv", "vocab.txt", "wavs"]


def test_generate_dataset_files_zero_mix(tmp_path):
    records = read_manifest(
        generate_dataset_files(tmp_path, n_items=4, nbwb_mix_fraction=0.0, seed=3)
    )
    assert all(r.bandwidth is Bandwidth.WB for r in records)


def test_generate_dataset_deterministic(tmp_path):
    m1 = generate_dataset_files(tmp_path / "a", n_items=6, nbwb_mix_fraction=0.3, seed=9)
    m2 = generate_dataset_files(tmp_path / "b", n_items=6, nbwb_mix_fraction=0.3, seed=9)
    assert m1.read_text() == m2.read_text()
    w1 = sorted((tmp_path / "a" / "wavs").iterdir())
    w2 = sorted((tmp_path / "b" / "wavs").iterdir())
    assert [p.name for p in w1] == [p.name for p in w2]
    for p1, p2 in zip(w1, w2):
        assert p1.read_bytes() == p2.read_bytes()


def test_load_dataset_round_trip(tmp_path):
    manifest = generate_dataset_files(tmp_path, n_items=4, nbwb_mix_fraction=0.5, seed=5)
    vocab = Vocabulary.load(tmp_path / "vocab.txt")
    items = load_dataset(manifest, vocab)
    records = read_manifest(manifest)
    assert len(items) == len(records)
    for it, r in zip(items, records):
        assert it.task is r.task
        assert it.bandwidth is r.bandwidth
        assert it.text.decode("utf-8") == r.text


def test_manifest_round_trip(tmp_path):
    records = [
        ManifestRecord("wavs/x.wav", Bandwidth.WB, Task.ASR, "abcd"),
        ManifestRecord("wavs/y.wav", Bandwidth.NB, Task.ST, "fghi"),
    ]
    path = tmp_path / "m.tsv"
    write_manifest(path, records)
    assert read_manifest(path) == records
    assert path.read_text().splitlines()[0] == "smoe-manifest v1"


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("wrong header\n")
    with pytest.raises(FormatError):
        read_manifest(path)


# -- oracles for the table-driven render and the shared features --------------


def _oracle_render(symbols, seed):
    """The per-segment render: three sines per symbol, then the envelope."""
    n_seg, n_gap = 1280, 320
    t = np.arange(n_seg) / 16000
    ramp = n_seg // 16
    envelope = np.ones(n_seg)
    fade = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    envelope[:ramp] = fade
    envelope[-ramp:] = fade[::-1]
    segments = []
    for slot, s in enumerate(symbols):
        (f_lo, a_lo), (f_hi, a_hi) = symbol_tones(s)
        f_pilot = 120.0 + 60.0 * (slot % 8)
        seg = (
            a_lo * np.sin(2 * np.pi * f_lo * t)
            + a_hi * np.sin(2 * np.pi * f_hi * t)
            + 0.25 * np.sin(2 * np.pi * f_pilot * t)
        )
        segments.append(seg * envelope)
        segments.append(np.zeros(n_gap))
    samples = np.concatenate(segments[:-1])
    samples = samples + 0.004 * np.random.default_rng(seed).standard_normal(len(samples))
    peak = np.abs(samples).max()
    if peak > 0.95:
        samples *= 0.95 / peak
    return samples


@pytest.mark.parametrize("n", [1, 4, 8, 9, 30])
@pytest.mark.parametrize("seed", [0, 1_000_003 * 7 + 5])
def test_render_symbols_matches_per_segment_oracle(n, seed):
    rng = np.random.default_rng(seed + n)
    symbols = "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n))
    got = render_symbols(symbols, seed).samples
    np.testing.assert_array_equal(got, _oracle_render(symbols, seed))


def test_paired_dataset_wideband_features_match_pinned_digest():
    """SHA-256 of the wideband features, pinned before the table-driven
    render, the polyphase resampler and the strided framing."""
    items = make_paired_dataset(6, seed=3, nb_fraction=0.5)
    digest = hashlib.sha256()
    for it in items:
        if it.bandwidth is Bandwidth.WB:
            digest.update(np.ascontiguousarray(it.features.frames.data).tobytes())
    assert digest.hexdigest() == "97dcf16cb410601775356e7662ad7ac26350c76ca38bcfcdc6e4e08f6a249615"


def test_paired_dataset_featurizes_each_input_once_per_bandwidth():
    spec, vocab = SyntheticTaskSpec.default(), Vocabulary()
    items = make_paired_dataset(4, seed=2, task_spec=spec, vocab=vocab, nb_fraction=0.5)
    by_features = {}
    for it in items:
        by_features.setdefault(id(it.features), []).append(it)
    # each features object is shared by one item per task; the default spec's
    # ASR map is the identity, so the ASR text is the input's symbols
    inputs = {}
    for group in by_features.values():
        assert [it.task for it in group] == [Task.ASR, Task.ST]
        assert group[0].bandwidth is group[1].bandwidth
        inputs.setdefault(group[0].text.decode("ascii"), []).append(group[0].bandwidth)
    # ... and made once per (input, bandwidth)
    assert all(len(set(bandwidths)) == len(bandwidths) for bandwidths in inputs.values())
    # each item equals the one make_utterance builds alone
    seeds = {symbols: 2 * 1_000_003 + idx for idx, symbols in enumerate(inputs)}
    for group in by_features.values():
        symbols = group[0].text.decode("ascii")
        for it in group:
            alone = make_utterance(
                symbols, it.task, spec, vocab, seeds[symbols],
                narrowband=it.bandwidth is Bandwidth.NB,
            )
            np.testing.assert_array_equal(it.features.frames.data, alone.features.frames.data)
            assert it.target.ids == alone.target.ids and it.text == alone.text


# -- the two-halves map against a serial loop ------------------------------------


def serial_map(fn, items):
    return [fn(x) for x in items]


@pytest.fixture
def threads_seen(monkeypatch):
    """The threads that ran smoe.data's per-item work, one set per map_halves call."""
    seen, real = [], smoe.data.map_halves

    def recording(fn, items):
        threads = set()
        seen.append(threads)

        def run(x):
            threads.add(threading.current_thread())
            return fn(x)
        return real(run, items)

    monkeypatch.setattr(smoe.data, "map_halves", recording)
    return seen


def same_utterances(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.features.frames.data, y.features.frames.data)
        and x.target.ids == y.target.ids and x.text == y.text and x.bandwidth is y.bandwidth
        for x, y in zip(a, b))


def test_generated_files_and_loaded_dataset_equal_a_serial_loop(tmp_path, monkeypatch,
                                                                   threads_seen):
    args = dict(n_items=7, nbwb_mix_fraction=0.5, seed=12, min_len=2, max_len=6, n_merges=4)
    mapped = generate_dataset_files(tmp_path / "mapped", **args)
    vocab = Vocabulary.load(mapped.parent / "vocab.txt")
    loaded = load_dataset(mapped, vocab)
    assert [len(threads) for threads in threads_seen] == [2, 2]  # each map ran on two threads
    monkeypatch.setattr(smoe.data, "map_halves", serial_map)
    serial = generate_dataset_files(tmp_path / "serial", **args)
    names = sorted(p.relative_to(serial.parent) for p in serial.parent.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(mapped.parent)
                           for p in mapped.parent.rglob("*") if p.is_file())
    assert len(names) == 2 + 7 + 4  # vocab, manifest, 7 WAVs and 4 narrowband twins
    for name in names:
        assert (mapped.parent / name).read_bytes() == (serial.parent / name).read_bytes(), name
    assert same_utterances(loaded, load_dataset(serial, vocab))


def test_a_wrapped_function_keeps_the_per_item_work_on_the_calling_thread(tmp_path,
                                                                         monkeypatch):
    # a wrapper, such as a span tracer's, need not be thread-safe
    callers, real = [], smoe.data.fbank

    @functools.wraps(real)
    def wrapped(wave):
        callers.append(threading.current_thread())
        return real(wave)

    manifest = generate_dataset_files(tmp_path, n_items=4, nbwb_mix_fraction=0.5, seed=2)
    monkeypatch.setattr(smoe.data, "fbank", wrapped)
    assert len(load_dataset(manifest, Vocabulary())) == 6
    assert callers == [threading.main_thread()] * 6


# -- fuzzed manifests -----------------------------------------------------------


_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_MANIFEST = f"{MANIFEST_HEADER}\nwavs/a.wav\tWB\tASR\tabcd\nwavs/b.wav\tNB\tST\tfghi\n".encode()


def _read_fails_closed(path):
    try:
        read_manifest(path)
    except Exception as exc:
        assert type(exc).__module__ == errors.__name__, repr(exc)


@_FUZZ
@given(raw=st.binary(max_size=512))
@example(raw=b"")
@example(raw=_MANIFEST.replace(b"\tASR", b"\tasr"))
def test_read_manifest_arbitrary_bytes_fail_closed(tmp_path, raw):
    path = tmp_path / "fuzz.tsv"
    path.write_bytes(raw)
    _read_fails_closed(path)


@_FUZZ
@given(
    edits=st.lists(st.tuples(st.integers(0, len(_MANIFEST)), st.integers(0, 255)), max_size=6),
    cut=st.one_of(st.none(), st.integers(0, len(_MANIFEST))),
)
def test_read_manifest_mutated_bytes_fail_closed(tmp_path, edits, cut):
    raw = bytearray(_MANIFEST)
    for pos, value in edits:
        if pos < len(raw):
            raw[pos] = value
    path = tmp_path / "fuzz.tsv"
    path.write_bytes(bytes(raw[:cut]))
    _read_fails_closed(path)
