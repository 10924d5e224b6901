"""Synthetic speech-like datasets: symbol strings rendered as tone audio.

Each of 16 symbols maps to a two-tone chord: a quiet low tone below 3.4 kHz
that survives narrowband conversion, and a loud high tone above 4.4 kHz
that narrowband conversion removes. A model trained only on wideband audio
leans on the dominant high tones and degrades on narrowband input, while
the low tones keep every symbol recoverable — exactly the regime the
encoder's narrowband expert is there to fix.

Transcription ("ASR") targets are the symbols themselves; translation
("ST") targets apply a fixed derangement of the alphabet, so the two tasks
conflict on every symbol and compete for shared decoder capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .moe import Bandwidth, Task
from .seqio import TASK_LANGUAGE, TargetSequence, Vocabulary, build_target_sequence, train_bpe
from .signal import (
    SAMPLE_RATE_WB,
    FbankFeatures,
    Waveform,
    fbank,
    read_wav,
    to_narrowband,
    write_wav,
)

ALPHABET = "abcdefghijklmnop"
ST_ROTATION = 5  # any nonzero rotation of the alphabet is a derangement

SYMBOL_SECONDS = 0.08
GAP_SECONDS = 0.02  # silence between symbols marks segment boundaries
LOW_TONE_BASE_HZ = 800.0
LOW_TONE_STEP_HZ = 170.0
HIGH_TONE_BASE_HZ = 4400.0
HIGH_TONE_STEP_HZ = 200.0
# slot pilots sit below the identity band and survive narrowband conversion;
# they disambiguate repeated symbols the way prosody anchors real speech
PILOT_BASE_HZ = 120.0
PILOT_STEP_HZ = 60.0
PILOT_SLOTS = 8
LOW_TONE_AMP = 0.3
HIGH_TONE_AMP = 0.9
PILOT_AMP = 0.25
NOISE_AMP = 0.004


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Two symbol-level mappings over one input distribution.

    map_a is the transcription rule, map_b the translation rule; they must
    conflict on most symbols to put pressure on a shared decoder.
    """

    alphabet: str
    map_a: dict[str, str]
    map_b: dict[str, str]

    def __post_init__(self):
        for m in (self.map_a, self.map_b):
            if set(m) != set(self.alphabet):
                raise ConfigError("task maps must cover the alphabet exactly")

    @staticmethod
    def default() -> "SyntheticTaskSpec":
        identity = {s: s for s in ALPHABET}
        rotated = {
            s: ALPHABET[(i + ST_ROTATION) % len(ALPHABET)] for i, s in enumerate(ALPHABET)
        }
        return SyntheticTaskSpec(alphabet=ALPHABET, map_a=identity, map_b=rotated)

    def apply(self, task: Task, symbols: str) -> str:
        mapping = self.map_a if task is Task.ASR else self.map_b
        return "".join(mapping[s] for s in symbols)


def symbol_tones(symbol: str) -> tuple[tuple[float, float], tuple[float, float]]:
    i = ALPHABET.index(symbol)
    low = (LOW_TONE_BASE_HZ + i * LOW_TONE_STEP_HZ, LOW_TONE_AMP)
    high = (HIGH_TONE_BASE_HZ + i * HIGH_TONE_STEP_HZ, HIGH_TONE_AMP)
    return low, high


def _segment_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-symbol chords [16 x n_seg], per-slot pilots [8 x n_seg] and the
    segment envelope, each row computed by the same expression a single
    segment would use, so a render from the tables is bitwise the same."""
    n_seg = int(SYMBOL_SECONDS * SAMPLE_RATE_WB)
    t = np.arange(n_seg) / SAMPLE_RATE_WB
    chords = np.empty((len(ALPHABET), n_seg))
    for i, s in enumerate(ALPHABET):
        (f_lo, a_lo), (f_hi, a_hi) = symbol_tones(s)
        chords[i] = a_lo * np.sin(2 * np.pi * f_lo * t) + a_hi * np.sin(2 * np.pi * f_hi * t)
    pilots = np.empty((PILOT_SLOTS, n_seg))
    for slot in range(PILOT_SLOTS):
        f_pilot = PILOT_BASE_HZ + PILOT_STEP_HZ * slot
        pilots[slot] = PILOT_AMP * np.sin(2 * np.pi * f_pilot * t)
    ramp = max(1, n_seg // 16)
    envelope = np.ones(n_seg)
    fade = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    envelope[:ramp] = fade
    envelope[-ramp:] = fade[::-1]
    return chords, pilots, envelope


_CHORDS, _PILOTS, _ENVELOPE = _segment_tables()
_GAP_SAMPLES = int(GAP_SECONDS * SAMPLE_RATE_WB)


def render_symbols(symbols: str, seed: int) -> Waveform:
    """Render a symbol string as a 16 kHz two-tone sequence.

    Each segment gets a short raised-cosine envelope (limits spectral
    splatter) and is followed by a brief silence, so segment boundaries are
    visible in the features and repeated symbols stay alignable."""
    if not symbols:
        raise ConfigError("cannot render an empty symbol string")
    ids = [ALPHABET.index(s) for s in symbols]
    n, n_seg = len(ids), _CHORDS.shape[1]
    rows = np.zeros((n, n_seg + _GAP_SAMPLES))
    rows[:, :n_seg] = (_CHORDS[ids] + _PILOTS[np.arange(n) % PILOT_SLOTS]) * _ENVELOPE
    samples = rows.ravel()[:-_GAP_SAMPLES]  # no trailing gap
    rng = np.random.default_rng(seed)
    samples = samples + NOISE_AMP * rng.standard_normal(len(samples))
    peak = np.abs(samples).max()
    if peak > 0.95:
        samples *= 0.95 / peak
    return Waveform(samples=samples, sample_rate=SAMPLE_RATE_WB)


def random_symbols(rng: np.random.Generator, min_len: int, max_len: int) -> str:
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), size=n))


@dataclass
class Utterance:
    """One training/eval item: cached features plus its labels and target."""

    symbols: str
    task: Task
    bandwidth: Bandwidth
    features: FbankFeatures
    target: TargetSequence
    text: bytes


def _labelled(
    symbols: str,
    task: Task,
    task_spec: SyntheticTaskSpec,
    vocab: Vocabulary,
    features: FbankFeatures,
) -> Utterance:
    """An utterance of `features` with its task's text and target. The
    features are shared, not copied: nothing writes to them in place."""
    text = task_spec.apply(task, symbols).encode("ascii")
    target = build_target_sequence(task, TASK_LANGUAGE[task], text, vocab)
    return Utterance(
        symbols=symbols,
        task=task,
        bandwidth=features.bandwidth,
        features=features,
        target=target,
        text=text,
    )


def make_utterance(
    symbols: str,
    task: Task,
    task_spec: SyntheticTaskSpec,
    vocab: Vocabulary,
    seed: int,
    narrowband: bool = False,
) -> Utterance:
    wave = render_symbols(symbols, seed)
    if narrowband:
        wave = to_narrowband(wave)
    return _labelled(symbols, task, task_spec, vocab, fbank(wave))


def make_paired_dataset(
    n_inputs: int,
    seed: int,
    task_spec: SyntheticTaskSpec | None = None,
    vocab: Vocabulary | None = None,
    min_len: int = 3,
    max_len: int = 5,
    nb_fraction: float = 0.0,
) -> list[Utterance]:
    """n_inputs random symbol strings, one utterance per (input, task).

    nb_fraction of the inputs additionally appear as narrowband twins
    (same symbols, same targets, downsampled audio).
    """
    if task_spec is None:
        task_spec = SyntheticTaskSpec.default()
    if vocab is None:
        vocab = Vocabulary()
    if not 0.0 <= nb_fraction <= 1.0:
        raise ConfigError(f"nb_fraction must be in [0, 1], got {nb_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    inputs = [random_symbols(rng, min_len, max_len) for _ in range(n_inputs)]
    n_nb = int(round(nb_fraction * n_inputs))
    nb_indices = set(rng.permutation(n_inputs)[:n_nb].tolist())
    items: list[Utterance] = []
    for idx, symbols in enumerate(inputs):
        # each input is rendered once and featurized once per bandwidth;
        # its utterances for every task share those features
        item_seed = seed * 1_000_003 + idx
        wave = render_symbols(symbols, item_seed)
        wb = fbank(wave)
        nb = fbank(to_narrowband(wave)) if idx in nb_indices else None
        for task in (Task.ASR, Task.ST):
            items.append(_labelled(symbols, task, task_spec, vocab, wb))
            if nb is not None:
                items.append(_labelled(symbols, task, task_spec, vocab, nb))
    return items


# -- manifest + on-disk datasets ----------------------------------------------

MANIFEST_HEADER = "smoe-manifest v1"


@dataclass(frozen=True)
class ManifestRecord:
    audio_path: str  # relative to the manifest directory
    bandwidth: Bandwidth
    task: Task
    text: str


def write_manifest(path: str | Path, records: list[ManifestRecord]) -> None:
    lines = [MANIFEST_HEADER]
    for r in records:
        lines.append(f"{r.audio_path}\t{r.bandwidth.value}\t{r.task.value}\t{r.text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> list[ManifestRecord]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-UTF-8 manifest {path}") from exc
    if not lines or lines[0] != MANIFEST_HEADER:
        raise FormatError(f"bad manifest header in {path}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
        audio, bw, task, text = parts
        try:
            records.append(
                ManifestRecord(
                    audio_path=audio,
                    bandwidth=Bandwidth(bw),
                    task=Task(task),
                    text=text,
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return records


def generate_dataset_files(
    out_dir: str | Path,
    n_items: int,
    nbwb_mix_fraction: float,
    seed: int,
    task_spec: SyntheticTaskSpec | None = None,
    min_len: int = 3,
    max_len: int = 5,
    n_merges: int = 0,
) -> Path:
    """Write WAVs, targets, a vocabulary, and a manifest; returns the
    manifest path.

    Each item gets one task (alternating transcription/translation); a
    nbwb_mix_fraction subset of items gains a narrowband twin record with
    the same task and target. The vocabulary is trained on the texts before
    any file is written, so a rejected merge count leaves no WAV behind.
    """
    if n_items <= 0:
        raise ConfigError(f"n_items must be positive, got {n_items}")
    if not 0.0 <= nbwb_mix_fraction <= 1.0:
        raise ConfigError(f"nbwb_mix_fraction must be in [0, 1], got {nbwb_mix_fraction}")
    if not 1 <= min_len <= max_len:
        raise ConfigError(f"symbol counts need 1 <= min_len <= max_len, got {min_len}, {max_len}")
    if task_spec is None:
        task_spec = SyntheticTaskSpec.default()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    n_nb = int(round(nbwb_mix_fraction * n_items))
    nb_indices = set(rng.permutation(n_items)[:n_nb].tolist())
    symbols = [random_symbols(rng, min_len, max_len) for _ in range(n_items)]
    tasks = [Task.ASR if idx % 2 == 0 else Task.ST for idx in range(n_items)]
    texts = [task_spec.apply(task, s) for task, s in zip(tasks, symbols)]
    vocab = train_bpe([text.encode("ascii") for text in texts], n_merges)

    out = Path(out_dir)
    (out / "wavs").mkdir(parents=True, exist_ok=True)
    records: list[ManifestRecord] = []
    for idx, (syms, task, text) in enumerate(zip(symbols, tasks, texts)):
        wave = render_symbols(syms, seed=seed * 1_000_003 + idx)
        wb_rel = f"wavs/item_{idx:05d}_wb.wav"
        write_wav(out / wb_rel, wave)
        records.append(
            ManifestRecord(audio_path=wb_rel, bandwidth=Bandwidth.WB, task=task, text=text)
        )
        if idx in nb_indices:
            nb_rel = f"wavs/item_{idx:05d}_nb.wav"
            write_wav(out / nb_rel, to_narrowband(wave))
            records.append(
                ManifestRecord(audio_path=nb_rel, bandwidth=Bandwidth.NB, task=task, text=text)
            )
    vocab.save(out / "vocab.txt")
    (out / "targets.txt").write_text(
        "".join(f"{r.audio_path}\t{r.text}\n" for r in records), encoding="utf-8"
    )
    manifest_path = out / "manifest.tsv"
    write_manifest(manifest_path, records)
    return manifest_path


def load_dataset(manifest_path: str | Path, vocab: Vocabulary) -> list[Utterance]:
    """Read a manifest directory back into feature-extracted utterances."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    items = []
    for r in read_manifest(manifest_path):
        wave = read_wav(base / r.audio_path)
        if wave.bandwidth is not r.bandwidth:
            raise FormatError(
                f"{r.audio_path}: manifest says {r.bandwidth.value}, "
                f"file is {wave.bandwidth.value}"
            )
        feats = fbank(wave)
        text = r.text.encode("utf-8")
        target = build_target_sequence(r.task, TASK_LANGUAGE[r.task], text, vocab)
        items.append(
            Utterance(
                symbols="",  # unknown from disk; targets carry the payload
                task=r.task,
                bandwidth=r.bandwidth,
                features=feats,
                target=target,
                text=text,
            )
        )
    return items
