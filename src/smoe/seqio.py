"""Guiding tokens, byte-level BPE vocabulary, and target-sequence layout.

Every target sequence starts with three guiding tokens — task tag, target
language tag, BOS — followed by the encoded payload text and EOS. The task
tag does double duty: it conditions the decoder and drives expert routing.
The language tag is the task's own (`TASK_LANGUAGE`) and does not route, so
`guiding_prefix(task)` is the one place the three guiding tokens are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path

from .errors import ConfigError, FormatError, RoutingError, SequenceError
from .moe import Task


class GuidingToken(IntEnum):
    PAD = 0
    BOS = 1
    EOS = 2
    TRANSCRIBE = 3
    TRANSLATE = 4
    LANG_EN = 5
    LANG_KO = 6


# ids 7..15 are reserved for future special tokens and never emitted
RESERVED_SLOTS = 16
BYTE_BASE = RESERVED_SLOTS  # byte b encodes as BYTE_BASE + b
MERGE_BASE = BYTE_BASE + 256


class Language(Enum):
    EN = "en"
    KO = "ko"


LANGUAGE_TOKEN = {Language.EN: GuidingToken.LANG_EN, Language.KO: GuidingToken.LANG_KO}
TASK_TOKEN = {Task.ASR: GuidingToken.TRANSCRIBE, Task.ST: GuidingToken.TRANSLATE}
_TAG_TASK = {int(tag): task for task, tag in TASK_TOKEN.items()}
# transcripts stay in the source language, translations are to the target
TASK_LANGUAGE = {Task.ASR: Language.KO, Task.ST: Language.EN}


def guiding_prefix(task: Task) -> list[int]:
    """The ids every `task` sequence starts with: [task tag, language tag, BOS]."""
    return [int(TASK_TOKEN[task]), int(LANGUAGE_TOKEN[TASK_LANGUAGE[task]]), int(GuidingToken.BOS)]


def task_of(tag: int) -> Task:
    """The task whose guiding tag is `tag`, the inverse of TASK_TOKEN; any
    other id raises RoutingError."""
    try:
        return _TAG_TASK[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise RoutingError(f"id {tag!r} is not a task tag") from None


class Vocabulary:
    """Byte-level vocabulary: reserved ids, 256 byte ids, then merge ids.

    Merges are ordered (token_left, token_right) byte-string pairs; encode
    applies them in training order, decode concatenates the byte strings,
    so encode/decode round-trips any byte payload exactly.
    """

    def __init__(self, merges: list[tuple[bytes, bytes]] | None = None):
        self.merges: list[tuple[bytes, bytes]] = list(merges or [])
        self._token_to_id: dict[bytes, int] = {
            bytes([b]): BYTE_BASE + b for b in range(256)
        }
        self._id_to_token: dict[int, bytes] = {
            BYTE_BASE + b: bytes([b]) for b in range(256)
        }
        for i, (left, right) in enumerate(self.merges):
            merged = left + right
            if merged in self._token_to_id:
                raise ConfigError(f"duplicate merge result {merged!r}")
            self._token_to_id[merged] = MERGE_BASE + i
            self._id_to_token[MERGE_BASE + i] = merged

    @property
    def size(self) -> int:
        return RESERVED_SLOTS + 256 + len(self.merges)

    def encode(self, text: bytes) -> list[int]:
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError(f"payload must be bytes, got {type(text).__name__}")
        tokens = [bytes([b]) for b in text]
        for left, right in self.merges:
            tokens = _apply_merge(tokens, left, right)
        return [self._token_to_id[t] for t in tokens]

    def decode(self, ids: list[int]) -> bytes:
        out = bytearray()
        for i in ids:
            token = self._id_to_token.get(i)
            if token is None:
                raise SequenceError(f"id {i} is not a payload token")
            out.extend(token)
        return bytes(out)

    def save(self, path: str | Path) -> None:
        lines = [f"smoe-vocab v1 merges={len(self.merges)}"]
        for left, right in self.merges:
            lines.append(f"{left.hex()}\t{right.hex()}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    @staticmethod
    def load(path: str | Path) -> "Vocabulary":
        try:
            text = Path(path).read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII vocabulary file {path}") from exc
        lines = [ln for ln in text.split("\n") if ln]
        if not lines or not lines[0].startswith("smoe-vocab v1 merges="):
            raise FormatError(f"bad vocabulary header in {path}")
        try:
            n = int(lines[0].rsplit("=", 1)[1])
        except ValueError as exc:
            raise FormatError(f"bad merge count in {path}") from exc
        if len(lines) - 1 != n:
            raise FormatError(f"expected {n} merge lines, found {len(lines) - 1}")
        merges = []
        for ln in lines[1:]:
            parts = ln.split("\t")
            if len(parts) != 2:
                raise FormatError(f"bad merge line: {ln!r}")
            try:
                merges.append((bytes.fromhex(parts[0]), bytes.fromhex(parts[1])))
            except ValueError as exc:
                raise FormatError(f"non-hex merge line: {ln!r}") from exc
        try:
            return Vocabulary(merges)
        except ConfigError as exc:
            raise FormatError(f"bad vocabulary {path}: {exc}") from exc


def _apply_merge(tokens: list[bytes], left: bytes, right: bytes) -> list[bytes]:
    out: list[bytes] = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def train_bpe(corpus: list[bytes], n_merges: int) -> Vocabulary:
    """Greedy byte-pair merges: most frequent adjacent pair wins each round,
    ties broken by lexicographically smallest (left, right) pair. Stops
    early if no pair occurs twice."""
    if n_merges < 0:
        raise ConfigError(f"merge count must be >= 0, got {n_merges}")
    if not corpus:
        raise ConfigError("BPE corpus must be non-empty")
    sequences = [[bytes([b]) for b in text] for text in corpus]
    merges: list[tuple[bytes, bytes]] = []
    existing = {bytes([b]) for b in range(256)}
    for _ in range(n_merges):
        counts: dict[tuple[bytes, bytes], int] = {}
        for seq in sequences:
            for a, b in zip(seq, seq[1:]):
                if a + b in existing:
                    continue  # would collide with an existing token
                counts[(a, b)] = counts.get((a, b), 0) + 1
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        pair = min(p for p, c in counts.items() if c == top)
        merges.append(pair)
        existing.add(pair[0] + pair[1])
        sequences = [_apply_merge(seq, *pair) for seq in sequences]
    return Vocabulary(merges)


@dataclass
class TargetSequence:
    """Token ids laid out as [task tag, language tag, BOS, payload..., EOS]."""

    task: Task
    ids: list[int]

    def __post_init__(self):
        ids = self.ids
        if len(ids) < 4:
            raise SequenceError(f"target sequence too short: {ids}")
        prefix = guiding_prefix(self.task)
        if ids[:3] != prefix:
            raise SequenceError(f"ids {ids[:3]} are not the {self.task.value} prefix {prefix}")
        if ids[-1] != GuidingToken.EOS:
            raise SequenceError("last id must be EOS")
        if any(i == GuidingToken.PAD for i in ids):
            raise SequenceError("PAD must not appear inside a target sequence")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def payload_ids(self) -> list[int]:
        return self.ids[3:-1]


def build_target_sequence(task: Task, text: bytes, vocab: Vocabulary) -> TargetSequence:
    """Assemble the task's guiding prefix plus encoded payload into a TargetSequence."""
    ids = [*guiding_prefix(task), *vocab.encode(text), int(GuidingToken.EOS)]
    return TargetSequence(task=task, ids=ids)
