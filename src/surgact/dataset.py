"""Kinematic trial ingestion, label transcripts, and the trial catalog.

A trial is a fixed-rate multichannel recording stored as delimiter-separated
numeric text, one row per frame; `load_trial_kinematics` reads it into a
read-only (frames, channels) float64 array. Labels arrive as transcripts:
ordered `start end label` records over inclusive frame ranges.
Motion-primitive (MP) labels are strings like ``Grasp(L, Needle)``; gesture
labels are opaque strings. A catalog maps (task, subject, trial) keys to the
files on disk.

Each rule has one home. `TranscriptFile.bind` fits a transcript to its
trial: an MP transcript that labels no frame leaves the trial all Idle, a
gesture transcript must label one. A transcript carries no class list;
`encode_frames` is the one check that its labels are an experiment's
classes, and it marks a frame no segment covers as `GAP`, the one form an
unlabelled frame takes: the loss counts it for nothing, accuracy and AP
drop it, and it ends a segment. `CatalogEntry.transcript_source` names the
file a granularity is read from: a per-arm granularity a trial declares no
file for comes from its combined 'mp' file.

Frame indexing is 0-based and segment ranges are inclusive on both ends, so
a segment (start=0, end=29) covers 30 frames.

The model reads 7 of each arm's columns (`arm_columns`); a feature
selection is a plain tuple of column indices, arms ordered left then right.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ConfigError, DataError

GRANULARITIES = ("gesture", "mp", "mp-left", "mp-right")
# the per-arm granularities and the tool side each one keeps
ARM_SIDES = {"mp-left": "L", "mp-right": "R"}

MP_VERBS = ("Grasp", "Release", "Touch", "Untouch", "Pull", "Push")
IDLE = "Idle"

DEFAULT_SAMPLE_RATE = 30.0

# three pooling stages of width 2
MIN_FRAMES = 8

# One arm contributes 19 columns in the standard export: tool position (3),
# rotation matrix (9), linear velocity (3), angular velocity (3), gripper
# angle (1). Two arms, left first, give 38 columns total.
COLUMNS_PER_ARM = 19

TrialKey = tuple[str, str, str]

GAP = -1  # the target of a frame that no segment covers


# ---------------------------------------------------------------------------
# labels

# verb, then an optional "(tool, object)"; nothing reads the object
_MP_PATTERN = re.compile(r"^\s*([A-Za-z]+)\s*(?:\(\s*([^,()]*?)\s*,\s*[^()]*?\s*\))?\s*$")


def parse_mp_label(text: str) -> tuple[str, Optional[str]]:
    """An MP label's verb and tool side ("L" or "R"; None when the label
    names no tool, as Idle never does)."""
    m = _MP_PATTERN.match(text)
    if not m:
        raise DataError(f"cannot parse motion primitive label: {text!r}")
    verb, tool = m.group(1), m.group(2)
    if verb != IDLE and verb not in MP_VERBS:
        raise DataError(f"unknown motion primitive verb: {verb!r}")
    if tool is not None and tool not in ("L", "R"):
        raise DataError(f"unknown tool side: {tool!r}")
    if verb == IDLE and tool is not None:
        raise DataError("Idle takes no tool or object")
    return verb, tool


def mp_verb(label: str) -> str:
    """Collapse an MP label string to its verb (used for verb-level scoring)."""
    return parse_mp_label(label)[0]


def arm_of(label: str) -> Optional[str]:
    """The tool side ("L" or "R") an MP label belongs to; None for Idle,
    which belongs to neither arm. A non-Idle label that names no tool side
    cannot be attributed and is an error."""
    verb, tool = parse_mp_label(label)
    if verb != IDLE and tool is None:
        raise DataError(f"motion primitive {label!r} names no tool side")
    return tool


# ---------------------------------------------------------------------------
# transcripts

@dataclass(frozen=True, order=True)
class Segment:
    """Inclusive labeled frame range [start, end]."""

    start: int
    end: int
    label: str

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DataError(f"bad segment range [{self.start}, {self.end}]")

    @property
    def num_frames(self) -> int:
        return self.end - self.start + 1


def _check_follows(prev: Optional[Segment], seg: Segment) -> None:
    """A segment must start after the one before it and not overlap it."""
    if prev is None:
        return
    if seg.start <= prev.start:
        raise DataError(f"segment starts must increase ({seg.start} after {prev.start})")
    if seg.start <= prev.end:
        raise DataError(f"segment [{seg.start}, {seg.end}] overlaps [{prev.start}, {prev.end}]")


@dataclass(frozen=True)
class LabelTranscript:
    """Ordered non-overlapping segments over a trial of `length` frames.

    Per-arm granularities (mp-left, mp-right) must tile the trial exactly:
    every frame labeled, no gaps, because the arm models are trained on
    every frame. Gesture and combined-MP transcripts may leave gaps.
    """

    granularity: str
    segments: tuple[Segment, ...]
    length: int

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity: {self.granularity!r}")
        if self.length < 1:
            raise DataError(f"transcript length must be >= 1, got {self.length}")
        for prev, seg in zip((None, *self.segments), self.segments):
            if seg.end >= self.length:
                raise DataError(
                    f"segment [{seg.start}, {seg.end}] exceeds trial length {self.length}")
            _check_follows(prev, seg)
        if self.granularity in ("mp-left", "mp-right"):
            pos = 0
            for seg in self.segments:
                if seg.start != pos:
                    raise DataError(
                        f"{self.granularity} transcript leaves frames "
                        f"[{pos}, {seg.start - 1}] unlabeled")
                pos = seg.end + 1
            if pos != self.length:
                raise DataError(
                    f"{self.granularity} transcript leaves frames "
                    f"[{pos}, {self.length - 1}] unlabeled")


@dataclass(frozen=True)
class TranscriptFile:
    """A transcript file's segments, parsed without the trial length.

    `bind` checks them against a trial length.
    """

    path: Path
    granularity: str
    segments: tuple[Segment, ...]

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(seg.label for seg in self.segments)

    def arm_labels(self) -> dict[str, frozenset[str]]:
        """The labels of each per-arm granularity (`ARM_SIDES`) derived from
        this combined 'mp' file by `arm_of`."""
        try:
            arms = {lab: arm_of(lab) for lab in self.labels}
        except DataError as exc:
            raise DataError(f"{self.path}: {exc}") from None
        return {granularity: frozenset(lab for lab, arm in arms.items() if arm == side)
                for granularity, side in ARM_SIDES.items()}

    def bind(self, length: int) -> LabelTranscript:
        """The transcript of a trial of `length` frames. A gesture
        transcript must label a frame; an MP one may leave the trial all
        Idle."""
        if length < MIN_FRAMES:
            raise DataError(
                f"{self.path}: trial has {length} frames, the model needs at "
                f"least {MIN_FRAMES}")
        if self.granularity == "gesture" and not self.segments:
            raise DataError(f"{self.path}: gesture transcript labels no frame")
        try:
            return LabelTranscript(
                granularity=self.granularity, segments=self.segments, length=length)
        except DataError as exc:
            raise DataError(f"{self.path}: {exc}") from None


def load_transcript(path, granularity: str = "mp") -> TranscriptFile:
    """Parse a `start end label` transcript file.

    Records must be ordered by start frame and must not overlap. Labels of
    the motion-primitive granularities must parse as `verb(tool, object)`
    or `Idle`; a per-arm file's must be `Idle` or name its arm's tool side,
    as a view `split_by_arm` derives would. Errors name the file and line.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"transcript file not found: {p}")
    side = ARM_SIDES.get(granularity)
    segments: list[Segment] = []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise DataError(f"{p}:{lineno}: expected 'start end label', got {raw!r}")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{p}:{lineno}: frame indices must be integers")
        label = parts[2].strip()
        try:
            if granularity != "gesture":
                verb, tool = parse_mp_label(label)
                if side is not None and verb != IDLE and tool != side:
                    raise DataError(
                        f"{granularity} label {label!r} is neither Idle nor "
                        f"an action of tool side {side}")
            seg = Segment(start, end, label)
            _check_follows(segments[-1] if segments else None, seg)
        except DataError as exc:
            raise DataError(f"{p}:{lineno}: {exc}") from None
        segments.append(seg)
    return TranscriptFile(path=p, granularity=granularity, segments=tuple(segments))


def encode_frames(
    transcript: LabelTranscript,
    label_to_id: Mapping[str, int],
    fill: Optional[str] = None,
) -> np.ndarray:
    """Per-frame integer targets: each segment's class id, and on the frames
    no segment covers the fill label's id or, without a fill, `GAP`."""
    ids = np.full(transcript.length, GAP, dtype=np.int64)
    if fill is not None:
        if fill not in label_to_id:
            raise DataError(f"fill label {fill!r} not in label mapping")
        ids[:] = label_to_id[fill]
    for seg in transcript.segments:
        if seg.label not in label_to_id:
            raise DataError(f"label {seg.label!r} not in label mapping")
        ids[seg.start:seg.end + 1] = label_to_id[seg.label]
    return ids


def _tile_with_idle(kept: list[Segment], length: int) -> list[Segment]:
    tiled: list[Segment] = []
    pos = 0
    for seg in kept:
        if seg.start > pos:
            tiled.append(Segment(pos, seg.start - 1, IDLE))
        tiled.append(seg)
        pos = seg.end + 1
    if pos < length:
        tiled.append(Segment(pos, length - 1, IDLE))
    # merge adjacent identical labels so run-length segments match exactly
    merged: list[Segment] = []
    for seg in tiled:
        if merged and merged[-1].label == seg.label and merged[-1].end + 1 == seg.start:
            merged[-1] = Segment(merged[-1].start, seg.end, seg.label)
        else:
            merged.append(seg)
    return merged


def split_by_arm(transcript: LabelTranscript) -> tuple[LabelTranscript, LabelTranscript]:
    """Split a bimanual MP transcript into (mp-left, mp-right) transcripts.

    Each segment goes to the arm `arm_of` names; Idle segments go to
    neither. Gaps left on either side are filled with Idle so both outputs
    tile the trial.
    """
    if transcript.granularity != "mp":
        raise ConfigError(
            f"can only split combined 'mp' transcripts, got {transcript.granularity!r}")
    arms = [arm_of(seg.label) for seg in transcript.segments]
    out = []
    for granularity, side in ARM_SIDES.items():
        kept = [seg for seg, arm in zip(transcript.segments, arms) if arm == side]
        out.append(LabelTranscript(
            granularity=granularity,
            segments=tuple(_tile_with_idle(kept, transcript.length)),
            length=transcript.length,
        ))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# kinematics

def load_trial_kinematics(path, expected_channels: Optional[int] = None) -> np.ndarray:
    """Read a delimiter-separated numeric trial file into a read-only
    (frames, channels) float64 array.

    Accepts whitespace or comma delimiters. Every row must have the same
    number of columns, at least one, and every cell must parse to a finite
    float. A comma needs a value on each side in its row: a doubled,
    leading or trailing comma marks an empty cell, which is an error.

    numpy parses the file, splitting rows at commas if the file holds one
    and at blanks if not; with a comma delimiter numpy itself rejects an
    empty cell. Any file it rejects, such as one that mixes comma and blank
    delimiters, or that holds a non-finite cell or no data row, is parsed
    again line by line, which either raises the error naming `path:line` or
    returns the cells `float()` accepts and numpy does not (such as ``1_0``).
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"kinematics file not found: {p}")
    text = p.read_text()
    # Python's line split, not numpy's: given the raw text, loadtxt reads
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029 as spaces inside a row,
    # where the line parser ends the row
    lines = text.splitlines()
    data = None
    # a file of blank lines would make loadtxt warn "input contained no data"
    if any(line.strip() for line in lines):
        try:
            # comments=None: a '#' line is a bad cell, not a comment
            data = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2,
                              delimiter="," if "," in text else None)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        data = _parse_kinematics_lines(p, text)
    if expected_channels is not None and data.shape[1] != expected_channels:
        raise DataError(f"{p}: {data.shape[1]} channels, expected {expected_channels}")
    data.setflags(write=False)
    return data


def _parse_kinematics_lines(p: Path, text: str) -> np.ndarray:
    """Parse kinematics text one `float()` per cell; errors name `p:line`.

    The reference that the numpy path of `load_trial_kinematics` is tested
    against.
    """
    rows: list[list[float]] = []
    width: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if not tokens:
            raise DataError(f"{p}:{lineno}: row has delimiters but no values")
        if "," in line and not all(cell.strip() for cell in line.split(",")):
            raise DataError(f"{p}:{lineno}: empty cell beside a comma")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise DataError(f"{p}:{lineno}: {len(tokens)} columns, expected {width}")
        values = []
        for col, tok in enumerate(tokens):
            try:
                v = float(tok)
            except ValueError:
                raise DataError(f"{p}:{lineno}: column {col}: {tok!r}")
            if not np.isfinite(v):
                raise DataError(f"{p}:{lineno}: column {col}: non-finite {tok!r}")
            values.append(v)
        rows.append(values)
    if not rows:
        raise DataError(f"kinematics file has no data rows: {p}")
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# feature selection

def arm_columns(offset: int) -> tuple[int, ...]:
    """The 7 modeling columns of the arm whose block starts at `offset`:
    position (3), linear velocity (3) and gripper angle (1)."""
    return (offset, offset + 1, offset + 2, offset + 12, offset + 13, offset + 14,
            offset + 18)


def select_features(kinematics: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """Gather the columns of a (frames, channels) array into a (T, F) array,
    order preserved; the columns must be distinct and inside the trial."""
    if len(set(cols)) != len(cols):
        seen = set()
        dup = next(c for c in cols if c in seen or seen.add(c))
        raise DataError(f"column {dup} selected more than once")
    channels = kinematics.shape[1]
    for c in cols:
        if c < 0 or c >= channels:
            raise DataError(f"column {c} outside [0, {channels})")
    return np.ascontiguousarray(kinematics[:, list(cols)])


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    """Where one trial's files live, plus its identity."""

    dataset: str
    task: str
    subject: str
    trial: str
    kinematics: Path
    transcripts: tuple[tuple[str, Path], ...]  # (granularity, path), sorted

    @property
    def key(self) -> TrialKey:
        return (self.task, self.subject, self.trial)

    @property
    def subject_key(self) -> tuple[str, str]:
        # subjects are only comparable within one source dataset
        return (self.dataset, self.subject)

    def transcript_path(self, granularity: str) -> Optional[Path]:
        for g, p in self.transcripts:
            if g == granularity:
                return p
        return None

    def transcript_source(self, granularity: str) -> tuple[str, Path]:
        """The (file granularity, path) this trial's `granularity` labels are
        read from: its own file, or, for a per-arm granularity it declares
        no file for, its combined 'mp' file. Reads no file."""
        source = granularity
        if granularity in ARM_SIDES and self.transcript_path(granularity) is None:
            source = "mp"
        path = self.transcript_path(source)
        if path is None:
            raise DataError(
                f"trial {self.key} declares no {granularity!r} transcript"
                + ("" if source == granularity else " and no 'mp' one"))
        return source, path


@dataclass(frozen=True)
class Catalog:
    """All known trials, recorded at one frame rate. Keys (task, subject,
    trial) are unique."""

    entries: tuple[CatalogEntry, ...]
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        seen: dict[TrialKey, CatalogEntry] = {}
        for e in self.entries:
            if e.key in seen:
                raise DataError(f"duplicate trial key {e.key}")
            seen[e.key] = e
            if e.dataset == "ROSMA" and e.transcript_path("gesture") is not None:
                raise DataError(f"trial {e.key}: ROSMA recordings carry no gesture labels")
        object.__setattr__(self, "_by_key", seen)

    def get(self, task: str, subject: str, trial: str) -> CatalogEntry:
        key = (task, subject, trial)
        entry = self._by_key.get(key)
        if entry is None:
            raise DataError(f"trial {key} not in catalog")
        return entry

    def tasks(self) -> tuple[str, ...]:
        return tuple(sorted({e.task for e in self.entries}))

    def entries_for_tasks(self, tasks: Iterable[str]) -> tuple[CatalogEntry, ...]:
        wanted = set(tasks)
        return tuple(e for e in self.entries if e.task in wanted)

    def datasets_of_tasks(self, tasks: Iterable[str]) -> frozenset[str]:
        return frozenset(e.dataset for e in self.entries_for_tasks(tasks))

    def task_has_granularity(self, task: str, granularity: str) -> bool:
        pool = self.entries_for_tasks([task])
        if not pool:
            return False
        return all(e.transcript_path(granularity) is not None for e in pool)


def build_catalog(manifest_path) -> Catalog:
    """Load a JSON manifest and verify every referenced file exists.

    The manifest is one object, {"entries": [...]}; each entry carries
    dataset/task/subject/trial id strings, a kinematics path, and a map
    from granularities (`GRANULARITIES`) to transcript paths. Relative paths
    resolve against the manifest's directory. The object may give the frame
    rate as "sample_rate", a positive number of Hz; without it the rate is
    DEFAULT_SAMPLE_RATE.
    """
    mp = Path(manifest_path)
    if not mp.is_file():
        raise DataError(f"catalog manifest not found: {mp}")
    try:
        doc = json.loads(mp.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"catalog manifest is not valid JSON: {mp}: {exc}")
    if not isinstance(doc, dict):
        raise DataError(f'catalog manifest must hold a JSON object {{"entries": [...]}}: {mp}')
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise DataError(f"catalog manifest must hold a list of entries: {mp}")
    sample_rate = doc.get("sample_rate", DEFAULT_SAMPLE_RATE)
    if (isinstance(sample_rate, bool) or not isinstance(sample_rate, (int, float))
            or not math.isfinite(sample_rate) or sample_rate <= 0):
        raise DataError(
            f"catalog manifest sample_rate must be a positive number of Hz, "
            f"got {sample_rate!r}: {mp}")
    entries: list[CatalogEntry] = []
    for i, item in enumerate(raw_entries):
        try:
            dataset = item["dataset"]
            task = item["task"]
            subject = item["subject"]
            trial = item["trial"]
            kin_rel = item["kinematics"]
            transcripts = item.get("transcripts", {})
        except (TypeError, KeyError) as exc:
            raise DataError(f"manifest entry {i} is malformed: missing {exc}")
        for name, value in (("dataset", dataset), ("task", task),
                            ("subject", subject), ("trial", trial)):
            if not isinstance(value, str):
                raise DataError(f"manifest entry {i}: {name} must be a string, got {value!r}")
        if not isinstance(kin_rel, str):
            raise DataError(
                f"manifest entry {i}: kinematics must be a path string, got {kin_rel!r}")
        if not isinstance(transcripts, dict) or not all(
                isinstance(path, str) for path in transcripts.values()):
            raise DataError(
                f"manifest entry {i}: transcripts must map granularities to path "
                f"strings, got {transcripts!r}")
        kin = mp.parent / kin_rel
        if not kin.is_file():
            raise DataError(f"manifest entry {i}: kinematics file not found: {kin}")
        unknown = sorted(set(transcripts) - set(GRANULARITIES))
        if unknown:
            raise DataError(f"manifest entry {i}: unknown transcript granularity "
                            f"{unknown[0]!r}; known: {', '.join(GRANULARITIES)}")
        tpairs = []
        for granularity in sorted(transcripts):
            tp = mp.parent / transcripts[granularity]
            if not tp.is_file():
                raise DataError(f"manifest entry {i}: {granularity} transcript not found: {tp}")
            tpairs.append((granularity, tp))
        entries.append(CatalogEntry(
            dataset=dataset, task=task, subject=subject, trial=trial,
            kinematics=kin, transcripts=tuple(tpairs)))
    return Catalog(entries=tuple(entries), sample_rate=float(sample_rate))
