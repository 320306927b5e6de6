"""The generated corpus must satisfy every contract the loaders enforce."""

import hashlib

import pytest

from surgact.dataset import (
    GAP,
    build_catalog,
    encode_frames,
    load_transcript,
    load_trial_kinematics,
    parse_mp_label,
    split_by_arm,
)
from surgact.errors import ConfigError
from surgact.synth import generate_synthetic_dataset, synthetic_class_labels


class TestSyntheticClassLabels:
    def test_alternating_tool_sides(self):
        labels = synthetic_class_labels(5)
        assert [parse_mp_label(lab)[1] for lab in labels] == ["L", "R", "L", "R", "L"]
        assert len(set(labels)) == 5

    def test_labels_parse_cleanly(self):
        for lab in synthetic_class_labels(12):
            parse_mp_label(lab)


class TestGeneratedCorpus:
    def test_catalog_builds(self, synth_manifest):
        cat = build_catalog(synth_manifest)
        assert len(cat.entries) == 2 * 3 * 2
        assert cat.tasks() == ("T01", "T02")
        for e in cat.entries:
            assert [g for g, _ in e.transcripts] == ["gesture", "mp", "mp-left", "mp-right"]

    def test_kinematics_have_38_channels(self, synth_manifest):
        cat = build_catalog(synth_manifest)
        e = cat.entries[0]
        data = load_trial_kinematics(e.kinematics, expected_channels=38)
        assert 120 <= len(data) <= 160

    def test_mp_transcript_tiles_the_trial(self, synth_manifest):
        cat = build_catalog(synth_manifest)
        e = cat.entries[0]
        frames = len(load_trial_kinematics(e.kinematics))
        parsed = load_transcript(e.transcript_path("mp"), "mp")
        tr = parsed.bind(frames)
        assert sum(seg.num_frames for seg in tr.segments) == frames  # no gaps
        ids = encode_frames(tr, {lab: i for i, lab in enumerate(sorted(parsed.labels))})
        assert ids.shape == (frames,) and (ids != GAP).all()

    def test_per_arm_files_match_the_production_split(self, synth_manifest):
        cat = build_catalog(synth_manifest)
        for e in cat.entries[:3]:
            frames = len(load_trial_kinematics(e.kinematics))
            parsed = load_transcript(e.transcript_path("mp"), "mp")
            left, right = split_by_arm(parsed.bind(frames))
            for granularity, expected in (("mp-left", left), ("mp-right", right)):
                on_disk = load_transcript(e.transcript_path(granularity), granularity)
                assert on_disk.bind(frames).segments == expected.segments

    def test_gesture_shares_mp_boundaries(self, synth_manifest):
        cat = build_catalog(synth_manifest)
        e = cat.entries[0]
        frames = len(load_trial_kinematics(e.kinematics))
        mp = load_transcript(e.transcript_path("mp"), "mp")
        gesture = load_transcript(e.transcript_path("gesture"), "gesture")
        mp.bind(frames)
        gesture.bind(frames)
        assert [(s.start, s.end) for s in mp.segments] == \
               [(s.start, s.end) for s in gesture.segments]

    def test_regeneration_is_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            root = tmp_path / name
            manifest = generate_synthetic_dataset(
                root, num_tasks=1, num_subjects=2, trials_per_subject=1,
                num_classes=3, frames_range=(60, 80), seed=5)
            bundle = hashlib.sha256()
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                bundle.update(path.relative_to(root).as_posix().encode())
                bundle.update(path.read_bytes())
            digests.append(bundle.hexdigest())
            assert manifest.name == "manifest.json"
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_tasks": 0}, "need at least one task, subject, and trial"),
        ({"num_classes": 1}, "need at least two classes"),
        ({"frames_range": (4, 100)}, r"bad frames_range \(4, 100\)"),
        ({"frames_range": (100, 50)}, r"bad frames_range \(100, 50\)"),
        ({"segment_frames": (0, 10)}, r"bad segment_frames \(0, 10\)"),
    ], ids=[f"kwargs{i}" for i in range(5)])
    def test_rejects_bad_arguments(self, tmp_path, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            generate_synthetic_dataset(tmp_path, **kwargs)
