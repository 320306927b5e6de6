"""Ingestion tests: label parsing, transcripts, kinematics files, catalog."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgact.dataset import (
    COLUMNS_PER_ARM,
    DEFAULT_SAMPLE_RATE,
    IDLE,
    GAP,
    MIN_FRAMES,
    Catalog,
    CatalogEntry,
    LabelTranscript,
    Segment,
    _parse_kinematics_lines,
    arm_columns,
    arm_of,
    build_catalog,
    encode_frames,
    load_transcript,
    load_trial_kinematics,
    mp_verb,
    parse_mp_label,
    select_features,
    split_by_arm,
)
from surgact.errors import ConfigError, DataError


class TestMotionPrimitiveLabel:
    def test_parse_full_label(self):
        assert parse_mp_label("Grasp(L, Needle)") == ("Grasp", "L")

    def test_parse_tolerates_spacing(self):
        assert parse_mp_label("  Push( R ,  Block 2 ) ") == ("Push", "R")

    def test_parse_idle(self):
        assert parse_mp_label("Idle") == ("Idle", None)

    def test_format_round_trip(self):
        # a label spelled from a verb and a tool side parses back to them
        for verb in ("Grasp", "Release", "Touch", "Untouch", "Pull", "Push"):
            for tool in ("L", "R"):
                assert parse_mp_label(f"{verb}({tool}, Needle 2)") == (verb, tool)
            assert parse_mp_label(verb) == (verb, None)

    def test_unknown_verb(self):
        with pytest.raises(DataError, match="unknown motion primitive verb"):
            parse_mp_label("Juggle(L, Ball)")

    def test_unknown_tool_side(self):
        for text in ("Grasp(M, Needle)", "Grasp(none, Needle)", "Idle(M, x)"):
            with pytest.raises(DataError, match="unknown tool side"):
                parse_mp_label(text)

    def test_idle_takes_no_arguments(self):
        for text in ("Idle(L, x)", "Idle(R, )"):
            with pytest.raises(DataError, match="Idle takes no tool or object"):
                parse_mp_label(text)

    def test_unparseable(self):
        for text in ("123", "Grasp(L)", "Grasp(L, (x))", "Grasp(L, x) y", ""):
            with pytest.raises(DataError, match="cannot parse motion primitive label"):
                parse_mp_label(text)

    def test_mp_verb(self):
        assert mp_verb("Push(R, Block)") == "Push"
        assert mp_verb("Idle") == "Idle"

    def test_arm_of(self):
        assert arm_of("Grasp(L, Needle)") == "L"
        assert arm_of("Push(R, Block)") == "R"
        assert arm_of("Idle") is None
        with pytest.raises(DataError, match="names no tool side"):
            arm_of("Touch")


class TestSegment:
    def test_inclusive_frame_count(self):
        assert Segment(0, 29, "A").num_frames == 30
        assert Segment(5, 5, "A").num_frames == 1

    def test_reversed_range(self):
        with pytest.raises(DataError, match=r"bad segment range \[10, 9\]"):
            Segment(10, 9, "A")

    def test_negative_start(self):
        with pytest.raises(DataError, match=r"bad segment range \[-1, 5\]"):
            Segment(-1, 5, "A")


def transcript(segments, length, granularity="mp"):
    return LabelTranscript(granularity=granularity, segments=tuple(segments),
                           length=length)


class TestLabelTranscript:
    def test_valid(self):
        tr = transcript([Segment(0, 4, "A"), Segment(10, 14, "B")], 20)
        assert {seg.label for seg in tr.segments} == {"A", "B"}
        assert sum(seg.num_frames for seg in tr.segments) == 10

    def test_segment_beyond_length(self):
        with pytest.raises(DataError, match=r"segment \[0, 10\] exceeds trial length 10"):
            transcript([Segment(0, 10, "A")], 10)

    def test_overlap(self):
        with pytest.raises(DataError, match=r"segment \[5, 9\] overlaps \[0, 5\]"):
            transcript([Segment(0, 5, "A"), Segment(5, 9, "B")], 10)

    def test_out_of_order(self):
        with pytest.raises(DataError, match="segment starts must increase"):
            transcript([Segment(5, 9, "A"), Segment(0, 4, "B")], 10)

    def test_per_arm_must_tile(self):
        with pytest.raises(DataError, match=r"transcript leaves frames \[5, 9\] unlabeled"):
            transcript([Segment(0, 4, "A")], 10, granularity="mp-left")
        with pytest.raises(DataError, match=r"transcript leaves frames \[0, 1\] unlabeled"):
            transcript([Segment(2, 9, "A")], 10, granularity="mp-left")

    def test_per_arm_tiled_ok(self):
        tr = transcript([Segment(0, 4, "A"), Segment(5, 9, "B")], 10,
                        granularity="mp-right")
        assert sum(seg.num_frames for seg in tr.segments) == 10

    def test_bad_granularity(self):
        with pytest.raises(ConfigError, match="unknown granularity"):
            transcript([Segment(0, 4, "A")], 10, granularity="frame")


class TestLoadTranscript:
    def test_labels_may_contain_spaces(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 29 Grasp(L, Needle)\n\n30 59 Push(R, Block)\n")
        tr = load_transcript(p).bind(60)
        assert tr.segments == (Segment(0, 29, "Grasp(L, Needle)"),
                               Segment(30, 59, "Push(R, Block)"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="transcript file not found"):
            load_transcript(tmp_path / "nope.txt")

    def test_short_row(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 29\n")
        with pytest.raises(DataError, match="t.txt:1: expected 'start end label', got '0 29'"):
            load_transcript(p).bind(60)

    def test_non_integer_frame(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 x Idle\n")
        with pytest.raises(DataError, match="frame indices must be integers"):
            load_transcript(p).bind(60)

    def test_segment_beyond_trial(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 60 Idle\n")
        with pytest.raises(DataError, match=r"t.txt: segment \[0, 60\] exceeds trial length 60"):
            load_transcript(p).bind(60)

    def test_overlap_rejected_by_default(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 10 Idle\n5 20 Push(R, Block)\n")
        with pytest.raises(DataError, match=r"t.txt:2: segment \[5, 20\] overlaps \[0, 10\]"):
            load_transcript(p).bind(60)

    @pytest.mark.parametrize("lines, error, message", [
        (("0 9 Idle", "20 15 Idle"), DataError, "bad segment range [20, 15]"),
        (("10 19 Idle", "0 4 Idle"), DataError,
         "segment starts must increase (0 after 10)"),
        (("0 10 Idle", "5 20 Idle"), DataError,
         "segment [5, 20] overlaps [0, 10]"),
    ], ids=["range", "order", "overlap"])
    def test_segment_rules_read_alike_from_a_file_and_in_memory(self, tmp_path, lines,
                                                                error, message):
        # one rule, one message: a file's error adds its path and line
        p = tmp_path / "t.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as from_file:
            load_transcript(p, "mp")
        assert type(from_file.value) is error
        assert str(from_file.value) == f"{p}:2: {message}"
        with pytest.raises(error) as in_memory:
            transcript([Segment(int(a), int(b), "Idle")
                        for a, b, _ in (line.split() for line in lines)], 60)
        assert type(in_memory.value) is error
        assert str(in_memory.value) == message

    def test_unparseable_mp_label_names_the_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 29 Grasp(L, Needle)\n30 59 Grab(L, Needle)\n")
        with pytest.raises(DataError, match="t.txt:2: unknown motion primitive verb: 'Grab'"):
            load_transcript(p, "mp")
        # gesture labels are free-form tokens
        assert load_transcript(p, "gesture").labels == {
            "Grasp(L, Needle)", "Grab(L, Needle)"}

    @pytest.mark.parametrize("granularity, own, other", [
        ("mp-left", "Grasp(L, Needle)", "Grasp(R, Needle)"),
        ("mp-right", "Grasp(R, Needle)", "Grasp(L, Needle)"),
    ])
    def test_per_arm_labels_name_their_arm(self, tmp_path, granularity, own, other):
        # the rule a view split_by_arm derives keeps: Idle or its own side
        p = tmp_path / "t.txt"
        p.write_text(f"0 29 {own}\n30 59 Idle\n")
        assert load_transcript(p, granularity).labels == {own, "Idle"}
        for label in (other, "Grasp"):
            p.write_text(f"0 29 Idle\n30 59 {label}\n")
            with pytest.raises(DataError, match=f"t.txt:2: {granularity} label .* is neither "
                                                "Idle nor an action of tool side"):
                load_transcript(p, granularity)
        assert load_transcript(p, "mp").labels == {"Idle", "Grasp"}

    def test_parse_needs_no_trial_length(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 29 Grasp(L, Needle)\n40 99 Idle\n")
        parsed = load_transcript(p, "mp")
        assert parsed.labels == {"Grasp(L, Needle)", "Idle"}
        assert parsed.bind(100).length == 100
        with pytest.raises(DataError, match=r"t.txt: segment \[40, 99\] exceeds trial length 99"):
            parsed.bind(99)

    def test_trial_shorter_than_the_model_minimum(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 4 Idle\n")
        with pytest.raises(DataError,
                           match="t.txt: trial has 5 frames, the model needs at least 8"):
            load_transcript(p).bind(MIN_FRAMES - 3)


class TestDensifyAndEncode:
    def test_encode_with_fill(self):
        tr = transcript([Segment(1, 2, "A")], 4)
        ids = encode_frames(tr, {"A": 1, IDLE: 0}, fill=IDLE)
        np.testing.assert_array_equal(ids, [0, 1, 1, 0])
        assert ids.dtype == np.int64

    def test_encode_without_fill_marks_gaps(self):
        tr = transcript([Segment(1, 2, "A")], 4)
        ids = encode_frames(tr, {"A": 1})
        np.testing.assert_array_equal(ids, [GAP, 1, 1, GAP])
        assert ids.dtype == np.int64

    def test_encode_unknown_fill(self):
        tr = transcript([Segment(0, 3, "A")], 4)
        with pytest.raises(DataError, match="not in label mapping"):
            encode_frames(tr, {"A": 0}, fill="B")

    def test_encode_unmapped_label(self):
        tr = transcript([Segment(0, 3, "A")], 4)
        with pytest.raises(DataError, match="not in label mapping"):
            encode_frames(tr, {"B": 0})


GRASP_L = "Grasp(L, Needle)"
PUSH_R = "Push(R, Block)"
TOUCH_L = "Touch(L, Fabric)"


class TestSplitByArm:
    def test_worked_example(self):
        tr = transcript([Segment(0, 29, GRASP_L), Segment(30, 59, PUSH_R)], 60)
        left, right = split_by_arm(tr)
        assert left.granularity == "mp-left"
        assert left.segments == (Segment(0, 29, GRASP_L), Segment(30, 59, IDLE))
        assert right.segments == (Segment(0, 29, IDLE), Segment(30, 59, PUSH_R))

    def test_idle_source_segments_dropped(self):
        tr = transcript(
            [Segment(0, 9, GRASP_L), Segment(10, 19, IDLE), Segment(20, 29, GRASP_L)],
            30)
        left, right = split_by_arm(tr)
        assert left.segments == (Segment(0, 9, GRASP_L), Segment(10, 19, IDLE),
                                 Segment(20, 29, GRASP_L))
        assert right.segments == (Segment(0, 29, IDLE),)

    def test_adjacent_same_label_segments_merge(self):
        tr = transcript([Segment(0, 9, GRASP_L), Segment(10, 19, GRASP_L)], 20)
        left, _ = split_by_arm(tr)
        assert left.segments == (Segment(0, 19, GRASP_L),)

    def test_only_combined_transcripts(self):
        tr = transcript([Segment(0, 9, "G1")], 10, granularity="gesture")
        with pytest.raises(ConfigError,
                           match="can only split combined 'mp' transcripts, got 'gesture'"):
            split_by_arm(tr)

    def test_toolless_segment_rejected(self):
        tr = transcript([Segment(0, 9, "Touch")], 10)
        with pytest.raises(DataError, match="names no tool side"):
            split_by_arm(tr)

    @given(st.lists(st.tuples(st.sampled_from([GRASP_L, PUSH_R, TOUCH_L, IDLE]),
                              st.integers(1, 6)),
                    min_size=1, max_size=10))
    def test_split_preserves_every_frame(self, runs):
        # build a tiled transcript, then check the per-arm view frame by frame
        segments = []
        pos = 0
        for label, n in runs:
            if segments and segments[-1].label == label:
                prev = segments.pop()
                segments.append(Segment(prev.start, prev.end + n, label))
            else:
                segments.append(Segment(pos, pos + n - 1, label))
            pos += n
        tr = transcript(segments, pos)
        left, right = split_by_arm(tr)
        vocabulary = (GRASP_L, PUSH_R, TOUCH_L, IDLE)
        ids = {lab: i for i, lab in enumerate(vocabulary)}
        dense = encode_frames(tr, ids)
        dense_left = encode_frames(left, ids)
        dense_right = encode_frames(right, ids)
        for f in range(pos):
            label = vocabulary[dense[f]]
            side = parse_mp_label(label)[1]
            assert dense_left[f] == ids[label if side == "L" else IDLE]
            assert dense_right[f] == ids[label if side == "R" else IDLE]


class TestKinematics:
    def test_loads_mixed_delimiters(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1.0 2.0, 3.0\n4,5,6\n")
        data = load_trial_kinematics(p)
        np.testing.assert_allclose(data, [[1, 2, 3], [4, 5, 6]])
        assert data.dtype == np.float64

    def test_data_is_read_only(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2\n")
        data = load_trial_kinematics(p)
        with pytest.raises(ValueError):
            data[0, 0] = 9.0

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2 3\n4 5\n")
        with pytest.raises(DataError, match="k.txt:2: 2 columns, expected 3"):
            load_trial_kinematics(p)

    def test_non_numeric_cell_with_location(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2\n3 oops\n")
        with pytest.raises(DataError, match="k.txt:2: column 1: 'oops'"):
            load_trial_kinematics(p)

    def test_non_finite_cell(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 nan\n")
        with pytest.raises(DataError, match="k.txt:1: column 1: non-finite 'nan'"):
            load_trial_kinematics(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("\n\n")
        with pytest.raises(DataError):
            load_trial_kinematics(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="kinematics file not found"):
            load_trial_kinematics(tmp_path / "nope.txt")

    def test_channel_check(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(DataError, match="k.txt: 3 channels, expected 38"):
            load_trial_kinematics(p, expected_channels=38)

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\n  \n"])
    def test_no_data_rows_without_a_warning(self, tmp_path, text):
        p = tmp_path / "k.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_trial_kinematics(p)

    def test_hash_line_is_a_bad_cell_not_a_comment(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2\n# note\n3 4\n")
        with pytest.raises(DataError, match="k.txt:2: column 0: '#'"):
            load_trial_kinematics(p)

    @pytest.mark.parametrize("text", ["1,,3\n4,,6", ",1,2\n,3,4", "1,2,\n3,4,"],
                             ids=["doubled", "leading", "trailing"])
    def test_a_comma_without_a_value_beside_it_is_an_empty_cell(self, tmp_path, text):
        # an empty cell, not a shorter row whose later columns shift left
        p = tmp_path / "k.txt"
        p.write_text(text)
        with pytest.raises(DataError, match="k.txt:1: empty cell beside a comma"):
            load_trial_kinematics(p)

    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the line parser ran on a clean file")

        monkeypatch.setattr("surgact.dataset._parse_kinematics_lines", refuse)

    def test_clean_file_is_parsed_by_numpy(self, tmp_path, no_line_parser):
        p = tmp_path / "k.txt"
        p.write_text("1.5 -2e-3\t+7\r\n\n4 5 6")
        np.testing.assert_array_equal(load_trial_kinematics(p),
                                      [[1.5, -2e-3, 7], [4, 5, 6]])

    def test_clean_comma_file_is_parsed_by_numpy(self, tmp_path, no_line_parser):
        p = tmp_path / "k.txt"
        p.write_text("1.5, -2e-3,+7\r\n\n4,5, 6")
        np.testing.assert_array_equal(load_trial_kinematics(p),
                                      [[1.5, -2e-3, 7], [4, 5, 6]])

    def test_a_file_mixing_commas_and_blanks_is_read_line_by_line(self, tmp_path,
                                                                  monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _parse_kinematics_lines(*args)

        monkeypatch.setattr("surgact.dataset._parse_kinematics_lines", spy)
        p = tmp_path / "k.txt"
        p.write_text("1.5, -2e-3\t+7\r\n\n4 5 6")
        np.testing.assert_array_equal(load_trial_kinematics(p),
                                      [[1.5, -2e-3, 7], [4, 5, 6]])
        assert len(calls) == 1


def parse_both(p):
    """(line parser, load_trial_kinematics) on one file: the array's shape
    and bytes, or the exception's type and message."""
    def outcome(parse):
        try:
            data = parse()
        except DataError as exc:
            return type(exc), str(exc)
        return data.shape, data.tobytes()

    return (outcome(lambda: _parse_kinematics_lines(p, p.read_text())),
            outcome(lambda: load_trial_kinematics(p)))


KINEMATICS_EDGE_CASES = {
    "mixed-delimiters": "1,2 3\n4 ,5,  6\n",
    "leading-and-doubled-commas": ",1,,2\n3 4,\n",
    "tabs": "1\t2\n3\t\t4\n",
    "crlf": "1 2\r\n3 4\r\n",
    "lone-cr": "1 2\r3 4\r",
    "vertical-tab": "1 2\v3 4\n",
    "form-feed": "1 2\f3 4\n",
    "file-separator": "1\x1c2\n",
    "group-separator": "1\x1d2\n",
    "record-separator": "1\x1e2\n",
    "unit-separator": "1\x1f2\n3 4\n",
    "next-line": "1\x852\n",
    "no-break-space": "1\xa02\n3 4\n",
    "line-separator": "1\u20282\n",
    "paragraph-separator": "1\u20292\n",
    "blank-lines": "\n1 2\n\n  \t \n3 4\n\n",
    "no-trailing-newline": "1 2\n3 4",
    "single-row": "1.5 -2.5 3e-300\n",
    "single-column": "1\n2\n3\n",
    "single-cell": "7",
    "leading-plus": "+1 2\n",
    "underscore-digits": "1_0 2\n3 4\n",
    "non-ascii-digits": "\u0661\u0662 2\n3 4\n",
    "hex": "0x1 2\n",
    "fortran-exponent": "1.0D5 2\n",
    "byte-order-mark": "\ufeff1 2\n",
    "comment-line": "# comment\n1 2\n",
    "trailing-comment": "1 2 # comment\n",
    "nan": "1 2\n3 nan\n",
    "inf": "1 inf\n",
    "minus-inf": "-inf 1\n",
    "overflow": "1e400 1\n",
    "ragged": "1 2 3\n4 5\n",
    "ragged-row-of-bad-cells": "1 2\nx\n",
    "empty": "",
    "whitespace-only": "  \n\t\n",
    "comma-only": ",,,\n,,,\n",
    "comma-only-row-between-rows": "1 2\n , \n3 4\n",
    "doubled-comma-every-row": "1,,3\n4,,6",
    "leading-comma-every-row": ",1,2\n,3,4",
    "trailing-comma-every-row": "1,2,\n3,4,",
    "blanks-beside-commas": "1 ,\t2\n3\t, 4\n",
    "blank-cell-between-commas": "1, \t,3\n",
    "comma-space": "1, 2\n3, 4\n",
    "comma-crlf": "1,2\r\n3,4\r\n",
    "comma-blank-lines": "\n1,2\n\n  \t \n3,4\n\n",
    "comma-ragged": "1,2,3\n4,5\n",
    "comma-byte-order-mark": "\ufeff1,2\n",
    "no-break-space-beside-comma": "1\xa0,2\n3,\xa04\n",
    "unit-separator-beside-comma": "1\x1f,2\n3,\x1f4\n",
    "no-break-space-cell-between-commas": "1,\xa0,3\n",
    "no-break-space-inside-comma-cell": "1\xa02,3\n",
    "trailing-comma-before-crlf": "1,2,\r\n3,4,\r\n",
    "quoted-cell": '"1",2\n3,4\n',
    "decimal-comma-row": "1,5 2,5\n",
    "comma-nan": "1,2\n3,nan\n",
    "comma-hex": "0x1,2\n",
    "comma-underscore-digits": "1_0,2\n3,4\n",
}


class TestKinematicsParserOracle:
    """The numpy path of `load_trial_kinematics` against the line parser."""

    @pytest.mark.parametrize("text", KINEMATICS_EDGE_CASES.values(),
                             ids=KINEMATICS_EDGE_CASES.keys())
    def test_edge_case(self, tmp_path, text):
        p = tmp_path / "k.txt"
        p.write_text(text, encoding="utf-8", newline="")
        reference, fast = parse_both(p)
        assert fast == reference

    @given(grid=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=3, max_size=3),
                         min_size=1, max_size=5).map(np.array),
           delimiters=st.lists(st.sampled_from([" ", ",", "\t", ", ", " ,\t"]),
                               min_size=1, max_size=3),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           trailing=st.booleans(),
           data=st.data())
    def test_random_grids(self, tmp_path_factory, grid, delimiters, newline,
                          trailing, data):
        width = data.draw(st.integers(1, 3))
        grid = grid[:, :width]
        rows = []
        for row in grid:
            line = repr(float(row[0]))
            for v in row[1:]:
                line += data.draw(st.sampled_from(delimiters)) + repr(float(v))
            rows.append(line)
        text = newline.join(rows) + (newline if trailing else "")
        p = tmp_path_factory.mktemp("grid") / "k.txt"
        p.write_text(text, encoding="utf-8", newline="")
        reference, fast = parse_both(p)
        assert fast == reference == (grid.shape, grid.astype(np.float64).tobytes())


BOTH_ARMS = arm_columns(0) + arm_columns(COLUMNS_PER_ARM)


class TestFeatureSelection:
    def test_both_arms_columns(self):
        # per arm: position 0-2, linear velocity 12-14, gripper 18
        assert BOTH_ARMS == (
            0, 1, 2, 12, 13, 14, 18,
            19, 20, 21, 31, 32, 33, 37)

    def test_select_is_bit_exact(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(5, 38))
        got = select_features(data, BOTH_ARMS)
        np.testing.assert_array_equal(got, data[:, list(BOTH_ARMS)])
        assert got.shape == (5, 14)

    def test_out_of_range_column(self):
        with pytest.raises(DataError, match=r"column 12 outside \[0, 10\)"):
            select_features(np.zeros((3, 10)), BOTH_ARMS)

    def test_duplicate_column(self):
        with pytest.raises(DataError, match="selected more than once"):
            select_features(np.zeros((3, 38)), arm_columns(0) + arm_columns(0))

    def test_arm_columns_at_offset(self):
        # position, linear velocity, gripper of the block starting at 19
        assert arm_columns(19) == (19, 20, 21, 31, 32, 33, 37)


def entry(dataset="JIGSAWS", task="S", subject="B", trial="001",
          granularities=("gesture", "mp")):
    from pathlib import Path
    return CatalogEntry(
        dataset=dataset, task=task, subject=subject, trial=trial,
        kinematics=Path(f"/x/{task}_{subject}_{trial}.txt"),
        transcripts=tuple((g, Path(f"/x/{task}_{subject}_{trial}_{g}.txt"))
                          for g in granularities))


class TestCatalog:
    def test_keys(self):
        e = entry()
        assert e.key == ("S", "B", "001")
        assert e.subject_key == ("JIGSAWS", "B")
        assert e.transcript_path("gesture") is not None
        assert e.transcript_path("mp-left") is None

    def test_transcript_source(self):
        e = entry(granularities=("mp", "mp-right"))
        assert e.transcript_source("mp-right") == ("mp-right", e.transcript_path("mp-right"))
        # a per-arm view the trial declares no file for comes from 'mp'
        assert e.transcript_source("mp-left") == ("mp", e.transcript_path("mp"))
        with pytest.raises(DataError, match=r"declares no 'gesture' transcript$"):
            e.transcript_source("gesture")
        with pytest.raises(DataError, match=r"declares no 'mp-left' transcript and no 'mp' one$"):
            entry(granularities=("gesture",)).transcript_source("mp-left")

    def test_duplicate_key(self):
        with pytest.raises(DataError, match="duplicate trial key"):
            Catalog(entries=(entry(), entry()))

    def test_rosma_cannot_declare_gestures(self):
        with pytest.raises(DataError):
            Catalog(entries=(entry(dataset="ROSMA", task="PaS"),))

    def test_queries(self):
        cat = Catalog(entries=(
            entry(task="S", subject="B"),
            entry(task="S", subject="C"),
            entry(task="NP", subject="B", granularities=("mp",)),
        ))
        assert cat.tasks() == ("NP", "S")
        assert len(cat.entries_for_tasks(["S"])) == 2
        assert cat.datasets_of_tasks(["S", "NP"]) == {"JIGSAWS"}
        assert cat.task_has_granularity("S", "gesture")
        assert not cat.task_has_granularity("NP", "gesture")
        assert not cat.task_has_granularity("KT", "mp")

    def test_get_unknown_trial(self):
        cat = Catalog(entries=(entry(),))
        with pytest.raises(DataError):
            cat.get("S", "B", "999")


class TestBuildCatalog:
    def write_corpus(self, root):
        (root / "k.txt").write_text("1 2\n3 4\n")
        (root / "t.txt").write_text("0 1 G1\n")
        manifest = {
            "sample_rate": 30.0,
            "entries": [{
                "dataset": "JIGSAWS", "task": "S", "subject": "B",
                "trial": "001", "kinematics": "k.txt",
                "transcripts": {"gesture": "t.txt"},
            }],
        }
        mp = root / "manifest.json"
        mp.write_text(json.dumps(manifest))
        return mp

    def test_builds_and_resolves_paths(self, tmp_path):
        cat = build_catalog(self.write_corpus(tmp_path))
        assert len(cat.entries) == 1
        e = cat.entries[0]
        assert e.kinematics == tmp_path / "k.txt"
        assert e.transcript_path("gesture") == tmp_path / "t.txt"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="catalog manifest not found"):
            build_catalog(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text("{not json")
        with pytest.raises(DataError):
            build_catalog(mp)

    def test_missing_kinematics_file(self, tmp_path):
        mp = self.write_corpus(tmp_path)
        (tmp_path / "k.txt").unlink()
        with pytest.raises(DataError, match="kinematics file not found"):
            build_catalog(mp)

    def test_missing_transcript_file(self, tmp_path):
        mp = self.write_corpus(tmp_path)
        (tmp_path / "t.txt").unlink()
        with pytest.raises(DataError, match="transcript not found"):
            build_catalog(mp)

    def test_malformed_entry(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"entries": [{"dataset": "X"}]}))
        with pytest.raises(DataError):
            build_catalog(mp)

    @pytest.mark.parametrize("item", [1, "k.txt", None, ["JIGSAWS"]],
                             ids=["number", "string", "null", "list"])
    def test_an_entry_must_be_an_object(self, tmp_path, item):
        mp = self.write_corpus(tmp_path)
        doc = json.loads(mp.read_text())
        doc["entries"].append(item)
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataError) as caught:
            build_catalog(mp)
        assert str(caught.value) == f"manifest entry 1 must be a JSON object, got {item!r}"

    @pytest.mark.parametrize("field,value", [
        ("dataset", None), ("task", ["S"]), ("subject", 3), ("trial", 1.0),
    ])
    def test_ids_must_be_strings(self, tmp_path, field, value):
        mp = self.write_corpus(tmp_path)
        doc = json.loads(mp.read_text())
        doc["entries"][0][field] = value
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"manifest entry 0: {field} must be a string"):
            build_catalog(mp)

    def test_unknown_transcript_granularity(self, tmp_path):
        mp = self.write_corpus(tmp_path)
        doc = json.loads(mp.read_text())
        doc["entries"][0]["transcripts"]["frame"] = "t.txt"
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="manifest entry 0: unknown transcript "
                                            "granularity 'frame'"):
            build_catalog(mp)

    @pytest.mark.parametrize("field,value", [
        ("transcripts", ["mp"]),
        ("transcripts", "t.txt"),
        ("transcripts", {"gesture": 3}),
        ("transcripts", {"gesture": ["t.txt"]}),
        ("kinematics", ["k.txt"]),
    ], ids=["list", "string", "number-path", "list-path", "kinematics-list"])
    def test_entry_paths_must_be_strings(self, tmp_path, field, value):
        mp = self.write_corpus(tmp_path)
        doc = json.loads(mp.read_text())
        doc["entries"][0][field] = value
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"manifest entry 0: {field} must"):
            build_catalog(mp)

    def test_non_list_entries(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"entries": 5}))
        with pytest.raises(DataError):
            build_catalog(mp)

    def test_sample_rate(self, tmp_path):
        mp = self.write_corpus(tmp_path)
        assert build_catalog(mp).sample_rate == 30.0
        doc = json.loads(mp.read_text())
        doc["sample_rate"] = 120
        mp.write_text(json.dumps(doc))
        assert build_catalog(mp).sample_rate == 120.0
        del doc["sample_rate"]
        mp.write_text(json.dumps(doc))
        assert build_catalog(mp).sample_rate == DEFAULT_SAMPLE_RATE
        mp.write_text(json.dumps(doc["entries"]))  # a bare list is not a manifest
        with pytest.raises(DataError, match=f"must hold a JSON object .*: {mp}"):
            build_catalog(mp)

    @pytest.mark.parametrize("rate", ["-5", "0", "\"120\"", "true", "NaN",
                                      "Infinity", "null", "[30]"],
                             ids=["negative", "zero", "string", "bool", "nan",
                                  "infinite", "null", "list"])
    def test_bad_sample_rate(self, tmp_path, rate):
        mp = self.write_corpus(tmp_path)
        mp.write_text(mp.read_text().replace('"sample_rate": 30.0',
                                             f'"sample_rate": {rate}'))
        with pytest.raises(DataError, match="sample_rate"):
            build_catalog(mp)
