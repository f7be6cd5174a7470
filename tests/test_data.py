"""Tests for CSV ingestion, encoding, and splitting."""

import csv
import dataclasses
import io
import itertools
import logging
import os
import struct
import tempfile
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from churnnet import ConfigError, SchemaError, data, synthetic


def make_record(**overrides):
    base = dict(
        state="KS", account_length=128, area_code="415", phone_number="382-4657",
        international_plan=False, voice_mail_plan=True, num_vmail_messages=25,
        total_day_minutes=265.1, total_day_calls=110, total_day_charge=45.07,
        total_eve_minutes=197.4, total_eve_calls=99, total_eve_charge=16.78,
        total_night_minutes=244.7, total_night_calls=91, total_night_charge=11.01,
        total_intl_minutes=10.0, total_intl_calls=3, total_intl_charge=2.7,
        customer_service_calls=1, churn=False,
    )
    base.update(overrides)
    return data.CustomerRecord(**base)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HEADER = ",".join(data.FIELD_NAMES) + ",churn"
ROW = ("KS,128,415,382-4657,no,yes,25,265.1,110,45.07,197.4,99,16.78,"
       "244.7,91,11.01,10.0,3,2.7,1,False.")


class TestParsing:
    def test_round_trip(self, tmp_path, small_records):
        path = tmp_path / "rt.csv"
        data.write_csv(small_records[:50], path)
        back = data.parse_csv(path)
        assert back == small_records[:50]

    def test_single_row_values(self, tmp_path):
        path = write_lines(tmp_path / "one.csv", [HEADER, ROW])
        (rec,) = data.parse_csv(path)
        assert rec == make_record()

    def test_header_case_and_space_insensitive(self, tmp_path):
        header = ("STATE,Account_Length,area code,phone,intl plan,vmail plan,"
                  "number vmail messages,total day minutes,total day calls,"
                  "total day charge,total eve minutes,total eve calls,"
                  "total eve charge,total night minutes,total night calls,"
                  "total night charge,total intl minutes,total intl calls,"
                  "total intl charge,custserv calls,churn")
        path = write_lines(tmp_path / "alias.csv", [header, ROW])
        (rec,) = data.parse_csv(path)
        assert rec == make_record()

    def test_column_order_irrelevant(self, tmp_path):
        cols = list(data.FIELD_NAMES) + ["churn"]
        rowvals = ROW.split(",")
        order = list(reversed(range(len(cols))))
        path = write_lines(
            tmp_path / "shuffled.csv",
            [",".join(cols[i] for i in order), ",".join(rowvals[i] for i in order)],
        )
        (rec,) = data.parse_csv(path)
        assert rec == make_record()

    def test_label_spellings(self, tmp_path):
        rows = [ROW.rsplit(",", 1)[0] + "," + lab
                for lab in ("True.", "False.", "yes", "no", "TRUE", "False")]
        path = write_lines(tmp_path / "labels.csv", [HEADER] + rows)
        labels = [r.churn for r in data.parse_csv(path)]
        assert labels == [True, False, True, False, True, False]

    def test_unlabeled_file(self, tmp_path):
        path = write_lines(
            tmp_path / "nolabel.csv",
            [",".join(data.FIELD_NAMES), ROW.rsplit(",", 1)[0]],
        )
        (rec,) = data.parse_csv(path, require_label=False)
        assert rec.churn is None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            data.parse_csv(path)

    def test_missing_label_column_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "missing.csv",
            [",".join(data.FIELD_NAMES), ROW.rsplit(",", 1)[0]],
        )
        with pytest.raises(SchemaError, match="churn"):
            data.parse_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "unknown.csv", [HEADER + ",zodiac", ROW + ",leo"])
        with pytest.raises(SchemaError, match="zodiac"):
            data.parse_csv(path)

    def test_duplicate_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "dup.csv", [HEADER + ",churn", ROW + ",False."])
        with pytest.raises(SchemaError, match="duplicate"):
            data.parse_csv(path)

    def test_few_bad_rows_skipped_with_warning(self, tmp_path, caplog):
        bad = ROW.replace("265.1", "none")
        rows = [ROW] * 150 + [bad]
        path = write_lines(tmp_path / "bad.csv", [HEADER] + rows)
        with caplog.at_level("WARNING"):
            records = data.parse_csv(path)
        assert len(records) == 150
        assert any("line 152" in m for m in caplog.messages)

    def test_bad_row_named_by_physical_line(self, tmp_path, caplog):
        # a blank line 4 and a row whose quoted state spans lines 8-9 come
        # before the bad row on line 22
        bad = ROW.replace("265.1", "none")
        multi = '"K\nS",' + ROW.split(",", 1)[1]
        lines = [HEADER, ROW, ROW, "", ROW, ROW, ROW, multi] + [ROW] * 12 + [bad] + [ROW] * 140
        path = write_lines(tmp_path / "lines.csv", lines)
        with caplog.at_level("WARNING"):
            records = data.parse_csv(path)
        assert len(records) == 158 and records[5].state == "K\nS"
        assert [m for m in caplog.messages if "skipped" in m] == [
            f"{path}: skipped line 22: total_day_minutes must be a number, got 'none'"
        ]

    def test_too_many_bad_rows_rejected(self, tmp_path):
        bad = ROW.replace("265.1", "none")
        path = write_lines(tmp_path / "toobad.csv", [HEADER] + [ROW] * 50 + [bad] * 2)
        with pytest.raises(SchemaError, match="failed to parse"):
            data.parse_csv(path)

    @pytest.mark.parametrize("field,value", [
        ("total_day_minutes", "-1.0"),
        ("total_day_minutes", "inf"),
        ("account_length", "12.5"),
        ("international_plan", "maybe"),
        ("customer_service_calls", "-2"),
    ])
    def test_bad_cells(self, tmp_path, field, value):
        cols = list(data.FIELD_NAMES) + ["churn"]
        vals = ROW.split(",")
        vals[cols.index(field)] = value
        path = write_lines(tmp_path / "cell.csv", [HEADER, ",".join(vals)])
        with pytest.raises(SchemaError):
            data.parse_csv(path)

    def test_integral_float_accepted_for_int_field(self, tmp_path):
        cols = list(data.FIELD_NAMES) + ["churn"]
        vals = ROW.split(",")
        vals[cols.index("account_length")] = "128.0"
        path = write_lines(tmp_path / "intf.csv", [HEADER, ",".join(vals)])
        (rec,) = data.parse_csv(path)
        assert rec.account_length == 128

    @pytest.mark.parametrize("cell", ["9007199254740992", "9007199254740993", "1e16"])
    def test_count_from_2_to_the_53_rejected_by_parse_row(self, cell):
        row = ROW.split(",")
        row[1] = cell  # account_length
        colmap = data.map_header(HEADER.split(","))
        with pytest.raises(ValueError) as exc:
            data.parse_row(row, colmap, 2)
        assert str(exc.value) == f"account_length must be below 2**53, got {cell!r}"
        row[1] = "9007199254740991"
        assert data.parse_row(row, colmap, 2).account_length == 2**53 - 1

    @pytest.mark.parametrize("cell", ["9007199254740992", "9007199254740993", "1e16"])
    def test_count_from_2_to_the_53_rejected_by_column_parse(self, tmp_path, caplog, cell):
        big = ROW.split(",")
        big[1] = cell
        path = write_lines(tmp_path / "big.csv", [HEADER] + [ROW] * 150 + [",".join(big)])
        with caplog.at_level(logging.WARNING):
            records = data.parse_csv(path)
        assert len(records) == 150
        assert f"skipped line 152: account_length must be below 2**53, got {cell!r}" in caplog.text
        below = ROW.replace(",128,", ",9007199254740991,")
        (rec,) = data.parse_csv(write_lines(tmp_path / "below.csv", [HEADER, below]))
        assert rec.account_length == 2**53 - 1


class TestEncoding:
    def test_one_hot_target(self):
        np.testing.assert_array_equal(data.one_hot_target(False), [1.0, 0.0])
        np.testing.assert_array_equal(data.one_hot_target(True), [0.0, 1.0])

    def test_schema_shape(self, small_records):
        schema = data.fit_schema(small_records)
        assert "state" not in schema.feature_names
        assert "phone_number" not in schema.feature_names
        n_area = len(schema.categorical_levels["area_code"])
        assert schema.categorical_levels["area_code"] == sorted(
            schema.categorical_levels["area_code"]
        )
        # 18 retained fields, area_code expands to its level count
        assert schema.feature_width == 17 + n_area
        assert len(schema.retained_fields) == 18

    def test_schema_deterministic(self, small_records):
        a = data.fit_schema(small_records)
        b = data.fit_schema(list(small_records))
        assert a == b

    def test_features_in_unit_range(self, small_records):
        schema = data.fit_schema(small_records)
        matrix, n_unseen = data.encode_features(small_records, schema)
        assert matrix.shape == (len(small_records), schema.feature_width)
        assert n_unseen == 0
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_one_hot_group_sums_to_one_on_observed_levels(self, small_records):
        schema = data.fit_schema(small_records)
        cols = [
            i for i, name in enumerate(schema.feature_names)
            if name.startswith("area_code=")
        ]
        matrix, _ = data.encode_features(small_records, schema)
        np.testing.assert_array_equal(matrix[:, cols].sum(axis=1), 1.0)

    def test_min_max_endpoints(self):
        records = [make_record(total_day_minutes=v) for v in (100.0, 150.0, 300.0)]
        schema = data.fit_schema(records)
        idx = schema.feature_names.index("total_day_minutes")
        feats = [data.encode(r, schema).features[idx] for r in records]
        assert feats[0] == 0.0
        assert feats[1] == pytest.approx(0.25)
        assert feats[2] == 1.0

    def test_out_of_bounds_clamps(self):
        train = [make_record(total_day_minutes=v) for v in (100.0, 300.0)]
        schema = data.fit_schema(train)
        idx = schema.feature_names.index("total_day_minutes")
        low = data.encode(make_record(total_day_minutes=50.0), schema).features[idx]
        high = data.encode(make_record(total_day_minutes=500.0), schema).features[idx]
        assert low == 0.0 and high == 1.0

    def test_constant_field_encodes_zero(self):
        records = [make_record(account_length=77) for _ in range(5)]
        schema = data.fit_schema(records)
        assert "account_length" in schema.constant_fields
        idx = schema.feature_names.index("account_length")
        assert data.encode(records[0], schema).features[idx] == 0.0

    def test_unseen_area_code_zero_group(self):
        train = [make_record(area_code=c) for c in ("408", "415", "510")]
        schema = data.fit_schema(train)
        ex = data.encode(make_record(area_code="999"), schema)
        group = [
            ex.features[schema.feature_names.index(f"area_code={c}")]
            for c in ("408", "415", "510")
        ]
        assert group == [0.0, 0.0, 0.0]
        _, n_unseen = data.encode_features([make_record(area_code="999")], schema)
        assert n_unseen == 1

    def test_unlabeled_record_has_no_target(self):
        rec = make_record(churn=None)
        schema = data.fit_schema([make_record()])
        assert data.encode(rec, schema).target is None


def per_record(records, schema):
    """The reference encoding: ``encode`` of each record, stacked."""
    rows = [data.encode(r, schema).features for r in records]
    return np.array(rows).reshape(len(records), schema.feature_width)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestColumnarEncoding:
    """encode_features against per-record encode, byte for byte."""

    def test_matches_per_record_on_synthetic_data(self):
        records = synthetic.generate(n=2000, seed=3)
        # fit on part so the rest reaches outside the fitted bounds
        schema = data.fit_schema(records[:300])
        matrix, n_unseen = data.encode_features(records, schema)
        assert n_unseen == 0
        assert_same_bytes(matrix, per_record(records, schema))
        assert matrix.min() == 0.0 and matrix.max() == 1.0

    def test_unseen_level_zero_group_and_count(self):
        schema = data.fit_schema([make_record(area_code=c) for c in ("408", "415")])
        records = [make_record(area_code=c) for c in ("415", "510", "408", "999", "510")]
        matrix, n_unseen = data.encode_features(records, schema)
        assert n_unseen == 3
        assert_same_bytes(matrix, per_record(records, schema))
        group = matrix[:, data.feature_columns(schema)["area_code"]]
        np.testing.assert_array_equal(group.sum(axis=1), [1.0, 0.0, 1.0, 0.0, 0.0])

    def test_repeated_level_marks_its_first_column(self):
        base = data.fit_schema([make_record(area_code="415")])
        names = list(base.feature_names)
        names.insert(names.index("area_code=415"), "area_code=415")
        schema = dataclasses.replace(
            base, categorical_levels={"area_code": ["415", "415"]}, feature_names=names
        )
        records = [make_record(area_code="415")]
        matrix, _ = data.encode_features(records, schema)
        assert_same_bytes(matrix, per_record(records, schema))

    def test_constant_field(self):
        schema = data.fit_schema([make_record(account_length=77) for _ in range(3)])
        records = [make_record(account_length=v) for v in (0, 77, 500)]
        matrix, _ = data.encode_features(records, schema)
        assert_same_bytes(matrix, per_record(records, schema))
        np.testing.assert_array_equal(matrix[:, schema.feature_names.index("account_length")], 0.0)

    def test_clamps_at_both_ends(self):
        schema = data.fit_schema([make_record(total_day_minutes=v) for v in (100.0, 300.0)])
        records = [make_record(total_day_minutes=v) for v in (0.0, 50.0, 100.0, 150.0, 300.0, 1e6)]
        matrix, _ = data.encode_features(records, schema)
        assert_same_bytes(matrix, per_record(records, schema))
        col = matrix[:, schema.feature_names.index("total_day_minutes")]
        np.testing.assert_array_equal(col, [0.0, 0.0, 0.0, 0.25, 1.0, 1.0])

    def test_negative_zero_encodes_as_positive_zero(self, tmp_path):
        # "-0.0" parses as -0.0; scaled against a lower bound of 0.0 it stays
        # -0.0, which encode's max(0.0, x) turns into +0.0
        cols = list(data.FIELD_NAMES) + ["churn"]
        vals = ROW.split(",")
        vals[cols.index("total_day_minutes")] = "-0.0"
        (rec,) = data.parse_csv(write_lines(tmp_path / "nz.csv", [HEADER, ",".join(vals)]))
        schema = data.fit_schema([make_record(total_day_minutes=v) for v in (0.0, 10.0)])
        matrix, _ = data.encode_features([rec], schema)
        assert_same_bytes(matrix, per_record([rec], schema))
        assert not np.signbit(matrix).any()

    def test_empty_input(self, small_records):
        schema = data.fit_schema(small_records)
        matrix, n_unseen = data.encode_features([], schema)
        assert matrix.shape == (0, schema.feature_width)
        assert n_unseen == 0

    def test_feature_columns_follow_feature_names(self, small_records):
        schema = data.fit_schema(small_records)
        columns = data.feature_columns(schema)
        assert list(columns) == schema.retained_fields
        covered = []
        for field, cols in columns.items():
            names = schema.feature_names[cols]
            assert names and all(n == field or n.startswith(field + "=") for n in names)
            covered.extend(range(cols.start, cols.stop))
        assert covered == list(range(schema.feature_width))

    def test_feature_columns_reject_inconsistent_schema(self, small_records):
        schema = data.fit_schema(small_records)
        schema.feature_names.pop()
        with pytest.raises(ConfigError, match="columns"):
            data.feature_columns(schema)


AREA_CODES = ("408", "415", "510", "650")


@st.composite
def customer_records(draw):
    def count():
        return draw(st.integers(min_value=0, max_value=400))

    def amount():
        return draw(st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=400.0)))

    return data.CustomerRecord(
        state="KS", account_length=count(), area_code=draw(st.sampled_from(AREA_CODES)),
        phone_number="382-4657", international_plan=draw(st.booleans()),
        voice_mail_plan=draw(st.booleans()), num_vmail_messages=count(),
        total_day_minutes=amount(), total_day_calls=count(), total_day_charge=amount(),
        total_eve_minutes=amount(), total_eve_calls=count(), total_eve_charge=amount(),
        total_night_minutes=amount(), total_night_calls=count(), total_night_charge=amount(),
        total_intl_minutes=amount(), total_intl_calls=count(), total_intl_charge=amount(),
        customer_service_calls=count(), churn=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    fit=st.lists(customer_records(), min_size=1, max_size=8),
    records=st.lists(customer_records(), max_size=12),
)
def test_encoding_properties(fit, records):
    schema = data.fit_schema(fit)
    matrix, n_unseen = data.encode_features(records, schema)
    assert matrix.shape == (len(records), schema.feature_width)
    assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
    assert_same_bytes(matrix, per_record(records, schema))
    levels = schema.categorical_levels["area_code"]
    assert n_unseen == sum(r.area_code not in levels for r in records)


def per_row_parse(rows, colmap, source, lines):
    """The reference bad-row policy: ``parse_row`` on one row at a time.

    Returns the records, the indices of their rows and the warnings; raises
    SchemaError as the columnar parse must.
    """
    records, kept, bad = [], [], []
    for i, row in enumerate(rows):
        try:
            records.append(data.parse_row(row, colmap, lines[i]))
        except ValueError as exc:
            bad.append((lines[i], str(exc)))
            continue
        kept.append(i)
    if rows and len(bad) > data.MAX_BAD_ROW_FRACTION * len(rows):
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
        raise SchemaError(
            f"{source}: {len(bad)} of {len(rows)} rows failed to parse ({detail} ...)"
        )
    return records, kept, [f"{source}: skipped line {ln}: {msg}" for ln, msg in bad]


def typed_values(record):
    """A record's values with their types; floats by their bits."""
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


class Warnings(logging.Handler):
    """Collects the warnings ``churnnet.data`` logs inside a with block."""

    def __enter__(self):
        self.messages = []
        self.level = data.log.level
        data.log.setLevel(logging.WARNING)
        data.log.addHandler(self)
        return self

    def __exit__(self, *exc):
        data.log.removeHandler(self)
        data.log.setLevel(self.level)

    def emit(self, record):
        if record.levelno == logging.WARNING:
            self.messages.append(record.getMessage())


INT_CELLS = ("0", "7", "128", "3.0", " 42 ", "1e2", "-0", "-0.0", "1_000", "\u0663",
             "9007199254740991")
FLOAT_CELLS = INT_CELLS + ("12.5", "+.5", "1e-400", "0.001")
YES_NO_CELLS = ("yes", "no", " YES", "No ")
LABEL_CELLS = ("True.", "False.", "yes", "no", "TRUE", "false..", " no. ")
TEXT_CELLS = ("KS", " 415 ", "", "382-4657", "650")
MALFORMED_CELLS = ("n/a", "-1", "nan", "inf", "1e999", "1.5\x00", "12.5", "maybe", "", " ", "y",
                   "9007199254740992", "9007199254740993")


def valid_cell(field):
    if field in data.INT_FIELDS:
        return st.sampled_from(INT_CELLS)
    if field in data.FLOAT_FIELDS:
        return st.sampled_from(FLOAT_CELLS)
    if field in data.BINARY_FIELDS:
        return st.sampled_from(YES_NO_CELLS)
    if field == data.LABEL_FIELD:
        return st.sampled_from(LABEL_CELLS)
    return st.sampled_from(TEXT_CELLS)


MALFORMED = st.one_of(
    st.sampled_from(MALFORMED_CELLS),
    st.text(alphabet="0123456789.eE+-_ naif\x00\u0663", max_size=6),
)


@st.composite
def raw_csv(draw):
    """A header order and data rows mixing malformed cells, short and long rows."""
    fields = list(data.FIELD_NAMES) + ([data.LABEL_FIELD] if draw(st.booleans()) else [])
    header = draw(st.permutations(fields))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = [draw(valid_cell(f)) for f in header]
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            row[draw(st.integers(0, len(row) - 1))] = draw(MALFORMED)
        shape = draw(st.sampled_from(("full",) * 6 + ("short", "long")))
        if shape == "short":
            row = row[: -draw(st.integers(1, 3))]
        elif shape == "long":
            row += ["extra"] * draw(st.integers(1, 2))
        rows.append(row)
    # each row starts 1-3 physical lines after the one before it, the header being line 1
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    return header, rows, list(itertools.accumulate(gaps, initial=1))[1:]


def parse_one_block(block, colmap):
    """The table parse_blocks gives for one block, under its bad-row policy."""
    ((_, table),) = data.parse_blocks("in.csv", [block], colmap)
    return table


def assert_parses_as_per_row(header, rows, lines):
    """parse_blocks agrees with per_row_parse: kept rows, values (Python
    scalars and table columns, by their bits), warnings and errors."""
    colmap = data.map_header(header, require_label=False)
    block = data.RowBlock.from_rows(rows, lines, len(header))
    try:
        want, want_kept, want_warnings = per_row_parse(rows, colmap, "in.csv", lines)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            parse_one_block(block, colmap)
        assert str(got.value) == str(exc)
        return
    with Warnings() as warnings:
        table = parse_one_block(block, colmap)
    assert warnings.messages == want_warnings
    assert table.kept.tolist() == want_kept
    assert [typed_values(r) for r in table.records()] == [typed_values(r) for r in want]
    for f, col in table.columns.items():
        values = [getattr(r, f) for r in want]
        if f in data.NUMERIC_FIELDS:  # an int field as float(int(v)): "-0" is +0.0
            assert col.dtype == np.float64
            assert col.tobytes() == np.array([float(v) for v in values]).tobytes()
        else:
            assert col.tolist() == values
    labels = [r.churn for r in want]
    assert (table.churn is None if data.LABEL_FIELD not in colmap
            else table.churn.tolist() == labels)


def test_columnar_parse_equals_per_row_parse_on_each_cell():
    # each listed cell alone in each column, so that a column converts in
    # bulk unless the cell itself fails
    header = list(data.FIELD_NAMES) + [data.LABEL_FIELD]
    base = ROW.split(",")
    cells = set(INT_CELLS + FLOAT_CELLS + YES_NO_CELLS + LABEL_CELLS + TEXT_CELLS
                + MALFORMED_CELLS)
    rows = [base[:-1], base[:5], base + ["extra"]]
    for j in range(len(header)):
        rows += [base[:j] + [cell] + base[j + 1:] for cell in sorted(cells)]
    with mock.patch.object(data, "MAX_BAD_ROW_FRACTION", 1.0):
        for row in rows:
            assert_parses_as_per_row(header, [row], [7])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_rows=raw_csv(), fraction=st.sampled_from((0.01, 0.5, 1.0)))
def test_columnar_parse_equals_per_row_parse(csv_rows, fraction):
    with mock.patch.object(data, "MAX_BAD_ROW_FRACTION", fraction):
        assert_parses_as_per_row(*csv_rows)


def block_rows(block):
    return [block.row(i) for i in range(len(block))]


def test_blocks_keep_physical_lines_running(tmp_path):
    lines = [HEADER, ROW, "", ROW, '"K', 'S"' + ROW[2:], ROW, "", "", ROW, ROW]
    path = write_lines(tmp_path / "in.csv", lines)
    header, rows, starts = data.read_raw_csv(path)
    assert header == HEADER.split(",") and starts == [2, 4, 5, 7, 10, 11]
    cells = ROW.split(",")
    assert block_rows(rows) == [cells] * 2 + [["K\nS"] + cells[1:]] + [cells] * 3
    for size in (1, 2, 4):
        first, *blocks = data.read_csv_blocks(path, size)
        assert first == header
        # a block holds the rows of `size` lines, or of more where a quoted cell runs on
        assert all(0 < len(block) <= size for block in blocks)
        assert [n for block in blocks for n in block.lines] == starts
        assert [r for block in blocks for r in block_rows(block)] == block_rows(rows)


def csv_reader_rows(path):
    """The reference reader: csv.reader over the whole file. Returns the
    header, the non-blank rows and their start lines, or the SchemaError
    text the file must give."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return f"{path}: file is empty, expected a header row"
            rows, lines = [], []
            start = reader.line_num + 1
            for row in reader:
                if "".join(row).strip():
                    rows.append(row)
                    lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"
    return header, rows, lines


def read_in_blocks(path, size):
    """read_csv_blocks in the reference's terms, after checking each block's
    cell matrix against its rows."""
    try:
        header, *blocks = data.read_csv_blocks(path, size)
    except SchemaError as exc:
        return str(exc)
    rows, lines = [], []
    for block in blocks:
        assert 0 < len(block) <= size  # rows start on the block's own lines
        for i, row in enumerate(block_rows(block)):
            assert block.lengths[i] == len(row)
            assert block.cells[i].tolist() == (row + [""] * len(header))[:len(header)]
        rows += block_rows(block)
        lines += block.lines
    return header, rows, lines


FIELD_LIMIT = 40  # the csv module's field size limit while the property runs
LINE_TEXT = st.lists(st.sampled_from(
    ["a", "b1", "\u00e9", " ", ",", ",", '"', "\x00", "\x85", "\u2028", "\x0c",
     "x" * (FIELD_LIMIT + 5)]), max_size=6).map("".join)
# cells joined by commas, so that many lines have the header's cell count
CELLS_LINE = st.lists(st.sampled_from(["a", "b1", "", " ", "\u00e9\x85", "\u2028", "\x0c"]),
                      min_size=1, max_size=4).map(",".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(header=st.sampled_from(["h1,h2,h3", "h", '"h,1",h2']),
       lines=st.lists(st.one_of(CELLS_LINE, LINE_TEXT, st.sampled_from(["", ",,", " , ,"])),
                      max_size=12),
       ends=st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=13, max_size=13),
       final_end=st.booleans())
def test_read_csv_blocks_reads_what_csv_reader_reads(header, lines, ends, final_end):
    text = "".join(line + end for line, end in zip([header] + lines, ends))
    if not final_end:
        text = text[:-len(ends[len(lines)])]
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            want = csv_reader_rows(path)
            for size in (1, 2, 3, 10**6):
                assert read_in_blocks(path, size) == want
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("raw", [
    b"h\n\xff",
    b"h\n\xc3\xa9\xe2\x82\xac\n\xe2\x82A\n",  # a sequence cut short by "A"
    b"h\n\xf0\x9f\x98\x80\xf0\x9f\x98",  # a sequence cut short by the end
    b"h\n" + "\u00e9\u20ac\n".encode() * 5 + b"\xed\xa0\x80\n",  # a surrogate
])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 16])
def test_non_utf8_byte_located_across_chunks(tmp_path, raw, chunk):
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as exc:
        raw.decode("utf-8")
    at = exc.value.start
    line = raw.count(b"\n", 0, at) + 1
    want = f"{path}: not UTF-8 at byte {at} (line {line}): {exc.value.reason}"
    with mock.patch.object(data, "_UTF8_SCAN_BYTES", chunk):
        with pytest.raises(SchemaError) as got:
            data.read_raw_csv(path)
    assert str(got.value) == want


def test_every_character_strip_removes_is_a_blank_character():
    assert all(c in data._BLANK_CHARS for c in map(chr, range(0x110000)) if c.isspace())


def test_interrupted_synthetic_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "churn.csv"
    path.write_bytes(b"earlier\r\n")
    calls = itertools.count()
    to_row = data.record_to_row

    def failing_on_the_third(record, include_label=True):
        if next(calls) == 2:
            raise KeyboardInterrupt
        return to_row(record, include_label)

    with mock.patch.object(data, "record_to_row", failing_on_the_third):
        with pytest.raises(KeyboardInterrupt):
            synthetic.main(["--out", str(path), "--n", "5"])
    assert path.read_bytes() == b"earlier\r\n"
    assert os.listdir(tmp_path) == ["churn.csv"]


def test_every_field_has_exactly_one_role():
    # a field outside every role would be encoded as a number
    roles = (data.BINARY_FIELDS, data.INT_FIELDS, data.FLOAT_FIELDS,
             data.DROPPED_FIELDS, data.CATEGORICAL_FIELDS)
    names = [f.name for f in dataclasses.fields(data.CustomerRecord)]
    assert names == [*data.FIELD_NAMES, data.LABEL_FIELD]
    for f in data.FIELD_NAMES:
        assert [f in role for role in roles].count(True) == 1, f


def test_synthetic_records_hold_declared_types_and_linked_charges():
    hints = typing.get_type_hints(data.CustomerRecord)
    rates = {"day": synthetic.DAY_RATE, "eve": synthetic.EVE_RATE,
             "night": synthetic.NIGHT_RATE, "intl": synthetic.INTL_RATE}
    for r in synthetic.generate(500, seed=3):
        assert all(type(getattr(r, f)) is (bool if f == "churn" else t) for f, t in hints.items())
        for period, rate in rates.items():
            # the per-record form of the generator's column arithmetic
            minutes = np.float64(getattr(r, f"total_{period}_minutes"))
            assert getattr(r, f"total_{period}_charge") == float(np.round(minutes * rate, 2))


# Text a cell holds and parses back unchanged: parse_row strips both ends,
# and the csv module of Python 3.10 rejects NUL.
TEXT_VALUES = st.text(
    st.one_of(st.sampled_from(',"\u00e9\u4e2d\U0001f600'),
              st.characters(exclude_categories=("Cs",), exclude_characters="\r\n\x00")),
    max_size=6,
).filter(lambda text: text == text.strip())
VALUES_OF_TYPE = {
    str: TEXT_VALUES,
    bool: st.booleans(),
    int: st.integers(0, data.COUNT_LIMIT - 1),
    float: st.one_of(st.sampled_from([-0.0, 5e-324]),
                     st.floats(min_value=0.0, allow_infinity=False)),
}
COUNTS_FROM_LIMIT = st.integers(data.COUNT_LIMIT, 2**64)


@st.composite
def record_lists(draw):
    """Records drawn field by field from the declared types, all labeled or
    none. In about one list of four a count may also lie at or above
    COUNT_LIMIT."""
    hints = typing.get_type_hints(data.CustomerRecord)
    values = dict(VALUES_OF_TYPE)
    if draw(st.integers(0, 3)) == 0:
        values[int] = st.one_of(values[int], COUNTS_FROM_LIMIT)
    fields = {f: values[hints[f]] for f in data.FIELD_NAMES}
    churn = st.booleans() if draw(st.booleans()) else st.none()
    return draw(st.lists(st.builds(data.CustomerRecord, **fields, churn=churn), max_size=4))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(records=record_lists())
def test_write_then_parse_round_trips(records):
    # counts below COUNT_LIMIT come back exactly; a row with one at or above it
    # is bad, and with at most four rows any bad row rejects the file
    over = any(getattr(r, f) >= data.COUNT_LIMIT for r in records for f in data.INT_FIELDS)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        data.write_csv(records, path)
        if over:
            with pytest.raises(SchemaError, match=r"must be below 2\*\*53, got '"):
                data.parse_csv(path, require_label=False)
            return
        back = data.parse_csv(path, require_label=False)
    assert [typed_values(r) for r in back] == [typed_values(r) for r in records]


CSV_CELLS = st.text(alphabet=st.sampled_from(',"\r\n a1\u00e9\u4e2d\U0001f600'), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(CSV_CELLS, max_size=4), max_size=5))
def test_csv_text_equals_csv_writer(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    assert data.csv_text(rows) == buf.getvalue()
    assert data.csv_text(iter(rows)) == buf.getvalue()


class TestSplit:
    def test_partition(self, small_records):
        train, hold = data.split(small_records, 0.3, seed=0)
        assert len(train) + len(hold) == len(small_records)
        assert len(hold) == round(0.3 * len(small_records))
        seen = {id(r) for r in train} | {id(r) for r in hold}
        assert len(seen) == len(small_records)

    def test_deterministic(self, small_records):
        a = data.split(small_records, 0.25, seed=42)
        b = data.split(small_records, 0.25, seed=42)
        assert a == b

    def test_seed_changes_partition(self, small_records):
        a = data.split(small_records, 0.25, seed=1)
        b = data.split(small_records, 0.25, seed=2)
        assert a[1] != b[1]

    def test_shuffles(self, small_records):
        train, hold = data.split(small_records, 0.25, seed=0)
        assert train != small_records[: len(train)]


def test_with_field_values_replaces_without_mutating(small_records):
    originals = [r.customer_service_calls for r in small_records[:10]]
    swapped = data.with_field_values(
        small_records[:10], "customer_service_calls", reversed(originals)
    )
    assert [r.customer_service_calls for r in swapped] == originals[::-1]
    assert [r.customer_service_calls for r in small_records[:10]] == originals
    assert all(
        dataclasses.replace(s, customer_service_calls=0)
        == dataclasses.replace(o, customer_service_calls=0)
        for s, o in zip(swapped, small_records)
    )
