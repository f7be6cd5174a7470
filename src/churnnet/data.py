"""Churn CSV ingestion, validation, numeric encoding and train/holdout splits.

The expected file is a UTF-8 CSV with a header row naming the twenty customer
fields plus the churn label. Header matching is case-insensitive and tolerant
of spaces vs underscores, and a few spellings common in circulating copies of
the data ("intl plan", "number vmail messages"...) are accepted as aliases.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
import re
import typing
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SchemaError

log = logging.getLogger(__name__)


@dataclass
class CustomerRecord:
    """One customer row. ``churn`` is None when the file carries no label.

    The one declaration of the customer fields: their order is the CSV
    column order, and each cell is parsed as its field's type.
    """

    state: str
    account_length: int
    area_code: str
    phone_number: str
    international_plan: bool
    voice_mail_plan: bool
    num_vmail_messages: int
    total_day_minutes: float
    total_day_calls: int
    total_day_charge: float
    total_eve_minutes: float
    total_eve_calls: int
    total_eve_charge: float
    total_night_minutes: float
    total_night_calls: int
    total_night_charge: float
    total_intl_minutes: float
    total_intl_calls: int
    total_intl_charge: float
    customer_service_calls: int
    churn: bool | None = None


LABEL_FIELD = "churn"

# The fields, in CSV column order, each with the type CustomerRecord declares.
_FIELD_TYPES = {
    f: t for f, t in typing.get_type_hints(CustomerRecord).items() if f != LABEL_FIELD
}
FIELD_NAMES = tuple(_FIELD_TYPES)
BINARY_FIELDS = tuple(f for f, t in _FIELD_TYPES.items() if t is bool)
INT_FIELDS = tuple(f for f, t in _FIELD_TYPES.items() if t is int)
FLOAT_FIELDS = tuple(f for f, t in _FIELD_TYPES.items() if t is float)
NUMERIC_FIELDS = tuple(f for f, t in _FIELD_TYPES.items() if t in (int, float))

# state and phone_number identify rather than describe a customer and never
# reach the model.
DROPPED_FIELDS = ("state", "phone_number")
CATEGORICAL_FIELDS = ("area_code",)

# Alternate header spellings seen in public copies of the dataset, already
# normalized by _canon_header.
_HEADER_ALIASES = {
    "number_vmail_messages": "num_vmail_messages",
    "intl_plan": "international_plan",
    "int_l_plan": "international_plan",
    "vmail_plan": "voice_mail_plan",
    "vmail_message": "num_vmail_messages",
    "phone": "phone_number",
    "account_len": "account_length",
    "custserv_calls": "customer_service_calls",
    "number_customer_service_calls": "customer_service_calls",
    "churn_label": "churn",
}

# Fraction of data rows that may fail to parse before the whole file is
# rejected.
MAX_BAD_ROW_FRACTION = 0.01

# Data rows per block read from a CSV file; `predict` parses, scores and
# writes one block at a time.
BLOCK_ROWS = 1024


@dataclass(eq=False)
class CustomerTable:
    """Parsed data rows held as columns, one array per field.

    ``columns`` maps each of FIELD_NAMES, in order, to its values over the
    kept rows: strings, bools or numbers, as the field's declared type. A
    parsed table holds stripped strings in object arrays and numbers as
    float64, an integer field as ``float(int(v))``, so a "-0" cell is +0.0
    as in a CustomerRecord. ``churn`` is a bool array, or None when the
    file has no label column. ``kept`` holds the indices, in the raw rows, of
    the rows the columns came from.
    """

    columns: dict[str, np.ndarray]
    churn: np.ndarray | None
    kept: np.ndarray

    def __len__(self) -> int:
        return len(self.kept)

    def records(self) -> list[CustomerRecord]:
        """One CustomerRecord per kept row, holding Python scalars.

        Rows are converted BLOCK_ROWS at a time: a list of every value of
        every column would add some 8 MB per 50,000 rows to the peak.
        """
        records = []
        for start in range(0, len(self), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            values = [
                [int(v) for v in self.columns[f][rows].tolist()] if f in INT_FIELDS
                else self.columns[f][rows].tolist()
                for f in FIELD_NAMES
            ]
            churn = [None] * len(values[0]) if self.churn is None else self.churn[rows].tolist()
            records += [CustomerRecord(*row) for row in zip(*values, churn)]
        return records


def _canon_header(name: str) -> str:
    key = re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")
    return _HEADER_ALIASES.get(key, key)


_YES_NO = {"yes": True, "no": False}
# Both "True."/"False." and "yes"/"no" label spellings occur in the wild.
_LABELS = {"true": True, "yes": True, "false": False, "no": False}


def _parse_yes_no(token: str, field: str) -> bool:
    v = _YES_NO.get(token.strip().lower())
    if v is None:
        raise ValueError(f"{field} must be yes or no, got {token!r}")
    return v


def _parse_label(token: str) -> bool:
    v = _LABELS.get(token.strip().rstrip(".").lower())
    if v is None:
        raise ValueError(f"churn label must be true/false or yes/no, got {token!r}")
    return v


def _parse_int(token: str, field: str) -> int:
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"{field} must be an integer, got {token!r}") from None
    if not math.isfinite(v) or v != int(v):
        raise ValueError(f"{field} must be an integer, got {token!r}")
    if v < 0:
        raise ValueError(f"{field} must be >= 0, got {token!r}")
    return int(v)


def _parse_float(token: str, field: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"{field} must be a number, got {token!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{field} must be finite, got {token!r}")
    if v < 0:
        raise ValueError(f"{field} must be >= 0, got {token!r}")
    return v


# The parser of a cell, by its field's type: parser(token, field).
_PARSERS = {
    str: lambda token, _: token.strip(),
    bool: _parse_yes_no,
    int: _parse_int,
    float: _parse_float,
}


def read_csv_blocks(path, size: int):
    """Read a CSV file as ``(rows, lines)`` blocks of lists of strings.

    The first block holds the header row alone; each later one holds up to
    ``size`` non-blank data rows, with ``lines[i]`` the physical line on
    which ``rows[i]`` starts, the header being line 1: blank lines and
    quoted cells that span lines do not shift it. A row the csv module
    cannot read (such as a cell over ``csv.field_size_limit()``) is a
    SchemaError, as are an empty file and bytes that are not UTF-8.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: file is empty, expected a header row") from None
            yield [header], [1]
            rows, lines = [], []
            start = reader.line_num + 1
            for row in reader:
                if "".join(row).strip():  # a row of blank cells is a blank line
                    rows.append(row)
                    lines.append(start)
                    if len(rows) == size:
                        yield rows, lines
                        rows, lines = [], []
                start = reader.line_num + 1
            if rows:
                yield rows, lines
    except UnicodeDecodeError:
        raise SchemaError(_utf8_error(path)) from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None


def read_raw_csv(path):
    """Read the header and all non-blank data rows of a CSV file at once.

    Returns ``(header, rows, lines)``, the blocks of :func:`read_csv_blocks`
    joined.
    """
    blocks = read_csv_blocks(path, BLOCK_ROWS)
    (header,), _ = next(blocks)
    rows, lines = [], []
    for block_rows, block_lines in blocks:
        rows += block_rows
        lines += block_lines
    return header, rows, lines


def _utf8_error(path) -> str:
    # The decoder's own position is relative to the chunk it was reading, so
    # decode the whole file once more to locate the byte in the file.
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: not UTF-8 at byte {exc.start} (line {line}): {exc.reason}"
    return f"{path}: not UTF-8"


def map_header(header, require_label: bool = True) -> dict[str, int]:
    """Resolve a header row to a field -> column-index map, order-insensitive."""
    colmap: dict[str, int] = {}
    for idx, name in enumerate(header):
        canon = _canon_header(name)
        if canon in FIELD_NAMES or canon == LABEL_FIELD:
            if canon in colmap:
                raise SchemaError(f"duplicate header column for field {canon!r}")
            colmap[canon] = idx
        else:
            raise SchemaError(f"unknown header column {name!r}")
    missing = [f for f in FIELD_NAMES if f not in colmap]
    if require_label and LABEL_FIELD not in colmap:
        missing.append(LABEL_FIELD)
    if missing:
        raise SchemaError(f"missing header column(s): {', '.join(missing)}")
    return colmap


def parse_row(row, colmap: dict[str, int], line_no: int) -> CustomerRecord:
    """Parse one raw CSV row into a CustomerRecord; raises ValueError on bad cells."""
    n_cols = max(colmap.values()) + 1
    if len(row) < n_cols:
        raise ValueError(f"line {line_no}: expected {n_cols} columns, got {len(row)}")
    values = {f: _PARSERS[t](row[colmap[f]], f) for f, t in _FIELD_TYPES.items()}
    if LABEL_FIELD in colmap:
        values[LABEL_FIELD] = _parse_label(row[colmap[LABEL_FIELD]])
    return CustomerRecord(**values)


def _lookup(keys, table: dict[str, bool]):
    """``(values, ok)``: each key's value in ``table``; ok is False where it has none."""
    codes = np.array([table.get(k, -1) for k in keys], dtype=np.int8)
    return codes == 1, codes >= 0


def _numbers(cells, integral: bool):
    """``(values, ok)`` of a numeric column: float() of each cell, which must
    be finite and >= 0, and also whole when ``integral``."""
    try:
        # an object array converts by float() itself; a "<U" array would not
        # (it drops a trailing NUL that float() rejects)
        v = cells.astype(float)
    except ValueError:
        v = np.array([_float_or_nan(c) for c in cells.tolist()])
    ok = np.isfinite(v) & (v >= 0.0)
    if integral:
        ok &= np.trunc(v) == v
        v = v + 0.0  # float(int(v)): "-0" gives +0.0
    return v, ok


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def parse_block(rows, colmap: dict[str, int], lines) -> tuple[CustomerTable, list]:
    """Parse raw data rows into a CustomerTable of the good ones.

    Each field is checked for a whole column at once. Returns the table and
    the bad rows as ``(line, message)`` pairs, ``lines[i]`` being the line of
    ``rows[i]``. The messages come from ``parse_row`` on the bad rows, so
    they are those of parsing row by row.
    """
    width = max(colmap.values()) + 1
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    full = np.flatnonzero(lengths >= width)  # a short row is bad as a whole
    picked = [rows[i] for i in full.tolist()]
    for k in np.flatnonzero(lengths[full] > width).tolist():
        picked[k] = picked[k][:width]
    cells = np.array(picked, dtype=object).reshape(len(full), width)

    ok = np.ones(len(full), dtype=bool)
    columns: dict[str, np.ndarray] = {}
    for f in FIELD_NAMES:
        col = cells[:, colmap[f]]
        if f in BINARY_FIELDS:
            columns[f], col_ok = _lookup([c.strip().lower() for c in col.tolist()], _YES_NO)
            ok &= col_ok
        elif f in NUMERIC_FIELDS:
            columns[f], col_ok = _numbers(col, f in INT_FIELDS)
            ok &= col_ok
        else:
            columns[f] = np.array([c.strip() for c in col.tolist()], dtype=object)
    churn = None
    if LABEL_FIELD in colmap:
        labels = cells[:, colmap[LABEL_FIELD]]
        churn, col_ok = _lookup([c.strip().rstrip(".").lower() for c in labels.tolist()], _LABELS)
        ok &= col_ok

    kept = full[ok]
    good = np.zeros(len(rows), dtype=bool)
    good[kept] = True
    bad: list[tuple[int, str]] = []
    for i in np.flatnonzero(~good).tolist():
        try:
            parse_row(rows[i], colmap, lines[i])
        except ValueError as exc:
            bad.append((lines[i], str(exc)))
    columns = {f: col[ok] for f, col in columns.items()}
    return CustomerTable(columns, None if churn is None else churn[ok], kept), bad


def check_bad_rows(source, n_rows: int, n_kept: int, bad) -> None:
    """The bad-row policy over ``n_rows`` data rows, ``bad`` as from parse_block.

    If more than MAX_BAD_ROW_FRACTION of the rows are bad, the whole input
    is rejected with a SchemaError naming the first few lines; otherwise
    each bad row is logged as a skipped line. ``source`` names the input.
    """
    if n_rows and len(bad) > MAX_BAD_ROW_FRACTION * n_rows:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
        raise SchemaError(
            f"{source}: {len(bad)} of {n_rows} rows failed to parse ({detail} ...)"
        )
    for line_no, msg in bad:
        log.warning("%s: skipped line %d: %s", source, line_no, msg)
    log.info("%s: parsed %d records (%d rows skipped)", source, n_kept, len(bad))


def parse_table(rows, colmap: dict[str, int], source, lines) -> CustomerTable:
    """:func:`parse_block` of all the rows under :func:`check_bad_rows`."""
    table, bad = parse_block(rows, colmap, lines)
    check_bad_rows(source, len(rows), len(table), bad)
    return table


def parse_csv(path, require_label: bool = True) -> list[CustomerRecord]:
    """Parse the churn CSV into records, skipping bad rows as parse_table does."""
    header, rows, lines = read_raw_csv(path)
    colmap = map_header(header, require_label=require_label)
    return parse_table(rows, colmap, path, lines).records()


@contextlib.contextmanager
def open_atomic(path, newline=None):
    """Open a UTF-8 text file that replaces ``path`` only once fully written.

    Writes go to a new temporary file in the target's directory, which
    ``os.replace`` moves onto ``path`` when the block exits normally. If the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def csv_text(rows) -> str:
    """Rows of string cells as CSV text, byte for byte as ``csv.writer`` writes them.

    Each row is its cells joined by commas and ended by CRLF, which is how
    the excel dialect writes a row with no quoted cell. The dialect quotes
    a cell holding ``,`` ``"`` CR or LF, and the cell of a row that is one
    empty cell; if any row has such a cell, all the rows go through
    ``csv.writer``.
    """
    rows = list(rows)
    texts = [",".join(row) for row in rows]
    joined = "".join(texts)
    if ('"' in joined or "\r" in joined or "\n" in joined or [""] in rows
            or joined.count(",") != sum(map(len, rows)) - len(rows)):
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue()
    return "\r\n".join(texts + [""])


def write_csv(records, path) -> None:
    """Write records back out with canonical headers; inverse of parse_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        labeled = any(r.churn is not None for r in records)
        header = list(FIELD_NAMES) + ([LABEL_FIELD] if labeled else [])
        writer.writerow(header)
        for r in records:
            writer.writerow(record_to_row(r, include_label=labeled))


def record_to_row(r: CustomerRecord, include_label: bool = True) -> list[str]:
    """Serialize a record as canonical CSV cells (floats via repr round-trip)."""
    row = []
    for f in FIELD_NAMES:
        v = getattr(r, f)
        if f in BINARY_FIELDS:
            row.append("yes" if v else "no")
        elif f in FLOAT_FIELDS:
            row.append(repr(v))
        else:
            row.append(str(v))
    if include_label and r.churn is not None:
        row.append("True." if r.churn else "False.")
    return row


@dataclass
class EncodingSchema:
    """Fitted feature mapping: categorical level maps plus min-max bounds.

    Bounds come from the training subset only; values outside them clamp at
    encode time rather than rescaling, so a holdout set can never leak into
    the normalization.
    """

    categorical_levels: dict[str, list[str]]
    numeric_bounds: dict[str, tuple[float, float]]
    constant_fields: list[str]
    feature_names: list[str]
    dropped_fields: tuple[str, ...] = DROPPED_FIELDS

    @property
    def feature_width(self) -> int:
        return len(self.feature_names)

    @property
    def retained_fields(self) -> list[str]:
        return [f for f in FIELD_NAMES if f not in self.dropped_fields]


@dataclass
class EncodedExample:
    """Feature vector in [0,1] plus, when labeled, a 2-element one-hot target."""

    features: np.ndarray
    target: np.ndarray | None


def one_hot_target(churn: bool) -> np.ndarray:
    """(1,0) for a loyal customer, (0,1) for a churner."""
    return np.array([0.0, 1.0]) if churn else np.array([1.0, 0.0])


def fit_schema(records) -> EncodingSchema:
    """Fit level maps and min-max bounds on a training subset."""
    if not records:
        raise ConfigError("cannot fit an encoding schema on zero records")
    categorical_levels = {
        f: sorted({getattr(r, f) for r in records}) for f in CATEGORICAL_FIELDS
    }
    numeric_bounds = {}
    constant_fields = []
    for f in NUMERIC_FIELDS:
        vals = [float(getattr(r, f)) for r in records]
        lo, hi = min(vals), max(vals)
        numeric_bounds[f] = (lo, hi)
        if lo == hi:
            constant_fields.append(f)

    feature_names = []
    for f in FIELD_NAMES:
        if f in DROPPED_FIELDS:
            continue
        if f in CATEGORICAL_FIELDS:
            feature_names.extend(f"{f}={level}" for level in categorical_levels[f])
        else:
            feature_names.append(f)
    return EncodingSchema(categorical_levels, numeric_bounds, constant_fields, feature_names)


def encode(record: CustomerRecord, schema: EncodingSchema) -> EncodedExample:
    """Encode one record against a fitted schema.

    Numeric features min-max scale to [0,1] and clamp outside the fitted
    bounds; constant features encode as 0.0; an unseen categorical level
    yields an all-zero one-hot group.
    """
    feats: list[float] = []
    for f in FIELD_NAMES:
        if f in schema.dropped_fields:
            continue
        if f in CATEGORICAL_FIELDS:
            levels = schema.categorical_levels[f]
            group = [0.0] * len(levels)
            value = getattr(record, f)
            if value in levels:
                group[levels.index(value)] = 1.0
            feats.extend(group)
        elif f in BINARY_FIELDS:
            feats.append(1.0 if getattr(record, f) else 0.0)
        else:
            lo, hi = schema.numeric_bounds[f]
            if lo == hi:
                feats.append(0.0)
            else:
                x = (float(getattr(record, f)) - lo) / (hi - lo)
                feats.append(min(1.0, max(0.0, x)))
    target = None if record.churn is None else one_hot_target(record.churn)
    return EncodedExample(np.array(feats), target)


def feature_columns(schema: EncodingSchema) -> dict[str, slice]:
    """Columns of each retained field in an encoded matrix, in field order.

    A categorical field spans one column per level, every other field one.
    Raises ConfigError unless the schema has levels for exactly the
    categorical fields, a bound pair lo <= hi for exactly the numeric
    fields, and fields that span ``schema.feature_width``.
    """
    for attr, fields in (("categorical_levels", CATEGORICAL_FIELDS),
                         ("numeric_bounds", NUMERIC_FIELDS)):
        odd = set(getattr(schema, attr)) ^ set(fields)
        if odd:
            raise ConfigError(f"encoding schema {attr} lacks or adds {', '.join(sorted(odd))}")
    for f, (lo, hi) in schema.numeric_bounds.items():
        if not lo <= hi:
            raise ConfigError(f"encoding schema bounds of {f} are inverted: [{lo}, {hi}]")
    columns: dict[str, slice] = {}
    start = 0
    for f in schema.retained_fields:
        width = len(schema.categorical_levels[f]) if f in CATEGORICAL_FIELDS else 1
        columns[f] = slice(start, start + width)
        start += width
    if start != schema.feature_width:
        raise ConfigError(
            f"encoding schema names {schema.feature_width} features but its "
            f"fields encode to {start} columns"
        )
    return columns


def encode_features(records, schema: EncodingSchema, warn: bool = True):
    """Encode a CustomerTable, or a sequence of records, field by field.

    Gives the same matrix, bit for bit, as stacking ``encode`` of each
    record. Returns ``(matrix, n_unseen)`` where n_unseen tallies
    categorical values that were absent from the training data and encoded
    as all-zero groups; with ``warn``, :func:`warn_unseen` logs the tally.
    """
    fields = feature_columns(schema)
    if isinstance(records, CustomerTable):
        columns = records.columns
    else:
        columns = {f: [getattr(r, f) for r in records] for f in fields}
    matrix = np.empty((len(records), schema.feature_width))
    n_unseen = 0
    for f, cols in fields.items():
        values = columns[f]
        if f in CATEGORICAL_FIELDS:
            index: dict[str, int] = {}
            for j, level in enumerate(schema.categorical_levels[f]):
                index.setdefault(level, j)  # first position, as levels.index gives
            codes = np.array([index.get(v, -1) for v in values], dtype=np.intp)
            seen = np.flatnonzero(codes >= 0)
            block = matrix[:, cols]
            block[:] = 0.0
            block[seen, codes[seen]] = 1.0
            n_unseen += len(values) - len(seen)
        elif f in BINARY_FIELDS:
            matrix[:, cols.start] = np.array(values, dtype=bool)
        else:
            lo, hi = schema.numeric_bounds[f]
            if lo == hi:
                matrix[:, cols.start] = 0.0
            else:
                with np.errstate(over="ignore"):  # a tiny hi - lo gives inf, clamped to 1.0
                    x = (np.array(values, dtype=float) - lo) / (hi - lo)
                # min(1.0, max(0.0, x)) as in encode; np.clip would keep -0.0
                matrix[:, cols.start] = np.where(x > 0.0, np.where(x < 1.0, x, 1.0), 0.0)
    if warn:
        warn_unseen(n_unseen)
    return matrix, n_unseen


def warn_unseen(n_unseen: int) -> None:
    """Log a warning for a non-zero count of unseen categorical values."""
    if n_unseen:
        log.warning("%d categorical value(s) unseen at fit time, encoded as zeros", n_unseen)


def split(records, holdout_fraction: float, seed: int):
    """Deterministic shuffled partition into (train, holdout) lists."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_holdout = int(round(holdout_fraction * len(records)))
    holdout = [records[i] for i in order[:n_holdout]]
    train = [records[i] for i in order[n_holdout:]]
    return train, holdout


def with_field_values(records, field: str, values) -> list[CustomerRecord]:
    """Copies of records with one raw field replaced by the given values."""
    return [replace(r, **{field: v}) for r, v in zip(records, values)]
