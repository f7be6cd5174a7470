"""Churn CSV ingestion, validation, numeric encoding and train/holdout splits.

The expected file is a UTF-8 CSV with a header row naming the twenty customer
fields plus the churn label. Header matching is case-insensitive and tolerant
of spaces vs underscores, and a few spellings common in circulating copies of
the data ("intl plan", "number vmail messages"...) are accepted as aliases.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import logging
import math
import os
import re
import sys
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

# Physical lines per block read from a CSV file; every command parses one
# block at a time, and `predict` also scores and writes it before the next.
BLOCK_ROWS = 1024

# Counts parse through float(), which holds every whole number below 2**53
# exactly; a count at or above it is rejected rather than rounded.
COUNT_LIMIT = 2**53

# Every character str.strip() removes (none lies above U+3000), and the
# comma: a line of these alone is a blank row.
_BLANK_CHARS = "," + "".join(filter(str.isspace, map(chr, range(0x3001))))

# Bytes read at a time when looking for the first byte that is not UTF-8.
_UTF8_SCAN_BYTES = 1 << 16


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
    if v >= COUNT_LIMIT:
        raise ValueError(f"{field} must be below 2**53, got {token!r}")
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


@dataclass(eq=False)
class RowBlock:
    """Data rows read from a CSV file, their cells held as one matrix.

    ``cells`` is an ``(n, width)`` object array: row i's first ``width``
    cells, then "" past its end, ``lengths[i]`` being its cell count.
    ``lines[i]`` is the physical line on which row i starts, the header
    being line 1. ``raw[i]`` is row i as read: the text of its line without
    the line end (a str) when it was read as a plain line, else its cells as
    the csv module read them (a list).
    """

    cells: np.ndarray
    lengths: np.ndarray
    lines: list[int]
    raw: list

    def __len__(self) -> int:
        return len(self.lines)

    def row(self, i: int) -> list[str]:
        """Row i's cells."""
        raw = self.raw[i]
        return raw.split(",") if isinstance(raw, str) else raw

    @classmethod
    def from_rows(cls, rows, lines, width: int) -> RowBlock:
        """The block of ``rows``, lists of cells starting on ``lines``."""
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        even = [rows[i] for i in np.flatnonzero(lengths == width).tolist()]
        cells = _cell_matrix(lengths, width, np.array(even, dtype=object), rows.__getitem__)
        return cls(cells, lengths, list(lines), list(rows))

    def csv_text(self, indices, tails) -> str:
        """The rows at ``indices`` as CSV text, ``tails[k]`` being the CSV
        text of the cells appended to row ``indices[k]``.

        A row is written byte for byte as ``csv.writer`` writes it, ended by
        CRLF: a row read as a plain line as that line, any other through
        :func:`row_text`. (A row of one empty cell, which the writer would
        quote, is blank and never read.)
        """
        raw = self.raw
        return "".join([
            f"{raw[i] if isinstance(raw[i], str) else row_text(raw[i])},{tail}\r\n"
            for i, tail in zip(indices, tails)
        ])


def _cell_matrix(lengths, width: int, even_cells, row_of) -> np.ndarray:
    """The ``(n, width)`` cell matrix of rows with ``lengths`` cells.

    ``even_cells`` holds the cells of the rows of exactly ``width`` cells, in
    order; ``row_of(i)`` gives any other row i, which is cut or padded.
    """
    even = lengths == width
    even_cells = even_cells.reshape(int(even.sum()), width)
    if even.all():
        return even_cells
    cells = np.full((len(lengths), width), "", dtype=object)
    cells[even] = even_cells
    for i in np.flatnonzero(~even).tolist():
        row = row_of(i)[:width]
        cells[i, :len(row)] = row
    return cells


def _plain_block(lines, width: int, first_line: int) -> RowBlock:
    """The block of physical ``lines`` that hold no quote and no NUL, the
    first being line ``first_line``: each line is one row, its cells split at
    the commas, and a line of commas and white space alone is a blank row."""
    # a line holds CR and LF only as its line end
    bodies = list(map(str.rstrip, lines, itertools.repeat("\r\n")))
    if all(map(str.strip, bodies, itertools.repeat(_BLANK_CHARS))):
        starts = list(range(first_line, first_line + len(bodies)))
    else:
        kept = [i for i, b in enumerate(bodies) if b.strip(_BLANK_CHARS)]
        bodies = [bodies[i] for i in kept]
        starts = [first_line + i for i in kept]
    lengths = np.fromiter(map(str.count, bodies, itertools.repeat(",")), dtype=np.intp,
                          count=len(bodies)) + 1
    even = [bodies[i] for i in np.flatnonzero(lengths == width).tolist()]
    # one split for all the rows of the header's width
    split = ",".join(even).split(",") if even else []
    even_cells = np.empty(len(split), dtype=object)
    even_cells[:] = split
    cells = _cell_matrix(lengths, width, even_cells, lambda i: bodies[i].split(","))
    return RowBlock(cells, lengths, starts, bodies)


def read_csv_blocks(path, size: int):
    """Read a CSV file as its header row, then RowBlocks of its data rows.

    The header is a list of strings. Each block holds the non-blank rows of
    the next ``size`` physical lines, or of a few more where a quoted cell
    runs on past them; a block with no row is not yielded. A block of lines
    with no ``"``, no NUL and no line longer than ``csv.field_size_limit()``
    is plain: each of its lines is one row, split at its commas. Any other
    block goes through ``csv.reader``. Either way a row is what
    ``csv.reader`` reads, and a row of blank cells is a blank line. A row
    the csv module cannot read (such as a cell over the field size limit)
    is a SchemaError naming its line, as are an empty file and bytes that
    are not UTF-8.
    """
    line = 0  # physical lines read before the current reader's first one
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: file is empty, expected a header row") from None
            yield header
            line = reader.line_num
            while lines := list(itertools.islice(fh, size)):
                text = "".join(lines)
                if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
                    # the reader pulls a quoted cell's further lines from the file
                    reader = csv.reader(itertools.chain(lines, fh))
                    rows, starts = [], []
                    start = 1
                    for row in reader:
                        if "".join(row).strip():  # a row of blank cells is a blank line
                            rows.append(row)
                            starts.append(line + start)
                        if reader.line_num >= len(lines):
                            break
                        start = reader.line_num + 1
                    block = RowBlock.from_rows(rows, starts, len(header))
                    line += reader.line_num
                else:
                    block = _plain_block(lines, len(header), line + 1)
                    line += len(lines)
                if len(block):
                    yield block
    except UnicodeDecodeError:
        raise SchemaError(_utf8_error(path)) from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {line + reader.line_num}: {exc}") from None


def read_raw_csv(path):
    """Read the header and all non-blank data rows of a CSV file at once.

    Returns ``(header, rows, lines)``: the file read by
    :func:`read_csv_blocks` as one RowBlock, and its ``lines``.
    """
    header, *blocks = read_csv_blocks(path, sys.maxsize)
    rows = blocks[0] if blocks else RowBlock.from_rows([], [], len(header))
    return header, rows, rows.lines


def _utf8_error(path) -> str:
    # The decoder's own position is relative to the chunk it was reading, so
    # decode the file once more, a chunk at a time, to locate the byte in it.
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = newlines = 0  # bytes and line ends before the chunk
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_UTF8_SCAN_BYTES)
            # a sequence the last chunk ended inside starts before this one
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                at = offset - pending + exc.start
                # the pending bytes of a sequence hold no line end
                line = newlines + chunk.count(b"\n", 0, max(0, at - offset)) + 1
                return f"{path}: not UTF-8 at byte {at} (line {line}): {exc.reason}"
            if not chunk:
                return f"{path}: not UTF-8"
            offset += len(chunk)
            newlines += chunk.count(b"\n")


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


def _lookup(cells, table: dict[str, bool], key):
    """``(values, ok)``: the value in ``table`` of ``key(cell)`` for each
    cell; ok is False where it has none. ``key`` runs once per distinct cell."""
    code_of = {c: table.get(key(c), -1) for c in set(cells)}
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.int8, count=len(cells))
    return codes == 1, codes >= 0


def _numbers(cells, integral):
    """``(values, ok)`` of numeric columns, both of the shape of ``cells``:
    float() of each cell, which must be finite and >= 0, and also whole and
    below COUNT_LIMIT in the columns where ``integral`` is True."""
    try:
        # an object array converts by float() itself; a "<U" array would not
        # (it drops a trailing NUL that float() rejects)
        v = cells.astype(float)
    except ValueError:
        v = np.empty(cells.shape)
        for j, col in enumerate(cells.T):
            try:
                v[:, j] = col.astype(float)
            except ValueError:
                v[:, j] = [_float_or_nan(c) for c in col.tolist()]
    ok = np.isfinite(v) & (v >= 0.0)
    whole = v[:, integral]
    ok[:, integral] &= (np.trunc(whole) == whole) & (whole < COUNT_LIMIT)
    v[:, integral] = whole + 0.0  # float(int(v)): "-0" gives +0.0
    return v, ok


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def parse_block(rows: RowBlock, colmap: dict[str, int]) -> tuple[CustomerTable, list]:
    """Parse a block of raw data rows into a CustomerTable of the good ones.

    Each field is checked for a whole column at once. Returns the table and
    the bad rows as ``(line, message)`` pairs. The messages come from
    ``parse_row`` on the bad rows, so they are those of parsing row by row.
    """
    width = max(colmap.values()) + 1
    full = np.flatnonzero(rows.lengths >= width)  # a short row is bad as a whole
    cells = rows.cells[full, :width]

    # all numeric columns at once
    numbers, numbers_ok = _numbers(cells[:, [colmap[f] for f in NUMERIC_FIELDS]],
                                   np.array([f in INT_FIELDS for f in NUMERIC_FIELDS]))
    ok = numbers_ok.all(axis=1)
    columns: dict[str, np.ndarray] = {}
    for f in FIELD_NAMES:
        col = cells[:, colmap[f]]
        if f in BINARY_FIELDS:
            columns[f], col_ok = _lookup(col.tolist(), _YES_NO, lambda c: c.strip().lower())
            ok &= col_ok
        elif f in NUMERIC_FIELDS:
            columns[f] = numbers[:, NUMERIC_FIELDS.index(f)]
        else:
            columns[f] = np.array(list(map(str.strip, col.tolist())), dtype=object)
    churn = None
    if LABEL_FIELD in colmap:
        labels = cells[:, colmap[LABEL_FIELD]]
        churn, col_ok = _lookup(labels.tolist(), _LABELS, lambda c: c.strip().rstrip(".").lower())
        ok &= col_ok

    kept = full[ok]
    good = np.zeros(len(rows), dtype=bool)
    good[kept] = True
    bad: list[tuple[int, str]] = []
    for i in np.flatnonzero(~good).tolist():
        try:
            parse_row(rows.row(i), colmap, rows.lines[i])
        except ValueError as exc:
            bad.append((rows.lines[i], str(exc)))
    if len(kept) < len(full):
        columns = {f: col[ok] for f, col in columns.items()}
        churn = None if churn is None else churn[ok]
    return CustomerTable(columns, churn, kept), bad


def parse_blocks(source, blocks, colmap: dict[str, int]):
    """Parse RowBlocks one at a time: yields each as ``(rows, table)``,
    ``table`` being :func:`parse_block`'s CustomerTable of its good rows.

    After the last block the bad-row policy covers the whole input: if more
    than MAX_BAD_ROW_FRACTION of its rows are bad, it is rejected with a
    SchemaError naming the first few lines; otherwise each bad row is logged
    as a skipped line. ``source`` names the input.
    """
    n_rows = n_kept = 0
    bad: list[tuple[int, str]] = []
    for rows in blocks:
        table, block_bad = parse_block(rows, colmap)
        yield rows, table
        n_rows += len(rows)
        n_kept += len(table)
        bad += block_bad
    if n_rows and len(bad) > MAX_BAD_ROW_FRACTION * n_rows:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
        raise SchemaError(
            f"{source}: {len(bad)} of {n_rows} rows failed to parse ({detail} ...)"
        )
    for line_no, msg in bad:
        log.warning("%s: skipped line %d: %s", source, line_no, msg)
    log.info("%s: parsed %d records (%d rows skipped)", source, n_kept, len(bad))


def parse_csv(path, require_label: bool = True) -> list[CustomerRecord]:
    """Parse the churn CSV into records, a block at a time, skipping bad rows
    as :func:`parse_blocks` does."""
    blocks = read_csv_blocks(path, BLOCK_ROWS)
    colmap = map_header(next(blocks), require_label=require_label)
    return [r for _, table in parse_blocks(path, blocks, colmap) for r in table.records()]


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


def row_text(row) -> str:
    """A row of string cells as CSV text without its line end, byte for
    byte as ``csv.writer`` writes it.

    That is its cells joined by commas, which is how the excel dialect
    writes a row with no quoted cell. The dialect quotes a cell holding
    ``,`` ``"`` CR or LF, and the cell of a row that is one empty cell; a
    row with such a cell goes through ``csv.writer``.
    """
    text = ",".join(row)
    if ('"' in text or "\r" in text or "\n" in text or text.count(",") != len(row) - 1
            or row == [""]):
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        return buf.getvalue()[:-2]
    return text


def csv_text(rows) -> str:
    """Rows of string cells as CSV text, each ended by CRLF, byte for byte
    as ``csv.writer`` writes them (see :func:`row_text`)."""
    return "".join([f"{row_text(row)}\r\n" for row in rows])


def write_csv(records, path) -> None:
    """Write records back out with canonical headers; inverse of parse_csv.

    ``path`` is replaced only once every record is written."""
    with open_atomic(path, newline="") as fh:
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


def encode_features(records, schema: EncodingSchema):
    """Encode a CustomerTable, or a sequence of records, field by field.

    Gives the same matrix, bit for bit, as stacking ``encode`` of each
    record. Returns ``(matrix, n_unseen)`` where n_unseen tallies
    categorical values that were absent from the training data and encoded
    as all-zero groups; the caller logs it with :func:`warn_unseen`.
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
