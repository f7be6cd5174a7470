"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import logging
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from churnnet import cli, data, model
from test_model import mutate_model_doc


TRAIN_FLAGS = [
    "--max-epochs", "15", "--patience", "5",
    "--hidden-min", "3", "--hidden-max", "3", "--seed", "0",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def model_file(small_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    code = cli.main(
        ["train", "--data", str(small_csv), "--model", str(path)] + TRAIN_FLAGS
    )
    assert code == 0
    return path


class TestTrain:
    def test_writes_model_and_prints_candidates(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "train", "--data", str(small_csv), "--model", str(model_path),
            *TRAIN_FLAGS,
        )
        assert code == 0
        assert model_path.exists()
        assert "hidden" in out and "winner" in out

    def test_machine_format(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "train", "--data", str(small_csv), "--model", str(model_path),
            "--format", "machine", *TRAIN_FLAGS,
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[-1]["winner_hidden"] == 3
        assert all("holdout_accuracy" in l for l in lines)

    def test_repeat_run_byte_identical(self, small_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "train", "--data", str(small_csv), "--model", str(path),
                *TRAIN_FLAGS,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_label_column_fails(self, small_records, tmp_path, capsys):
        import dataclasses

        unlabeled = [dataclasses.replace(r, churn=None) for r in small_records[:60]]
        csv_path = tmp_path / "nolabel.csv"
        data.write_csv(unlabeled, csv_path)
        code, _, err = run(
            capsys, "train", "--data", str(csv_path), "--model", str(tmp_path / "m.json"),
        )
        assert code != 0
        assert "churn" in err

    def test_bad_flag_value_fails(self, small_csv, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(small_csv),
            "--model", str(tmp_path / "m.json"), "--eta", "5.0",
        )
        assert code != 0
        assert "eta" in err

    def test_missing_data_file_fails(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "absent.csv"),
            "--model", str(tmp_path / "m.json"),
        )
        assert code != 0
        assert "error" in err

    def test_empty_holdout_fails_without_writing(self, small_records, tmp_path, capsys):
        csv_path = tmp_path / "sixty.csv"
        data.write_csv(small_records[:60], csv_path)
        model_path = tmp_path / "m.json"
        code, _, err = run(
            capsys, "train", "--data", str(csv_path), "--model", str(model_path),
            *TRAIN_FLAGS, "--holdout", "0.001",
        )
        assert code == 1
        assert "error: " in err and "0 to hold out" in err
        assert not model_path.exists()

    def test_env_override(self, small_csv, tmp_path, capsys, monkeypatch):
        # env sets a bad eta; an explicit flag must still win
        monkeypatch.setenv("CHURNNET_ETA", "5.0")
        code, _, err = run(
            capsys, "train", "--data", str(small_csv),
            "--model", str(tmp_path / "m.json"),
        )
        assert code != 0 and "eta" in err

        code, _, _ = run(
            capsys, "train", "--data", str(small_csv),
            "--model", str(tmp_path / "m.json"), "--eta", "0.3", *TRAIN_FLAGS,
        )
        assert code == 0

    def test_env_bad_type_names_variable(self, small_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHURNNET_MAX_EPOCHS", "soon")
        code, _, err = run(
            capsys, "train", "--data", str(small_csv),
            "--model", str(tmp_path / "m.json"),
        )
        assert code != 0
        assert "CHURNNET_MAX_EPOCHS" in err

    def test_no_flags_resolve_to_training_config_defaults(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith(cli.ENV_PREFIX):
                monkeypatch.delenv(name)
        args = cli.build_parser().parse_args(["train", "--data", "d.csv", "--model", "m.json"])
        assert cli._training_config(args) == model.TrainingConfig()
        assert cli._format_of(args) == "human"


class TestEvaluate:
    def test_matrix_output(self, small_csv, model_file, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--data", str(small_csv), "--model", str(model_file),
        )
        assert code == 0
        assert "actual" in out and "overall accuracy" in out
        assert "%" in out

    def test_machine_rows(self, small_csv, model_file, small_records, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--data", str(small_csv), "--model", str(model_file),
            "--format", "machine",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        counts = rows[0], rows[1]
        total = sum(
            r["predicted_false"] + r["predicted_true"] for r in counts
        )
        assert total == len(small_records) == rows[2]["total"]

    def test_empty_csv_fails(self, model_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(data.FIELD_NAMES) + ",churn\n", encoding="utf-8")
        code, _, err = run(
            capsys, "evaluate", "--data", str(empty), "--model", str(model_file),
        )
        assert code != 0 and "error" in err

    def test_oversized_cell_fails_cleanly(self, small_csv, model_file, tmp_path, capsys):
        lines = small_csv.read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[0] = "x" * 200_000  # over csv.field_size_limit()
        lines[5] = ",".join(cells)
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--data", str(path), "--model", str(model_file))
        assert code == 1
        assert f"error: {path}: line 6: field larger than field limit" in err


class TestPredict:
    def test_appends_two_columns_preserving_order(
        self, small_csv, model_file, tmp_path, capsys
    ):
        out_path = tmp_path / "scored.csv"
        code, _, _ = run(
            capsys, "predict", "--data", str(small_csv), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 0
        in_lines = open(small_csv, encoding="utf-8").read().splitlines()
        out_lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(out_lines) == len(in_lines)
        assert out_lines[0] == in_lines[0] + ",N_churn,NC_churn"
        for src, scored in zip(in_lines[1:], out_lines[1:]):
            assert scored.startswith(src + ",")
            label, conf = scored[len(src) + 1 :].split(",")
            assert label in ("true", "false")
            assert 0.0 <= float(conf) <= 1.0

    def test_rerun_identical(self, small_csv, model_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "predict", "--data", str(small_csv),
                "--model", str(model_file), "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unlabeled_input(self, small_records, model_file, tmp_path, capsys):
        import dataclasses

        unlabeled = [dataclasses.replace(r, churn=None) for r in small_records[:30]]
        csv_path = tmp_path / "nolabel.csv"
        data.write_csv(unlabeled, csv_path)
        out_path = tmp_path / "scored.csv"
        code, _, _ = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 31

    def test_non_utf8_input_fails_cleanly(self, small_records, model_file, tmp_path, capsys):
        import dataclasses

        unlabeled = [dataclasses.replace(r, churn=None) for r in small_records[:30]]
        csv_path = tmp_path / "latin1.csv"
        data.write_csv(unlabeled, csv_path)
        last_row = ",".join(data.record_to_row(unlabeled[0])).encode()
        bad_at = csv_path.stat().st_size + len(last_row)
        with open(csv_path, "ab") as fh:
            fh.write(last_row + b"\xff\r\n")
        code, _, err = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(tmp_path / "scored.csv"),
        )
        assert code == 1
        assert f"error: {csv_path}: not UTF-8 at byte {bad_at} (line 32)" in err

    def test_non_finite_model_fails_cleanly(self, small_csv, model_file, tmp_path, capsys):
        doc = json.loads(model_file.read_text())
        doc["weights"][0][0][0] = float("nan")
        broken = tmp_path / "nan.json"
        broken.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "predict", "--data", str(small_csv), "--model", str(broken),
            "--out", str(tmp_path / "scored.csv"),
        )
        assert code == 1
        assert "error: " in err and "non-finite" in err

    def test_too_many_bad_rows_fails_naming_a_line(self, small_records, model_file, tmp_path, capsys):
        import dataclasses

        unlabeled = [dataclasses.replace(r, churn=None) for r in small_records[:60]]
        csv_path = tmp_path / "bad.csv"
        data.write_csv(unlabeled, csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        cells = lines[10].split(",")
        cells[data.FIELD_NAMES.index("account_length")] = "-5"
        lines[10] = ",".join(cells)  # line 11
        lines[20] = lines[20].rsplit(",", 3)[0]  # line 21, truncated
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "scored.csv"
        code, _, err = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 1
        assert "2 of 60 rows failed to parse" in err
        assert "line 11: " in err and "line 21: " in err
        assert not out_path.exists()

    def test_bad_rows_named_by_physical_line(self, small_records, model_file, tmp_path, capsys):
        import dataclasses

        unlabeled = [dataclasses.replace(r, churn=None) for r in small_records[:60]]
        csv_path = tmp_path / "blank.csv"
        data.write_csv(unlabeled, csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[10] = lines[10].rsplit(",", 3)[0]  # line 11, truncated
        lines[20] = lines[20].rsplit(",", 3)[0]  # line 21, truncated
        lines.insert(3, "")  # a blank line 4 moves them to lines 12 and 22
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(tmp_path / "scored.csv"),
        )
        assert code == 1
        assert "(line 12: line 12: expected 20 columns, got 17; line 22: line 22: " in err

    def test_failed_write_keeps_previous_output(
        self, small_csv, model_file, tmp_path, capsys, monkeypatch
    ):
        real_open = open

        class DiskFullFile:
            """A file whose disk fills after its first write, the header."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if self.writes:
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return self.fh.write(text)

        def disk_full_open(file, mode="r", **kwargs):
            fh = real_open(file, mode, **kwargs)
            return DiskFullFile(fh) if "x" in mode else fh

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_path = out_dir / "scored.csv"
        out_path.write_text("previous\n", encoding="utf-8")
        monkeypatch.setattr(data, "open", disk_full_open, raising=False)
        code, _, err = run(
            capsys, "predict", "--data", str(small_csv), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 1 and "No space" in err
        assert out_path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in out_dir.iterdir()] == ["scored.csv"]

    @pytest.mark.parametrize("via_env", [False, True])
    def test_bad_format_fails(self, small_csv, model_file, tmp_path, capsys, monkeypatch, via_env):
        out_path = tmp_path / "scored.csv"
        argv = ["predict", "--data", str(small_csv), "--model", str(model_file),
                "--out", str(out_path)]
        if via_env:
            monkeypatch.setenv("CHURNNET_FORMAT", "xml")
        else:
            argv += ["--format", "xml"]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error: --format must be human or machine, got 'xml'" in err
        assert not out_path.exists()

    def test_input_not_mutated(self, small_csv, model_file, tmp_path, capsys):
        before = open(small_csv, "rb").read()
        run(
            capsys, "predict", "--data", str(small_csv), "--model", str(model_file),
            "--out", str(tmp_path / "scored.csv"),
        )
        assert open(small_csv, "rb").read() == before


    def test_confidences_written_to_the_last_bit(self, small_csv, model_file, tmp_path, capsys):
        out_path = tmp_path / "scored.csv"
        code, _, _ = run(
            capsys, "predict", "--data", str(small_csv), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()[1:]
        _, confidence, _ = model.score(model.load_model(model_file), data.parse_csv(small_csv))
        assert [float(line.rsplit(",", 1)[1]) for line in lines] == confidence.tolist()

    def test_label_cells_are_echoed_not_parsed(self, small_records, model_file, tmp_path, capsys):
        csv_path = tmp_path / "unknown_labels.csv"
        data.write_csv(small_records[:200], csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[1:] = [line.rsplit(",", 1)[0] + ",?" for line in lines[1:]]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "scored.csv"
        code, _, err = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(out_path),
        )
        assert code == 0, err
        out_lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(out_lines) == 201
        assert all(o.startswith(i + ",") for i, o in zip(lines[1:], out_lines[1:]))


def predict_run(capsys, caplog, monkeypatch, block_rows, csv_path, model_file, out_path):
    """predict with ``data.BLOCK_ROWS`` set: exit code, --out bytes (None if
    absent), the names beside it, stderr and the log records."""
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    caplog.clear()
    with caplog.at_level(logging.INFO):
        code, _, err = run(
            capsys, "predict", "--data", str(csv_path), "--model", str(model_file),
            "--out", str(out_path),
        )
    logs = [(r.levelname, r.getMessage()) for r in caplog.records]
    body = out_path.read_bytes() if out_path.exists() else None
    return code, body, sorted(p.name for p in out_path.parent.iterdir()), err, logs


def edge_case_lines(small_records, n_bad):
    """Unlabeled CSV lines with n_bad bad rows, blank lines, quoted cells
    spanning two lines (one from line 22, the last line of a block at sizes
    3 and 7) and unseen area codes, spread over many small blocks."""
    rows = [data.record_to_row(dataclasses.replace(r, churn=None)) for r in small_records[:120]]
    area = data.FIELD_NAMES.index("area_code")
    for i in (2, 3, 9, 50):
        rows[i][area] = "999"
    rows[6][0] = "K\nS"  # state, quoted across two physical lines
    for k, i in enumerate((4, 5, 13, 14, 15, 21, 40, 77)[:n_bad]):
        if k % 2:
            rows[i] = rows[i][:-3]
        else:
            rows[i][data.FIELD_NAMES.index("account_length")] = "n/a"
    lines = [",".join(data.FIELD_NAMES)]
    for i, row in enumerate(rows):
        if len("\n".join(lines).split("\n")) == 21:  # the row starts on line 22
            row[0] = "N\nY"
        lines.append(",".join(f'"{c}"' if "\n" in c else c for c in row))
        if i in (1, 7, 8, 30):
            lines.append("")
    assert "\n".join(lines).split("\n")[21].startswith('"N')
    return lines


class TestPredictBlocks:
    """predict in blocks of 3 and 7 rows gives what one block gives."""

    @pytest.mark.parametrize("n_bad", [1, 8])
    def test_block_edges_do_not_change_output(
        self, small_records, model_file, tmp_path, capsys, caplog, monkeypatch, n_bad
    ):
        csv_path = tmp_path / "edges.csv"
        out_path = tmp_path / "out" / "scored.csv"
        out_path.parent.mkdir()
        results = []
        for newline in ("\n", "\r"):  # the quoted cells hold LF either way
            csv_path.write_bytes(
                newline.join(edge_case_lines(small_records, n_bad)).encode() + newline.encode())
            for block_rows in (10**6, 3, 7):
                out_path.write_bytes(b"previous\n")
                results.append(predict_run(capsys, caplog, monkeypatch, block_rows, csv_path,
                                           model_file, out_path))
        code, body, names, err, logs = results[0]
        assert all(result == results[0] for result in results)
        assert names == ["scored.csv"]
        if n_bad == 1:
            assert code == 0
            assert b'"K\nS"' in body and b'"N\nY"' in body and body.count(b"\r\n") == 1 + 119
            assert ("WARNING", "4 categorical value(s) unseen at fit time, encoded as zeros") in logs
            assert [m for lvl, m in logs if lvl == "WARNING"][0].endswith(
                "skipped line 7: account_length must be an integer, got 'n/a'")
        else:
            assert code == 1 and body == b"previous\n"
            assert "8 of 120 rows failed to parse (line 7: " in err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("n_bad", [2, 3])
def test_bad_row_limit_is_one_percent_of_the_whole_file(
    small_records, model_file, tmp_path, capsys, caplog, monkeypatch, command, n_bad
):
    # 200 rows in blocks of 7 lines: 2 bad rows are 1% and skipped, 3 reject the file
    monkeypatch.setattr(data, "BLOCK_ROWS", 7)
    csv_path = tmp_path / "in.csv"
    data.write_csv(small_records[:200], csv_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    for line_no in (30, 101, 170)[:n_bad]:
        lines[line_no - 1] = lines[line_no - 1].rsplit(",", 3)[0]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--data", str(csv_path), "--model", str(model_file)]
    if command == "predict":
        argv += ["--out", str(tmp_path / "scored.csv")]
    with caplog.at_level(logging.INFO):
        code, _, err = run(capsys, *argv)
    skipped = [r.getMessage() for r in caplog.records if ": skipped line " in r.getMessage()]
    if n_bad == 2:
        assert code == 0, err
        assert [m.split(": ")[1] for m in skipped] == ["skipped line 30", "skipped line 101"]
        assert f"{csv_path}: parsed 198 records (2 rows skipped)" in caplog.messages
    else:
        assert code == 1 and not skipped
        assert "3 of 200 rows failed to parse (line 30: " in err


def test_evaluate_and_importance_warn_unseen_levels_once(small_records, model_file, tmp_path, capsys, caplog):
    records = [dataclasses.replace(r, area_code="999") if i in (10, 200) else r
               for i, r in enumerate(small_records[:300])]
    csv_path = tmp_path / "unseen.csv"
    data.write_csv(records, csv_path)
    for command in ("evaluate", "importance"):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            code, _, err = run(capsys, command, "--data", str(csv_path), "--model", str(model_file))
        assert code == 0, err
        assert [m for m in caplog.messages if "categorical" in m] == [
            "2 categorical value(s) unseen at fit time, encoded as zeros"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.one_of(
    st.binary(max_size=200),
    st.lists(st.text(alphabet=',"\r\n x9.-yes\xe9', max_size=30), max_size=6).map(
        lambda lines: (",".join(data.FIELD_NAMES) + "\n" + "\n".join(lines)).encode()),
    st.binary(max_size=120).map(lambda b: (",".join(data.FIELD_NAMES) + ",churn\n").encode() + b),
))
def test_predict_on_arbitrary_bytes_exits_cleanly(model_file, body):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "in.csv")
        with open(csv_path, "wb") as fh:
            fh.write(body)
        out_path = os.path.join(tmp, "scored.csv")
        code = cli.main(["predict", "--data", csv_path, "--model", str(model_file),
                         "--out", out_path])
        assert code in (0, 1)
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")]


class TestImportance:
    def test_descending_scores(self, small_csv, model_file, capsys):
        code, out, _ = run(
            capsys, "importance", "--data", str(small_csv), "--model", str(model_file),
            "--format", "machine", "--seed", "0",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert len(rows) == 18

    def test_fixed_seed_identical_report(self, small_csv, model_file, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "importance", "--data", str(small_csv),
                "--model", str(model_file), "--seed", "7",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_human_table(self, small_csv, model_file, capsys):
        code, out, _ = run(
            capsys, "importance", "--data", str(small_csv), "--model", str(model_file),
        )
        assert code == 0
        assert "customer_service_calls" in out


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("command", ["train", "importance"])
def test_negative_seed_fails_cleanly(
    small_csv, model_file, tmp_path, capsys, monkeypatch, command, via_env
):
    model_path = model_file if command == "importance" else tmp_path / "m.json"
    argv = [command, "--data", str(small_csv), "--model", str(model_path)]
    if via_env:
        monkeypatch.setenv("CHURNNET_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert [l for l in err.splitlines() if l.startswith("error:")] == [
        "error: seed must be >= 0, got -1"]
    assert not list(tmp_path.iterdir())


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st_data=st.data())
def test_mutated_model_exits_cleanly(small_csv, model_file, st_data):
    # one key deleted, one leaf retyped or one list shortened
    doc = json.loads(model_file.read_text())
    mutate_model_doc(doc, st_data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        model_path = os.path.join(tmp, "model.json")
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out_path = os.path.join(tmp, "scored.csv")
        for argv in (["evaluate"], ["predict", "--out", out_path]):
            code = cli.main(argv + ["--data", str(small_csv), "--model", model_path])
            assert code in (0, 1)
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")]


def _int_over(text: str, limit: int) -> bool:
    try:
        return int(text) > limit
    except ValueError:
        return False


# Any text an environment variable can hold: no NUL, no lone surrogate.
ENV_TEXT = st.text(
    st.one_of(st.sampled_from("0123456789.-+e_ "),
              st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
    max_size=8,
)


def env_value(name: str):
    """A value of the variable's type or arbitrary text. Counts stay at most
    50, so that no drawn configuration trains for long."""
    kind = str if name == "format" else type(cli._default(name))
    if kind is int:
        return st.one_of(st.sampled_from(["-1", "0", "1"]), st.integers(-50, 50).map(str),
                         ENV_TEXT.filter(lambda text: not _int_over(text, 50)))
    typed = st.floats(-0.5, 1.5).map(repr) if kind is float else st.sampled_from(
        ["human", "machine"])
    return st.one_of(typed, ENV_TEXT)


# A few of the CHURNNET_* variables, each with a drawn value.
ENVIRONMENTS = st.lists(
    st.sampled_from([*cli._TRAINING_FLAGS, "format"]), max_size=3, unique=True,
).flatmap(lambda names: st.fixed_dictionaries(
    {cli.ENV_PREFIX + name.upper(): env_value(name) for name in names}))


@pytest.fixture(scope="module")
def sixty_csv(small_records, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sixty.csv"
    data.write_csv(small_records[:60], path)
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(env=ENVIRONMENTS)
def test_environment_values_exit_cleanly(sixty_csv, model_file, env):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        for name in list(os.environ):
            if name.startswith(cli.ENV_PREFIX):
                del os.environ[name]
        os.environ.update(env)
        code = cli.main(["train", "--data", str(sixty_csv),
                         "--model", os.path.join(tmp, "model.json")])
        assert code in (0, 1)
        code = cli.main(["importance", "--data", str(sixty_csv), "--model", str(model_file)])
        assert code in (0, 1)
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")]
