import dataclasses
import json
import os

import numpy as np
import pytest

import depcomp as dc
from depcomp.io import (
    _CSV_CHUNK_ROWS,
    load_result,
    load_samples,
    load_system,
    load_tensor,
    render_json,
    result_document,
    save_result,
    save_samples,
    save_system,
    save_tensor,
    write_text_atomic,
)


class TestRenderJson:
    def test_floats_round_trip_exactly(self):
        values = [0.1, 1.0 / 3.0, 1e-12, 0.104, 5e-324, 1.7976931348623157e308]
        text = render_json(values)
        assert json.loads(text) == values

    def test_floats_never_become_ints(self):
        # A decimal marker is forced so 1.0 does not come back as 1.
        parsed = json.loads(render_json({"x": 1.0, "n": 1}))
        assert isinstance(parsed["x"], float)
        assert isinstance(parsed["n"], int)

    def test_numpy_values_supported(self):
        doc = {"v": np.array([0.5, 0.5]), "n": np.int64(3), "f": np.float64(0.25)}
        parsed = json.loads(render_json(doc))
        assert parsed == {"v": [0.5, 0.5], "n": 3, "f": 0.25}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            render_json({"x": float("nan")})
        with pytest.raises(ValueError):
            render_json({"x": float("inf")})

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            render_json({"x": object()})
        with pytest.raises(TypeError):
            render_json({1: "numeric key"})


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "doc.json"
        write_text_atomic(path, "first\n")
        write_text_atomic(path, "second\n")
        assert path.read_text() == "second\n"

    def test_no_temp_debris(self, tmp_path):
        write_text_atomic(tmp_path / "doc.json", "content\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_failed_piecewise_write_leaves_nothing(self, tmp_path):
        def pieces():
            yield "partial\n"
            raise RuntimeError("stopped mid-write")

        with pytest.raises(RuntimeError):
            write_text_atomic(tmp_path / "doc.json", pieces())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            (tmp_path / "plain").write_text("x\n")
            write_text_atomic(tmp_path / "doc.json", "x\n")
            save_samples(tmp_path / "samples.csv", dc.SampleBatch(2, np.array([[1, 2]])))
        finally:
            os.umask(previous)
        for name in ("plain", "doc.json", "samples.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


class TestSystemFile:
    def test_round_trip_is_value_identical(self, tmp_path):
        sys_ = dc.random_system(3, 2, 3, 77)
        path = tmp_path / "system.json"
        save_system(path, sys_)
        loaded = load_system(path)
        np.testing.assert_array_equal(loaded.p.probs, sys_.p.probs)
        for a, b in zip(loaded.channels, sys_.channels):
            np.testing.assert_array_equal(a.entries, b.entries)

    def test_save_of_loaded_reproduces_bytes(self, tmp_path):
        sys_ = dc.random_system(2, 3, 4, 13)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_system(first, sys_)
        save_system(second, load_system(first))
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_and_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "system.json"
        save_system(path, dc.random_system(2, 2, 2, 1))
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_system(path)
        del doc["extra"], doc["p"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_system(path)

    def test_corrupt_channel_rejected_on_load(self, tmp_path):
        path = tmp_path / "system.json"
        save_system(path, dc.random_system(2, 2, 2, 1))
        doc = json.loads(path.read_text())
        doc["channels"][0][0][0] += 0.2  # column no longer sums to one
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_system(path)


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        q = dc.output_distribution(dc.random_system(2, 2, 3, 5))
        path = tmp_path / "q.json"
        save_tensor(path, q)
        loaded = load_tensor(path)
        assert loaded.shape == q.shape
        np.testing.assert_array_equal(loaded.values, q.values)

    def test_bad_shape_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"shape": [2, "two"], "values": [0.5, 0.5]}')
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_sampled_law_round_trips_byte_for_byte(self, tmp_path):
        batch = dc.sample_dcs(dc.random_system(2, 2, 3, 5), 300, seed=1)
        q = dc.ml_estimate(dc.type_counts(batch))
        path, again = tmp_path / "q.json", tmp_path / "again.json"
        save_tensor(path, q)
        assert json.loads(path.read_text())["n"] == 300
        loaded = load_tensor(path)
        assert loaded.n == 300
        np.testing.assert_array_equal(loaded.values, q.values)
        save_tensor(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_file_without_n_is_an_exact_law(self, tmp_path):
        path = tmp_path / "q.json"
        save_tensor(path, dc.output_distribution(dc.random_system(2, 2, 3, 5)))
        assert "n" not in json.loads(path.read_text())
        assert load_tensor(path).n is None

    def test_unknown_key_still_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"shape": [2], "values": [0.5, 0.5], "n": 4, "m": 4}')
        with pytest.raises(ValueError, match=r"unknown keys \['m'\]"):
            load_tensor(path)


def reference_csv(records) -> str:
    """The sample-file format written one record at a time."""
    lines = ["t," + ",".join(f"y{k}" for k in range(1, records.shape[1] + 1))]
    for t, row in enumerate(records.tolist(), start=1):
        lines.append(",".join(str(v) for v in [t] + row))
    return "\n".join(lines) + "\n"


# (L, L', K, n): one channel, one record, counters crossing 9 -> 10 and
# 99 -> 100 inside one chunk among one- and two-digit symbols, exactly one of
# the writer's chunks and one chunk plus one row, two chunks plus three rows.
SAMPLE_SHAPES = [
    (2, 3, 1, 50),
    (2, 2, 3, 1),
    (2, 12, 3, 400),
    (2, 2, 2, _CSV_CHUNK_ROWS),
    (2, 2, 2, _CSV_CHUNK_ROWS + 1),
    (2, 2, 2, 2 * _CSV_CHUNK_ROWS + 3),
]


def sampled_batch(L, Lp, K, n):
    return dc.sample_dcs(dc.random_system(L, Lp, K, 8), n, seed=2)


class TestSampleFile:
    def test_format(self, tmp_path):
        batch = dc.SampleBatch(3, np.array([[1, 3], [2, 1]]))
        path = tmp_path / "samples.csv"
        save_samples(path, batch)
        assert path.read_text() == "t,y1,y2\n1,1,3\n2,2,1\n"
        save_samples(path, dc.SampleBatch(12, np.array([[9, 12], [10, 1], [1, 10]])))
        assert path.read_text() == "t,y1,y2\n1,9,12\n2,10,1\n3,1,10\n"
        for shape in SAMPLE_SHAPES:
            batch = sampled_batch(*shape)
            save_samples(path, batch)
            assert path.read_bytes() == reference_csv(batch.records).encode(), shape

    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        for L, Lp, K, n in [(2, 3, 4, 200)] + SAMPLE_SHAPES:
            batch = sampled_batch(L, Lp, K, n)
            save_samples(path, batch)
            loaded = load_samples(path, output_size=Lp)
            assert loaded.output_size == Lp
            np.testing.assert_array_equal(loaded.records, batch.records)

    def test_output_size_inferred(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,y1\n1,2\n2,1\n")
        assert load_samples(path).output_size == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("\nt,y1,y2\n\n1,1,2\n\n\n2,2,1\n\n")
        np.testing.assert_array_equal(load_samples(path).records, [[1, 2], [2, 1]])

    @pytest.mark.parametrize(
        "text, records, output_size",
        [
            (b"t,y1,y2\n1, 2 ,\t1\n 2,1,2\t\n", [[2, 1], [1, 2]], 2),
            (b"t,y1,y2\n1,+2,1\n+2,1,+2\n", [[2, 1], [1, 2]], 2),
            (b"t,y1,y2\n01,2,1\n2,01,002\n", [[2, 1], [1, 2]], 2),
            (b"t,y1,y2\r\n1,2,1\r\n2,1,2\r\n", [[2, 1], [1, 2]], 2),
            (b"\n\nt,y1,y2\n1,2,1\n\n2,1,2\n", [[2, 1], [1, 2]], 2),
            (b"t,y1,y2\n1,2,1\n2,1,2", [[2, 1], [1, 2]], 2),
            (b"t,y1,y2\n1,12,1\n2,10,9\n", [[12, 1], [10, 9]], 12),
        ],
        ids=["spaces-and-tabs", "plus-sign", "leading-zeros", "crlf", "blank-lines", "no-final-newline", "Lprime-12"],
    )
    def test_lenient_forms(self, tmp_path, text, records, output_size):
        path = tmp_path / "samples.csv"
        path.write_bytes(text)
        batch = load_samples(path)
        assert batch.output_size == output_size
        np.testing.assert_array_equal(batch.records, records)

    def test_written_file_is_read_without_the_text_parser(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a file as save_samples writes it")

        path = tmp_path / "samples.csv"
        batch = sampled_batch(2, 9, 4, 1234)
        save_samples(path, batch)
        monkeypatch.setattr(np, "loadtxt", refuse)
        for output_size in (None, 9, 10):
            loaded = load_samples(path, output_size)
            assert loaded.output_size == (output_size or batch.records.max())
            np.testing.assert_array_equal(loaded.records, batch.records)

    @pytest.mark.parametrize(
        "edit, output_size, match",
        [
            (lambda row: row[:-2] + "0\n", None, r"row 120 has y3 = 0, outside 1\.\.2"),
            (lambda row: row.replace(",", ";", 1), None, "row 120 has 3 fields, expected 4"),
            (lambda row: "121" + row[3:], None, "row 120 has counter 121, expected 120"),
            (lambda row: row[:-1] + ",", None, "row 120 has 8 fields, expected 4"),
            (lambda row: row, 1, r"row \d+ has y\d = 2, outside 1\.\.1"),
        ],
        ids=["symbol-0", "semicolon", "counter", "newline-to-comma", "output-size-below-symbols"],
    )
    def test_fixed_width_fault_names_its_row(self, tmp_path, edit, output_size, match):
        # Each edit keeps row 120 (with its newline) at its width, so only the
        # byte-column checks can send the file on to the text reader.
        path = tmp_path / "samples.csv"
        save_samples(path, sampled_batch(2, 2, 3, 150))
        text = path.read_text()
        start = text.index("\n120,") + 1
        end = text.index("\n", start) + 1
        path.write_text(text[:start] + edit(text[start:end]) + text[end:])
        with pytest.raises(ValueError, match=f"^sample file: {match}"):
            load_samples(path, output_size)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("time,y1\n1,1\n")
        with pytest.raises(ValueError):
            load_samples(path)

    def test_no_records_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,y1,y2\n\n")
        for output_size in (None, 2):
            with pytest.raises(ValueError, match="^sample file: no records$"):
                load_samples(path, output_size)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        for body, row, fields in [
            ("1,1,2\n2,1\n", 2, 2),
            ("1,1\n2,1\n", 1, 2),
            ("1,1,2\n2,2,1\n\n3,1,1,1\n", 3, 4),
            ("1,1,2,\n", 1, 4),
        ]:
            path.write_text("t,y1,y2\n" + body)
            with pytest.raises(ValueError, match=f"row {row} has {fields} fields, expected 3"):
                load_samples(path)

    def test_bad_row_counter_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,y1\n1,1\n3,1\n")
        with pytest.raises(ValueError, match="row 2 has counter 3, expected 2"):
            load_samples(path)
        path.write_text("t,y1\n0,1\n")
        with pytest.raises(ValueError, match="row 1 has counter 0, expected 1"):
            load_samples(path)

    def test_symbol_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "samples.csv"
        for body, output_size, match in [
            ("1,0,0\n2,0,0\n", None, r"row 1 has y1 = 0, outside 1\.\.0"),
            ("1,1,2\n2,2,-1\n", None, r"row 2 has y2 = -1, outside 1\.\.2"),
            ("1,1,2\n2,2,1\n3,3,1\n", 2, r"row 3 has y1 = 3, outside 1\.\.2"),
        ]:
            path.write_text("t,y1,y2\n" + body)
            with pytest.raises(ValueError, match=f"^sample file: {match}$"):
                load_samples(path, output_size)

    def test_non_integer_cell_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        for body, row in [
            ("1,1.5\n", 1),
            ("1,1\n2,\n", 2),
            ("1,1\n2,1\n\n3,99999999999999999999\n", 3),
            ("1,x\n", 1),
        ]:
            path.write_text("t,y1\n" + body)
            with pytest.raises(ValueError, match=f"row {row} has a field that is not a 64-bit integer"):
                load_samples(path)


class TestResultFile:
    def test_round_trip_losslessly(self, tmp_path):
        q = dc.output_distribution(dc.random_system(2, 2, 3, 21))
        cfg = dc.InversionConfig(L=2, restarts=3, seed=4)
        res = dc.recover_system(q, cfg)
        path = tmp_path / "result.json"
        save_result(path, res, cfg)
        doc = load_result(path)
        assert doc["seed"] == 4
        assert doc["config"]["L"] == 2
        np.testing.assert_array_equal(doc["p_hat"], res.p_hat.probs)
        assert doc["objective"]["value"] == res.objective_value
        # Re-rendering the parsed document reproduces the file byte for byte.
        assert render_json(doc) == path.read_text()

    def test_restart_log_recorded(self, tmp_path):
        q = dc.output_distribution(dc.random_system(2, 2, 3, 22))
        cfg = dc.InversionConfig(L=2, restarts=4, seed=0)
        res = dc.recover_system(q, cfg)
        path = tmp_path / "result.json"
        save_result(path, res, cfg)
        doc = load_result(path)
        assert 1 <= len(doc["restart_log"]) <= 4
        for entry in doc["restart_log"]:
            assert set(entry) == {"restart", "objective", "iterations", "converged", "stop_reason"}

    def test_target_of_a_sampled_law(self):
        # G² recomputed from the document's own fit: 2n sum q ln(q / m) over
        # the observed cells, with m the law of p_hat and channels_hat.
        batch = dc.sample_dcs(dc.random_system(2, 2, 4, 24), 2000, seed=3)
        q = dc.ml_estimate(dc.type_counts(batch))
        cfg = dc.InversionConfig(L=2, restarts=2, max_iters=30, seed=0)
        doc = json.loads(render_json(result_document(dc.recover_system(q, cfg), cfg)))
        fit = dc.DCSystem(
            dc.Distribution(np.array(doc["p_hat"])),
            tuple(dc.Channel(np.array(w)) for w in doc["channels_hat"]),
        )
        m = dc.output_distribution(fit).values
        seen = q.values > 0
        g2 = 2 * 2000 * np.sum(q.values[seen] * np.log(q.values[seen] / m[seen]))
        assert set(doc["target"]) == {"n", "g2", "df"}
        assert doc["target"]["n"] == 2000
        assert doc["target"]["g2"] == pytest.approx(g2, rel=1e-9)
        assert doc["target"]["df"] == 2**4 - 1 - (1 + 4 * 2 * 1)

    def test_target_of_an_exact_law(self):
        q = dc.output_distribution(dc.random_system(3, 2, 3, 25))
        cfg = dc.InversionConfig(L=3, restarts=1, max_iters=5, seed=0)
        doc = result_document(dc.recover_system(q, cfg), cfg)
        # df is written as is, here negative: 7 free cells, 11 parameters.
        assert doc["target"] == {"n": None, "g2": None, "df": 7 - 11}

    def test_config_keys_are_the_config_fields(self):
        q = dc.output_distribution(dc.random_system(2, 2, 3, 23))
        cfg = dc.InversionConfig(L=2, objective="l2sq", restarts=2, max_iters=30, seed=5)
        doc = result_document(dc.recover_system(q, cfg), cfg)
        assert list(doc["config"]) == [f.name for f in dataclasses.fields(dc.InversionConfig)]
        assert doc["config"] == dataclasses.asdict(cfg)


@pytest.mark.parametrize(
    "load, what",
    [(load_system, "system file"), (load_tensor, "tensor file"), (load_result, "result file")],
)
def test_deeply_nested_document_is_a_value_error(tmp_path, load, what):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ValueError, match=f"^{what}: JSON nested too deeply"):
        load(path)
