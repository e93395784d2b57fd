import dataclasses
import json
import os

import numpy as np
import pytest

import depcomp as dc
from depcomp.io import (
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


def reference_csv(records) -> str:
    """The sample-file format written one record at a time."""
    lines = ["t," + ",".join(f"y{k}" for k in range(1, records.shape[1] + 1))]
    for t, row in enumerate(records.tolist(), start=1):
        lines.append(",".join(str(v) for v in [t] + row))
    return "\n".join(lines) + "\n"


# (L, L', K, n): one channel, one record, two-digit symbols, a whole number
# of the writer's 4096-row chunks, more than 2^15 records.
SAMPLE_SHAPES = [(2, 3, 1, 50), (2, 2, 3, 1), (2, 12, 3, 400), (2, 2, 2, 2**13), (2, 2, 2, 2**15 + 3)]


def sampled_batch(L, Lp, K, n):
    return dc.sample_dcs(dc.random_system(L, Lp, K, 8), n, seed=2)


class TestSampleFile:
    def test_format(self, tmp_path):
        batch = dc.SampleBatch(3, np.array([[1, 3], [2, 1]]))
        path = tmp_path / "samples.csv"
        save_samples(path, batch)
        assert path.read_text() == "t,y1,y2\n1,1,3\n2,2,1\n"
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

    def test_config_keys_are_the_config_fields(self):
        q = dc.output_distribution(dc.random_system(2, 2, 3, 23))
        cfg = dc.InversionConfig(L=2, objective="kl", restarts=2, max_iters=30, seed=5)
        doc = result_document(dc.recover_system(q, cfg), cfg)
        assert list(doc["config"]) == [f.name for f in dataclasses.fields(dc.InversionConfig)]
        assert doc["config"] == dataclasses.asdict(cfg)
