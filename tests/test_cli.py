import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import depcomp as dc
import depcomp.verify as verify
from depcomp.cli import main
from depcomp.core import free_parameters
from depcomp.io import load_result, load_samples, load_system, load_tensor, save_system, save_tensor


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_module(*args, timeout):
    """Run ``python -m depcomp.cli`` in a child process, killed after ``timeout`` s."""
    src = str(Path(dc.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "depcomp.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestUsageErrors:
    def test_no_command(self):
        assert run_cli()[0] == 64

    def test_unknown_flag(self):
        assert run_cli("gen", "--bogus")[0] == 64

    def test_missing_required_flag(self):
        assert run_cli("gen", "--L", "2")[0] == 64

    def test_invert_requires_exactly_one_source(self):
        assert run_cli("invert", "--L", "2")[0] == 64
        assert (
            run_cli("invert", "--q", "a.json", "--samples", "b.csv", "--L", "2")[0]
            == 64
        )

    def test_unknown_suite(self):
        assert run_cli("verify", "--suite", "nope")[0] == 64

    @pytest.mark.parametrize("kind", ["l1", "kl", "l2sq"])
    def test_removed_objective_is_not_offered(self, kind):
        assert run_cli("invert", "--q", "a.json", "--L", "2", "--objective", kind)[0] == 64

    def test_lprime_applies_only_to_samples(self):
        code, out, err = run_cli("invert", "--q", "a.json", "--L", "2", "--Lprime", "7")
        assert (code, out) == (64, "")
        assert "--Lprime applies only to --samples" in err


class TestGen:
    def test_writes_valid_descending_system(self, tmp_path):
        path = tmp_path / "system.json"
        code, out, _ = run_cli("gen", "--L", "2", "--K", "3", "--seed", "1", "--out", str(path))
        assert code == 0
        assert "L=2" in out
        sys_ = load_system(path)
        assert np.all(np.diff(sys_.p.probs) < 0.0)
        assert sys_.num_channels == 3
        assert all(dc.channel_invertible(w) for w in sys_.channels)

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--L", "3", "--K", "3", "--seed", "9", "--out", str(a))
        run_cli("gen", "--L", "3", "--K", "3", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rectangular_channels_have_distinct_columns(self, tmp_path):
        path = tmp_path / "system.json"
        assert run_cli("gen", "--L", "3", "--Lprime", "2", "--K", "3", "--seed", "7", "--out", str(path))[0] == 0
        sys_ = load_system(path)
        for w in sys_.channels:
            assert (w.outputs, w.inputs) == (2, 3)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.abs(w.entries[:, i] - w.entries[:, j]).sum() > 1e-3

    def test_invalid_sizes_exit_2(self, tmp_path):
        code, _, err = run_cli("gen", "--L", "0", "--K", "3", "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert "error" in err

    def test_single_output_symbol_exits_2(self, tmp_path):
        # One output symbol cannot give a channel distinct columns.
        path = tmp_path / "s.json"
        code, _, err = run_cli("gen", "--L", "3", "--Lprime", "1", "--K", "2", "--out", str(path))
        assert code == 2
        assert "output symbol" in err
        assert not path.exists()

    def test_unmeetable_column_gap_exits_2(self, tmp_path):
        # 200 distinct binary columns 1e-3 apart are possible but the
        # rejection loop never draws them; that is bad input, not a crash.
        path = tmp_path / "s.json"
        code, _, err = run_cli("gen", "--L", "200", "--Lprime", "2", "--K", "1", "--out", str(path))
        assert code == 2
        assert "1000 draws" in err
        assert not path.exists()

    def test_oversized_alphabet_exits_2(self, tmp_path):
        path = tmp_path / "s.json"
        start = time.perf_counter()
        code, _, err = run_cli("gen", "--L", "1000000", "--K", "3", "--out", str(path))
        assert code == 2
        assert "the channel stack needs 3000000000000 dense cells" in err
        assert time.perf_counter() - start < 1.0
        assert not path.exists()

    def test_oversized_channel_count_exits_2(self, tmp_path):
        # Unguarded, the channel loop runs without bound; the child process
        # is killed if it outlives the timeout.
        path = tmp_path / "s.json"
        proc = run_module("gen", "--L", "2", "--K", "1000000000000", "--out", str(path), timeout=2)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "the channel stack needs 4000000000000 dense cells" in proc.stderr
        assert not path.exists()


class TestSimulateEstimate:
    @pytest.fixture()
    def system_path(self, tmp_path):
        path = tmp_path / "system.json"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "2", "--out", str(path))
        return path

    def test_simulate_row_count_and_determinism(self, tmp_path, system_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--system", str(system_path), "--n", "1000", "--seed", "5", "--out", str(a))[0] == 0
        assert load_samples(a).n == 1000
        run_cli("simulate", "--system", str(system_path), "--n", "1000", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_oversized_sample_exits_2(self, tmp_path, system_path):
        out = tmp_path / "samples.csv"
        start = time.perf_counter()
        code, _, err = run_cli("simulate", "--system", str(system_path), "--n", "1000000000000", "--out", str(out))
        assert code == 2
        assert "sampling 1000000000000 records needs 3000000000000 dense cells" in err
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    def test_estimate_oversized_table_exits_2(self, tmp_path):
        samples = tmp_path / "wide.csv"
        header = "t," + ",".join(f"y{k}" for k in range(1, 41))
        samples.write_text(header + "\n1," + ",".join(["1", "2"] * 20) + "\n")
        code, _, err = run_cli("estimate", "--samples", str(samples), "--out", str(tmp_path / "q.json"))
        assert code == 2
        assert "dense cells" in err

    def test_estimate_out_of_range_symbol_exits_2(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("t,y1,y2,y3\n1,1,2,1\n2,99999999999999999999,1,2\n")
        code, _, err = run_cli("estimate", "--samples", str(samples), "--out", str(tmp_path / "q.json"))
        assert code == 2
        assert "row 2 has a field that is not a 64-bit integer" in err

    def test_estimate_without_records_exits_2(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("t,y1,y2,y3\n")
        for extra in ([], ["--Lprime", "2"]):
            code, _, err = run_cli("estimate", "--samples", str(samples), "--out", str(tmp_path / "q.json"), *extra)
            assert code == 2
            assert err == "error: sample file: no records\n"

    def test_simulate_missing_system_exits_2(self, tmp_path):
        code, _, err = run_cli("simulate", "--system", str(tmp_path / "no.json"), "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error" in err

    def test_estimate_matches_type_counts(self, tmp_path, system_path):
        samples = tmp_path / "samples.csv"
        q_path = tmp_path / "q.json"
        run_cli("simulate", "--system", str(system_path), "--n", "500", "--seed", "3", "--out", str(samples))
        assert run_cli("estimate", "--samples", str(samples), "--out", str(q_path))[0] == 0
        q = load_tensor(q_path)
        batch = load_samples(samples, output_size=2)
        want = dc.ml_estimate(dc.type_counts(batch))
        assert q.shape == want.shape
        np.testing.assert_array_equal(q.values, want.values)
        assert q.n == 500

    def test_calls_in_a_row_do_not_share_flags(self, tmp_path, system_path):
        # main parses with one parser per process; a flag given to one call
        # must not carry over to the next call that omits it.
        samples = tmp_path / "samples.csv"
        run_cli("simulate", "--system", str(system_path), "--n", "200", "--seed", "3", "--out", str(samples))
        wide, plain = tmp_path / "wide.json", tmp_path / "plain.json"
        assert run_cli("estimate", "--samples", str(samples), "--Lprime", "3", "--out", str(wide))[0] == 0
        assert run_cli("estimate", "--samples", str(samples), "--out", str(plain))[0] == 0
        assert load_tensor(wide).shape == (3, 3, 3)
        assert load_tensor(plain).shape == (2, 2, 2)


class TestInvert:
    def test_exact_law_reaches_floor(self, tmp_path):
        sys_path = tmp_path / "system.json"
        q_path = tmp_path / "q.json"
        fit_path = tmp_path / "fit.json"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "4", "--out", str(sys_path))
        truth = load_system(sys_path)
        save_tensor(q_path, dc.output_distribution(truth))
        code, out, _ = run_cli(
            "invert", "--q", str(q_path), "--L", "2", "--restarts", "32",
            "--seed", "0", "--out", str(fit_path),
        )
        assert code == 0
        doc = load_result(fit_path)
        assert doc["objective"]["value"] < 1e-9
        p_hat = np.array(doc["p_hat"])
        assert np.abs(p_hat - truth.p.probs).sum() <= 1e-3

    def test_samples_source(self, tmp_path):
        sys_path = tmp_path / "system.json"
        samples = tmp_path / "samples.csv"
        fit_path = tmp_path / "fit.json"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "6", "--out", str(sys_path))
        run_cli("simulate", "--system", str(sys_path), "--n", "5000", "--seed", "1", "--out", str(samples))
        code, _, _ = run_cli(
            "invert", "--samples", str(samples), "--L", "2", "--restarts", "4",
            "--seed", "0", "--out", str(fit_path),
        )
        assert code == 0
        doc = load_result(fit_path)
        assert set(np.array(doc["p_hat"]).shape) == {2}
        assert doc["target"]["n"] == 5000

    def test_objective_kind_follows_the_target(self, tmp_path):
        # An estimated tensor carries n and is fit by likelihood; a tensor
        # saved from output_distribution has no n and is fit by l2sq.  The
        # result document and the summary line name the same kind.
        sys_path, samples = tmp_path / "system.json", tmp_path / "samples.csv"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "6", "--out", str(sys_path))
        run_cli("simulate", "--system", str(sys_path), "--n", "2000", "--seed", "1", "--out", str(samples))
        estimated, exact = tmp_path / "q.json", tmp_path / "exact.json"
        run_cli("estimate", "--samples", str(samples), "--out", str(estimated))
        save_tensor(exact, dc.output_distribution(load_system(sys_path)))
        for q_path, kind in [(estimated, "likelihood"), (exact, "l2sq")]:
            fit_path = tmp_path / f"fit_{kind}.json"
            code, out, _ = run_cli(
                "invert", "--q", str(q_path), "--L", "2", "--restarts", "4", "--seed", "0", "--out", str(fit_path),
            )
            assert code == 0
            doc = load_result(fit_path)
            assert doc["objective"]["kind"] == kind
            assert out.startswith(f"objective {kind}={doc['objective']['value']:.6e} ")
            assert doc["config"]["objective"] == "l2sq"

    def test_stdout_mode_prints_document(self, tmp_path):
        sys_path = tmp_path / "system.json"
        samples = tmp_path / "samples.csv"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "6", "--out", str(sys_path))
        run_cli("simulate", "--system", str(sys_path), "--n", "200", "--seed", "1", "--out", str(samples))
        code, out, _ = run_cli("invert", "--samples", str(samples), "--L", "2", "--restarts", "2", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert "p_hat" in doc and "restart_log" in doc

    def test_no_tol_flag(self, tmp_path):
        q_path = tmp_path / "q.json"
        save_tensor(q_path, dc.output_distribution(dc.random_system(2, 2, 3, 1)))
        code, out, _ = run_cli(
            "invert", "--q", str(q_path), "--L", "2", "--restarts", "1", "--max-iters", "1",
            "--tol", "1e-8",
        )
        assert (code, out) == (64, "")

    def test_oversized_fit_exits_2(self, tmp_path):
        q_path = tmp_path / "q.json"
        save_tensor(q_path, dc.output_distribution(dc.random_system(2, 2, 3, 1)))
        code, out, err = run_cli("invert", "--q", str(q_path), "--L", "1000000000000")
        assert (code, out) == (2, "")
        assert "the solver's fit needs 8000000000000 dense cells" in err


class TestCheck:
    @pytest.fixture()
    def rect_path(self, tmp_path):
        # Three-symbol hidden alphabet squeezed through binary outputs.
        w1 = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        rng = np.random.default_rng(3)
        sys_ = dc.DCSystem(
            dc.Distribution(np.array([0.5, 0.3, 0.2])),
            (w1, dc.random_channel(rng, 2, 3), dc.random_channel(rng, 2, 3)),
        )
        path = tmp_path / "rect.json"
        save_system(path, sys_)
        return path

    def test_activation(self, rect_path):
        code, out, _ = run_cli("check", "activation", "--system", str(rect_path), "--Kmax", "4")
        assert code == 0
        assert "channel 1: separates all hidden symbols at K=2" in out

    def test_kernels(self, rect_path, tmp_path):
        code, out, _ = run_cli("check", "kernels", "--system", str(rect_path))
        assert code == 0
        assert "differing kernels" in out
        square = tmp_path / "square.json"
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "1", "--out", str(square))
        assert "share one kernel" in run_cli("check", "kernels", "--system", str(square))[1]
        single = tmp_path / "single.json"
        run_cli("gen", "--L", "2", "--K", "1", "--seed", "1", "--out", str(single))
        code, _, err = run_cli("check", "kernels", "--system", str(single))
        assert code == 2
        assert "at least two channels" in err

    def test_fork(self, rect_path):
        code, out, _ = run_cli("check", "fork", "--system", str(rect_path))
        assert code == 0
        assert "independent given the hidden symbol" in out

    def test_params(self):
        code, out, _ = run_cli("check", "params", "--L", "2", "--K", "3")
        assert code == 0
        assert out == "free cells 7 >= free parameters 7: feasible\n"
        code, out, _ = run_cli("check", "params", "--L", "2", "--K", "2")
        assert code == 0
        assert "infeasible" in out

    def test_params_huge_L(self):
        # The free-parameter count (L - 1) + K L (L - 1) has about 5000 digits here.
        L = "9" * 2500
        start = time.perf_counter()
        code, out, err = run_cli("check", "params", "--L", L, "--K", "1")
        assert (code, err) == (0, "")
        assert out.endswith(f"< free parameters ({L}-1)+1*{L}*({L}-1): infeasible\n")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("what", ["activation", "kernels", "fork"])
    def test_no_tol_flag(self, rect_path, what):
        assert run_cli("check", what, "--system", str(rect_path), "--tol", "1e-9")[0] == 64

    def test_params_large_K(self):
        for K in ("5000", "1000000000000"):
            start = time.perf_counter()
            code, out, err = run_cli("check", "params", "--L", "10", "--K", K)
            assert (code, err) == (0, "")
            assert out == f"free cells 10^{K}-1 >= free parameters {9 + int(K) * 90}: feasible\n"
            assert time.perf_counter() - start < 1.0

    def test_params_verdict_counts_free_cells(self):
        for L in range(2, 13):
            for K in range(1, 41):
                code, out, _ = run_cli("check", "params", "--L", str(L), "--K", str(K))
                feasible = L**K - 1 >= free_parameters(L, L, K)
                assert code == 0
                assert out.endswith(": feasible\n" if feasible else ": infeasible\n"), (L, K)

    def test_activation_oversized_power_exits_2(self, tmp_path):
        # Columns on the segment between u and v: the K-th power has rank
        # K + 1 < 20, so the check reaches K = 3, whose 512^3 * 20 cells
        # are refused before they are allocated.
        u, v = np.random.default_rng(0).dirichlet(np.ones(512), size=2)
        a = np.linspace(0.02, 0.98, 20)
        segment = dc.Channel(np.outer(u, 1 - a) + np.outer(v, a))
        sys_ = dc.DCSystem(dc.Distribution(np.full(20, 0.05)), (segment,))
        path = tmp_path / "wide.json"
        save_system(path, sys_)
        start = time.perf_counter()
        code, _, err = run_cli("check", "activation", "--system", str(path), "--Kmax", "5")
        assert code == 2
        assert "the 3-fold column power needs 2684354560 dense cells" in err
        assert time.perf_counter() - start < 1.0

    def test_fork_oversized_law_exits_2(self, tmp_path):
        path = tmp_path / "system.json"
        assert run_cli("gen", "--L", "4", "--K", "15", "--seed", "1", "--out", str(path))[0] == 0
        start = time.perf_counter()
        code, _, err = run_cli("check", "fork", "--system", str(path))
        assert code == 2
        assert "the joint law of cause and outputs needs 4294967296 dense cells" in err
        assert time.perf_counter() - start < 1.0

    def test_mi(self, rect_path):
        code, out, _ = run_cli("check", "mi", "--system", str(rect_path))
        assert code == 0
        assert "pairwise dependence matrix" in out
        assert len([ln for ln in out.splitlines() if ln.startswith("    ")]) == 3


class TestNonNumericCells:
    """Document cells must be JSON numbers; anything else exits 2 naming the file kind."""

    @pytest.fixture()
    def system_doc(self, tmp_path):
        path = tmp_path / "system.json"
        assert run_cli("gen", "--L", "2", "--K", "3", "--seed", "1", "--out", str(path))[0] == 0
        return json.loads(path.read_text())

    def run_with(self, tmp_path, doc, *args):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run_cli(*args, str(path))

    def check_fork(self, tmp_path, doc):
        return self.run_with(tmp_path, doc, "check", "fork", "--system")

    def invert(self, tmp_path, doc, L):
        return self.run_with(tmp_path, doc, "invert", "--L", str(L), "--restarts", "1", "--q")

    def test_object_cell_exits_2(self, tmp_path, system_doc):
        values = [{"x": 0}] + [1 / 7] * 7
        code, out, err = self.invert(tmp_path, {"shape": [2, 2, 2], "values": values}, 2)
        assert (code, out) == (2, "") and "tensor file: values" in err
        system_doc["channels"][0][0][0] = {"x": 0}
        code, out, err = self.check_fork(tmp_path, system_doc)
        assert (code, out) == (2, "") and "system file: each row of channel 1" in err

    def test_string_cell_exits_2(self, tmp_path, system_doc):
        code, out, err = self.invert(tmp_path, {"shape": [2, 2, 2], "values": ["0.125"] * 8}, 2)
        assert (code, out) == (2, "") and "tensor file: values" in err
        system_doc["p"] = ["0.5", "0.5"]
        code, out, err = self.check_fork(tmp_path, system_doc)
        assert (code, out) == (2, "") and "system file: p" in err

    def test_huge_integer_cell_exits_2(self, tmp_path, system_doc):
        # 10**400 is a valid JSON integer beyond the float64 range.
        code, out, err = self.invert(tmp_path, {"shape": [2, 2, 2], "values": [10**400] + [0] * 7}, 2)
        assert (code, out) == (2, "") and "tensor file: values" in err
        cell, system_doc["channels"][0][0][0] = system_doc["channels"][0][0][0], 10**400
        code, out, err = self.check_fork(tmp_path, system_doc)
        assert (code, out) == (2, "") and "system file: each row of channel 1" in err
        system_doc["channels"][0][0][0] = cell
        system_doc["p"] = [10**400, 0]
        sim_out = str(tmp_path / "s.csv")
        code, out, err = self.run_with(tmp_path, system_doc, "simulate", "--n", "5", "--out", sim_out, "--system")
        assert (code, out) == (2, "") and "system file: p" in err

    def test_boolean_cell_exits_2(self, tmp_path, system_doc):
        code, out, err = self.invert(tmp_path, {"shape": [True] * 3, "values": [1.0]}, 1)
        assert (code, out) == (2, "") and "tensor file: shape" in err
        system_doc["p"] = [True, False]
        code, out, err = self.check_fork(tmp_path, system_doc)
        assert (code, out) == (2, "") and "system file: p" in err


class TestTensorSampleSize:
    @pytest.mark.parametrize(
        "n", ["true", "2000.0", '"2000"', "0", "-5", "null", pytest.param(str(10**400), id="10**400")]
    )
    def test_invert_refuses_a_bad_n(self, tmp_path, n):
        q_path = tmp_path / "q.json"
        q_path.write_text(f'{{"shape": [2, 2, 2], "values": [{", ".join(["0.125"] * 8)}], "n": {n}}}')
        code, out, err = run_cli("invert", "--q", str(q_path), "--L", "2", "--restarts", "1", "--max-iters", "1")
        assert (code, out) == (2, "")
        assert err == "error: tensor file: n must be a positive integer below 2**63\n"

    def test_invert_reports_a_good_n(self, tmp_path):
        q_path = tmp_path / "q.json"
        q_path.write_text(f'{{"shape": [2, 2, 2], "values": [{", ".join(["0.125"] * 8)}], "n": 8}}')
        code, out, _ = run_cli("invert", "--q", str(q_path), "--L", "2", "--restarts", "1", "--max-iters", "1")
        assert code == 0
        assert json.loads(out)["target"]["n"] == 8


class TestDeeplyNestedJson:
    """A document nested past the parser's recursion limit exits 2, not in a traceback."""

    @pytest.fixture()
    def deep_path(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        return str(path)

    def test_invert_q_exits_2(self, deep_path):
        proc = run_module("invert", "--q", deep_path, "--L", "2", timeout=60)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "tensor file: JSON nested too deeply" in proc.stderr

    def test_simulate_system_exits_2(self, deep_path, tmp_path):
        out = str(tmp_path / "s.csv")
        proc = run_module("simulate", "--system", deep_path, "--n", "5", "--out", out, timeout=60)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "system file: JSON nested too deeply" in proc.stderr


class TestVerify:
    def test_single_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "gap", "--seed", "1")
        assert code == 0
        assert "PASS" in out

    def test_module_entry_point_runs(self):
        # `python -m depcomp.cli` must run the verb, not just import the module.
        proc = run_module("verify", "--suite", "gap", "--seed", "1", timeout=120)
        assert proc.returncode == 0
        assert "suite gap: PASS" in proc.stdout

    def test_fault_injection_exits_3(self, monkeypatch):
        monkeypatch.setattr(verify, "_FAULT", "gap")
        code, out, _ = run_cli("verify", "--suite", "gap")
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize("name", verify.SUITE_NAMES)
    def test_every_suite_fails_under_its_fault(self, name, monkeypatch):
        monkeypatch.setattr(verify, "_FAULT", name)
        assert run_cli("verify", "--suite", name)[0] == 3


def test_full_pipeline_determinism(tmp_path):
    # gen -> simulate -> estimate -> invert twice: byte-identical results.
    results = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        run_cli("gen", "--L", "2", "--K", "3", "--seed", "11", "--out", str(d / "sys.json"))
        run_cli("simulate", "--system", str(d / "sys.json"), "--n", "2000", "--seed", "12", "--out", str(d / "samples.csv"))
        run_cli("estimate", "--samples", str(d / "samples.csv"), "--out", str(d / "q.json"))
        run_cli("invert", "--q", str(d / "q.json"), "--L", "2", "--restarts", "4", "--seed", "13", "--out", str(d / "fit.json"))
        results.append((d / "fit.json").read_bytes())
    assert results[0] == results[1]
