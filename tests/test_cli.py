import csv
import hashlib
import json
import os

import pytest

import qtbench.engine as engine
from qtbench.cli import main


def canonical_raw(path):
    """Raw-file bytes with the wall-clock fields zeroed (they are the only
    run-to-run nondeterminism)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            row["t_protocol_s"] = 0.0
            row["t_estimator_s"] = 0.0
            rows.append(json.dumps(row))
    return "\n".join(rows)


def run_analyze(out, method="fmub+ppi", test="rps", grid="200,400", runs=4,
                seed=5, extra=()):
    return main(["analyze", "--dims", "2,2", "--test", test,
                 "--method", method, "--grid", grid, "--runs", str(runs),
                 "--seed", str(seed), "--out", str(out), *extra])


class TestLowerboundCommand:
    @pytest.mark.parametrize("dims,test,expected", [
        ("2,2", "rps", 6296), ("2,2", "rnp", 31245), ("2", "rps", 2996)])
    def test_prints_table_values(self, capsys, dims, test, expected):
        assert main(["lowerbound", "--dims", dims, "--test", test,
                     "--fb", "0.999"]) == 0
        out = capsys.readouterr().out
        n_b = float(out.split("N_B=")[1].split()[0])
        assert round(n_b) == expected

    def test_bad_dims_exit_2(self, capsys):
        assert main(["lowerbound", "--dims", "x", "--test", "rps"]) == 2


class TestAnalyzeCommand:
    def test_writes_expected_line_count(self, tmp_path):
        assert run_analyze(tmp_path) == 0
        path = tmp_path / "raw_rps_fmub-ppi.jsonl"
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8  # 2 grid points x 4 runs
        row = json.loads(lines[0])
        assert row["test"] == "rps"
        assert row["protocol"] == "fmub"
        assert row["M"] == 9

    def test_rerun_is_byte_identical_outside_times(self, tmp_path):
        run_analyze(tmp_path / "a")
        run_analyze(tmp_path / "b")
        assert canonical_raw(tmp_path / "a" / "raw_rps_fmub-ppi.jsonl") == \
            canonical_raw(tmp_path / "b" / "raw_rps_fmub-ppi.jsonl")

    def test_trml_rank_recorded(self, tmp_path):
        assert run_analyze(tmp_path, method="fmub+trml:1") == 0
        path = tmp_path / "raw_rps_fmub-trml1.jsonl"
        row = json.loads(path.read_text().splitlines()[0])
        assert row["estimator"] == "trml:1"

    def test_invalid_method_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_analyze(out, method="bogus+ppi") == 2
        assert not out.exists() or not list(out.iterdir())
        # eight FO product bases (800 copies on 2,2) cannot be
        # informationally complete, so every run would fail
        assert run_analyze(out, method="fo+ppi", grid="300,400") == 2
        assert "below 801" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())
        # noisy preparation is defined on qubit registers only
        assert run_analyze(out, method="mub+ppi", test="rnp",
                           extra=("--dims", "3")) == 2
        assert "qubit registers" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_infinite_grid_value_exits_2_without_output(self, tmp_path,
                                                        capsys):
        out = tmp_path / "x"
        assert run_analyze(out, grid="100,inf") == 2
        assert "invalid grid" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_test_exits_2(self, tmp_path):
        assert run_analyze(tmp_path, test="nope") == 2

    def test_all_failed_runs_exit_1(self, tmp_path, monkeypatch, capsys):
        def fake_run(config, n_total, run_index):
            failed = run_index % 2 == 0
            return engine.RunResult(
                n_total=n_total, fidelity=float("nan") if failed else 0.9,
                bases_count=9, t_protocol=0.0, t_estimator=0.0,
                run_index=run_index, seed=0, failed=failed,
                error="ValueError: boom" if failed else None,
                converged=None if failed else run_index != 1)

        monkeypatch.setattr(engine, "run_experiment", fake_run)
        assert run_analyze(tmp_path) == 1
        err = capsys.readouterr().err
        assert "N=200: 4 runs, 2 failed, 1 unconverged," in err
        assert "campaign failed" in err

    def test_config_file_with_flag_precedence(self, tmp_path):
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text(
            "# campaign manifest\n"
            "dims=2,2\ntest=rps\nmethod=fmub+ppi\ngrid=200,400\n"
            "runs=4\nseed=999\n")
        assert main(["analyze", "--config", str(manifest), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        # seed 5 from the flag must override seed 999 from the file
        row = json.loads((tmp_path / "raw_rps_fmub-ppi.jsonl")
                         .read_text().splitlines()[0])
        ref = tmp_path / "ref"
        run_analyze(ref, seed=5)
        ref_row = json.loads((ref / "raw_rps_fmub-ppi.jsonl")
                             .read_text().splitlines()[0])
        assert row["seed"] == ref_row["seed"]


class TestReportCommand:
    def make_raw(self, tmp_path, methods=("fmub+ppi", "fmub+trml:1")):
        paths = []
        for m in methods:
            run_analyze(tmp_path, method=m, grid="1000,10000", runs=30)
            name = "raw_rps_" + m.replace("+", "-").replace(":", "") + ".jsonl"
            paths.append(str(tmp_path / name))
        return paths

    def test_report_outputs(self, tmp_path, capsys):
        paths = self.make_raw(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", *paths, "--fb", "0.999", "--out", str(out)]) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == \
            ["lower_bound", "fmub+ppi", "fmub+trml:1"]
        assert round(float(rows[0]["N_B"])) == 6296
        assert rows[0]["eta"] == "1.0"
        data = json.loads((out / "report.json").read_text())
        assert data[0]["method"] == "lower_bound"
        assert (out / "curve_fmub-ppi.csv").exists()
        assert (out / "curve_fmub-trml1.csv").exists()

    def test_duplicate_method_rejected(self, tmp_path):
        paths = self.make_raw(tmp_path, methods=("fmub+ppi",))
        assert main(["report", paths[0], paths[0], "--out",
                     str(tmp_path / "rep")]) == 2

    def test_mixed_campaigns_rejected(self, tmp_path):
        p1 = self.make_raw(tmp_path, methods=("fmub+ppi",))[0]
        run_analyze(tmp_path, test="rnp", method="fmub+frml", grid="200,400")
        p2 = str(tmp_path / "raw_rnp_fmub-frml.jsonl")
        assert main(["report", p1, p2, "--out", str(tmp_path / "rep")]) == 2

    def test_malformed_record_exits_2_without_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        out = tmp_path / "rep"
        for record in ("{}", "[]", "not json"):
            raw.write_text(record + "\n")
            assert main(["report", str(raw), "--out", str(out)]) == 2
            assert f"{raw}:1: malformed raw record" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path)]) == 2


class TestPinnedReport:
    # sha256 over name and bytes of report.csv, report.json, each curve CSV
    # and stdout of `qtbench report --fb 0.999` on the raw files below, whose
    # fidelities and times are functions of (N, run index) only
    PINNED_DIGEST = \
        "5d70a6f0fe452e7e2809fa38bc656e92d2e193a41c7f812c79d292f787673245"
    # method -> (infidelity scale, runs per sample size); fmub+ppi crosses
    # the target between 10^3 and 3*10^3, where it has 3 runs (outlier ratio
    # None); fmub+trml:1 crosses it between 10^3 and 10^4 and has one failed
    # run; fmub+arml lies below it (extrapolated back from the first
    # segment) and sgqt above it (extrapolated on from the last)
    CAMPAIGNS = {"fmub+ppi": (1.0, {1000: 6, 3000: 3, 10_000: 6}),
                 "fmub+trml:1": (0.5, {1000: 6, 10_000: 7}),
                 "fmub+arml": (0.01, {1000: 6, 10_000: 6}),
                 "sgqt": (50.0, {1000: 5, 10_000: 5})}

    @staticmethod
    def raw_row(protocol, estimator, n, run, scale, failed):
        factor = 1 + ((run * 7) % 10) / 5 + (9.0 if run == 5 else 0.0)
        return {"test": "rps", "dims": [2, 2], "protocol": protocol,
                "estimator": estimator, "N": n, "run": run, "seed": run,
                "fidelity": None if failed else 1 - scale * factor / n,
                "M": 0 if failed else 9 + run % 3,
                "t_protocol_s": 0.0 if failed else (run + 1) * n * 1e-8,
                "t_estimator_s": 0.0 if failed else (run + 2) * 1e-3,
                "failed": failed, "converged": None if failed else True,
                "iterations": None if failed else run + 1, "rank_used": None,
                "error": "ValueError: boom" if failed else None}

    def test_report_bytes_match_pinned_digest(self, tmp_path, capsys):
        paths = []
        for method, (scale, runs) in self.CAMPAIGNS.items():
            protocol, _, estimator = method.partition("+")
            lines = [json.dumps(self.raw_row(protocol, estimator or None, n,
                                             run, scale, run == 6))
                     for n, k in runs.items() for run in range(k)]
            path = tmp_path / f"raw_{len(paths)}.jsonl"
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        out = tmp_path / "rep"
        assert main(["report", *paths, "--fb", "0.999", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        h = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            h.update(name.encode() + (out / name).read_bytes())
        h.update(stdout.encode())
        assert h.hexdigest() == self.PINNED_DIGEST


class TestRoundTripMatrix:
    @pytest.mark.parametrize("test", ["rps", "rmspt2", "rmsptd", "rnp"])
    def test_every_test_kind(self, tmp_path, test):
        assert run_analyze(tmp_path, test=test) == 0
        name = f"raw_{test}_fmub-ppi.jsonl"
        assert main(["report", str(tmp_path / name),
                     "--out", str(tmp_path / "rep")]) in (0, 2)

    @pytest.mark.parametrize("method", [
        "mub+frml", "fmub+frml", "pauli+frml", "amub+frml", "fo+frml",
        "fomub+frml", "sgqt", "fmub+arml", "fmub+frls"])
    def test_every_method(self, tmp_path, method):
        assert run_analyze(tmp_path, method=method, grid="1000,2000") == 0
        name = "raw_rps_" + method.replace("+", "-").replace(":", "") + ".jsonl"
        rep = main(["report", str(tmp_path / name), "--out",
                    str(tmp_path / "rep")])
        assert rep in (0, 2)  # tiny grids may not cross the target


class TestConfigKeys:
    @pytest.mark.parametrize("line", ["sgqt.shots=250", "run=3"])
    def test_unknown_key_exits_2_without_output(self, tmp_path, capsys, line):
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text("dims=2\ntest=rps\nmethod=sgqt\ngrid=1000,2000\n"
                            f"seed=1\n{line}\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(manifest),
                     "--out", str(out)]) == 2
        assert f"{manifest}:6: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["1", "1,2", "2,0"])
    def test_subsystem_below_two_exits_2_without_output(self, tmp_path,
                                                        capsys, dims):
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text(f"dims={dims}\ntest=rps\nmethod=fo+ppi\n")
        out = tmp_path / "out"
        for argv in (["--config", str(manifest)],
                     ["--dims", dims, "--test", "rps", "--method", "fo+ppi"]):
            assert main(["analyze", *argv, "--out", str(out)]) == 2
            assert "every subsystem dimension must be >= 2" in \
                capsys.readouterr().err
            assert not out.exists()
        assert main(["lowerbound", "--dims", dims, "--test", "rps"]) == 2

    @pytest.mark.parametrize("grid", ["1500.5,1e4", "200,400.25"])
    def test_fractional_sample_size_exits_2_without_output(
            self, tmp_path, capsys, grid):
        # a fraction is rejected, not truncated, from the flag and the
        # manifest alike
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text(
            f"dims=2,2\ntest=rps\nmethod=fmub+ppi\ngrid={grid}\n")
        out = tmp_path / "out"
        for argv in (["--config", str(manifest)],
                     ["--dims", "2,2", "--test", "rps", "--method",
                      "fmub+ppi", "--grid", grid]):
            assert main(["analyze", *argv, "--runs", "2",
                         "--out", str(out)]) == 2
            assert "invalid grid" in capsys.readouterr().err
            assert not out.exists()

    def test_exponent_form_sample_size_is_accepted(self, tmp_path):
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text("dims=2\ntest=rps\nmethod=sgqt\ngrid=2e2,4E2\n"
                            "runs=2\n")
        assert main(["analyze", "--config", str(manifest),
                     "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "raw_rps_sgqt.jsonl").read_text().splitlines()]
        assert [r["N"] for r in rows] == [200, 200, 400, 400]

    def test_known_keys_configure_the_campaign(self, tmp_path):
        manifest = tmp_path / "campaign.cfg"
        manifest.write_text("# a comment\ndims=2\ntest=rps\nmethod=sgqt\n"
                            "fb=0.99\ngrid=200,400\nruns=3\nseed=1\n")
        assert main(["analyze", "--config", str(manifest),
                     "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "raw_rps_sgqt.jsonl").read_text().splitlines()]
        assert [(r["N"], r["run"]) for r in rows] == \
            [(n, run) for n in (200, 400) for run in range(3)]


class TestWorkersFlag:
    def test_two_workers_write_the_same_raw_file(self, tmp_path):
        assert run_analyze(tmp_path, extra=("--workers", "2")) == 0
        ref = tmp_path / "ref"
        assert run_analyze(ref) == 0
        assert canonical_raw(tmp_path / "raw_rps_fmub-ppi.jsonl") == \
            canonical_raw(ref / "raw_rps_fmub-ppi.jsonl")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_exits_2_without_output(
            self, tmp_path, capsys, workers):
        out = tmp_path / "x"
        assert run_analyze(out, extra=("--workers", workers)) == 2
        assert "at least one worker" in capsys.readouterr().err
        assert not out.exists()
