"""Command line surface: run, summarize, instance, check, seed parsing."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mnl_bandit.cli import main, parse_seeds
from mnl_bandit.harness import CSV_HEADER, S_MAX, ExperimentConfig, run_experiment, summarize_runs
from mnl_bandit.policy import PolicyKind

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


class TestParseSeeds:
    def test_range_inclusive(self):
        assert parse_seeds("3..6") == [3, 4, 5, 6]

    def test_list(self):
        assert parse_seeds("1,5,9") == [1, 5, 9]

    def test_single(self):
        assert parse_seeds("4") == [4]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("5..2")


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "d": 2, "N": 3, "K": 2, "T": 12,
        "policy": "cb_mnl_e", "refine_top": 0, "n_dirs": 4, "restarts": 1,
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_run_writes_csv_and_metadata(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        rc = main([
            "run", "--config", str(config_file), "--seeds", "0..1",
            "--out", str(out), "--jobs", "1",
        ])
        assert rc == 0
        csvs = sorted(out.glob("*.csv"))
        metas = sorted(out.glob("*.json"))
        assert len(csvs) == 2 and len(metas) == 2
        first = csvs[0].read_text().splitlines()
        assert first[0] == CSV_HEADER
        assert len(first) == 13
        assert "final_mean_regret" in capsys.readouterr().out

    def test_policy_help_lists_every_policy(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        listed = " | ".join(kind.value for kind in PolicyKind)
        assert listed in " ".join(capsys.readouterr().out.split())  # as argparse wraps it

    def test_overrides_apply(self, tmp_path, config_file):
        out = tmp_path / "runs"
        rc = main([
            "run", "--config", str(config_file), "--seeds", "3",
            "--policy", "random", "--T", "7", "--out", str(out),
        ])
        assert rc == 0
        meta = json.loads(sorted(out.glob("*.json"))[0].read_text())
        assert meta["config"]["policy"] == "random"
        assert meta["config"]["T"] == 7
        assert meta["seed"] == 3

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--T", "-3", "T"), ("--delta", "7", "delta"), ("--policy", "bogus", "policy"),
         ("--seeds", ",", "seeds"), ("--seeds", "1,1", "seeds")],
    )
    def test_invalid_override_fails_before_running(
        self, tmp_path, config_file, capsys, flag, value, field
    ):
        out = tmp_path / "runs"
        args = ["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, value])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert f"{field} must" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"d": 2, "N": 3, "K": 5, "T": 4}', "K must"),
            ('{"d": 2, "N": 3, "K": 2, "T": 4, "prices": [1.0, NaN, 1.0]}', "prices must"),
            ('{"d": 2, "N": 3, "K": 2, "T": 4, "kappa_grid": 256}', "kappa_grid is not a config field"),
            ('{"d": 2, "N": 3,', "is not valid JSON"),
            ('[2, 3]', "must hold one JSON object"),
            (None, "No such file"),
            ('{"d": 2, "N": 30, "K": 10, "T": 1, "policy": "random"}',
             "N=30 and K=10 give 53009101 assortments"),
            ('{"T": 1, "refine_top": 2}', "refine_top must be 0 or 1, got 2"),
        ],
        ids=["bad-field", "nan-price", "removed-field", "not-json", "not-object", "missing",
             "over-enumeration-guard", "refine-top-2"],
    )
    def test_bad_config_file_fails_before_running(self, tmp_path, capsys, text, problem):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("mnl-bandit: invalid config: ")
        assert problem in err
        assert not out.exists()

    @pytest.mark.parametrize("S", [700.0, 800.0])
    def test_radius_past_the_bound_fails_before_running(self, tmp_path, capsys, S):
        # At these radii, seed 0's curvature estimate would be inf, and the
        # bonus baseline would write opt_value = inf in every row.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"d": 2, "N": 5, "K": 2, "T": 15, "S": S, "S_true": S, "policy": "bonus_ucb"}
        ))
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mnl-bandit: invalid config: S must be at most {S_MAX}")
        assert f"got {S}" in err
        assert not out.exists()

    def test_price_past_the_bound_fails_before_running(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"d": 2, "N": 5, "K": 2, "T": 5, "prices": [1e308] * 5, "policy": "oracle"}
        ))
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("mnl-bandit: invalid config: prices must be at most 1e+19")
        assert "got 1e+308" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_fails_before_running(self, tmp_path, config_file, capsys, jobs):
        out = tmp_path / "runs"
        rc = main(["run", "--config", str(config_file), "--seeds", "0..1",
                   "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_a_config_past_the_enumeration_guard(self, tmp_path):
        # cb_mnl_e solves the static problem per candidate, so 53009101
        # assortments never get enumerated.
        path = tmp_path / "cfg.json"
        path.write_text('{"d": 2, "N": 30, "K": 10, "T": 1}')
        out = tmp_path / "runs"
        assert main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)]) == 0
        rows = (out / "run_cb_mnl_e_seed0.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["run", "--config", str(config_file), "--seeds", "5", "--out", str(out)])
        c1 = sorted(out1.glob("*.csv"))[0].read_bytes()
        c2 = sorted(out2.glob("*.csv"))[0].read_bytes()
        assert c1 == c2


def test_readme_config_example_builds_and_runs(tmp_path):
    # The JSON block after "A config file is JSON" in README.md: a renamed or
    # deleted field fails here until the README follows.
    example = README.read_text().split("A config file is JSON", 1)[1]
    example = example.split("```json", 1)[1].split("```", 1)[0]
    ExperimentConfig.from_dict(json.loads(example))
    path = tmp_path / "cfg.json"
    path.write_text(example)
    out = tmp_path / "runs"
    rc = main(["run", "--config", str(path), "--out", str(out), "--T", "2", "--seeds", "0"])
    assert rc == 0
    assert len(list(out.glob("*.csv"))) == 1


class TestSummarizeCommand:
    def test_aggregates_run_directory(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0..2", "--out", str(out)])
        capsys.readouterr()
        rc = main(["summarize", str(out), "--out", str(tmp_path / "summary")])
        assert rc == 0
        printed = capsys.readouterr().out
        data = json.loads((tmp_path / "summary" / "summary.json").read_text())
        assert data["n_runs"] == 3
        assert data["T"] == 12
        assert "final_mean_regret" in printed
        metas = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
        assert data["covered_C_rounds"] == [m["covered_C_rounds"] for m in metas]
        assert all(isinstance(n, int) for n in data["covered_C_rounds"])

    def test_mean_and_stderr_match_summarize_runs(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0..2", "--out", str(out)])
        cfg = json.loads(config_file.read_text())
        logs = [run_experiment(ExperimentConfig(**cfg), s) for s in range(3)]
        summary = summarize_runs(logs)
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["final_mean_regret"] == float(summary.mean_cum_regret[-1])
        assert data["final_stderr"] == float(summary.stderr_cum_regret[-1])

    # The report's keys in order: a new figure is a deliberate edit here, as a new CSV column is.
    REPORT_KEYS = [
        "n_runs", "T", "coverage_rate", "final_mean_regret", "final_stderr",
        "loglog_slope", "covered_C_rounds",
    ]

    @staticmethod
    def run_and_summarize(capsys, argv, out):
        """The JSON objects that ``run`` with ``argv`` and ``summarize`` of ``out`` print."""
        capsys.readouterr()
        assert main(["run", *argv, "--out", str(out)]) == 0
        wrote, printed = capsys.readouterr().out.split("\n", 1)
        assert wrote.startswith("wrote ") and wrote.endswith(f" runs to {out}")
        assert main(["summarize", str(out)]) == 0
        return json.loads(printed), json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("seeds", ["0..2", "0..11"])
    def test_run_prints_what_summarize_prints(self, tmp_path, config_file, capsys, seeds):
        # At 0..11 summarize reads seed 10's CSV before seed 2's, and the mean
        # moves in its last bit unless run sums the runs in that order too.
        argv = ["--config", str(config_file), "--seeds", seeds]
        ran, summarized = self.run_and_summarize(capsys, argv, tmp_path / "runs")
        assert ran == summarized
        assert list(ran) == self.REPORT_KEYS
        assert ran["n_runs"] == len(parse_seeds(seeds)) and ran["T"] == 12
        assert all(isinstance(ran[k], float) for k in self.REPORT_KEYS[2:6])

    def test_one_round_reports_a_null_slope(self, tmp_path, config_file, capsys):
        argv = ["--config", str(config_file), "--seeds", "0..1", "--T", "1"]
        ran, summarized = self.run_and_summarize(capsys, argv, tmp_path / "runs")
        assert ran == summarized
        assert ran["T"] == 1 and ran["loglog_slope"] is None
        for data in (ran, summarized):
            json.dumps(data, allow_nan=False)

    def test_csvs_without_metadata_summarize(self, tmp_path, config_file, capsys):
        # Coverage comes off the covered column; covered_C_rounds is null without a JSON.
        out = tmp_path / "runs"
        ran, _ = self.run_and_summarize(capsys, ["--config", str(config_file), "--seeds", "0..2"], out)
        for meta in out.glob("*.json"):
            meta.unlink()
        assert main(["summarize", str(out)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {**ran, "covered_C_rounds": [None, None, None]}

    def test_runs_of_different_lengths_fail(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)])
        main(["run", "--config", str(config_file), "--seeds", "1", "--T", "7", "--out", str(out)])
        capsys.readouterr()
        rc = main(["summarize", str(out), "--out", str(tmp_path / "summary")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "different lengths" in err
        assert "run_cb_mnl_e_seed0.csv (12 rounds)" in err
        assert "run_cb_mnl_e_seed1.csv (7 rounds)" in err
        assert not (tmp_path / "summary").exists()

    def test_runs_of_different_configs_fail(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)])
        main(["run", "--config", str(config_file), "--seeds", "1", "--delta", "0.05",
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["summarize", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "run_cb_mnl_e_seed1.json differs from" in err
        assert err.rstrip().endswith("in delta")

    def test_seed_lists_may_differ(self, tmp_path, config_file, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)])
        main(["run", "--config", str(config_file), "--seeds", "1..2", "--out", str(out)])
        assert main(["summarize", str(out)]) == 0

    def test_missing_directory_fails(self, tmp_path, capsys):
        rc = main(["summarize", str(tmp_path / "nope")])
        assert rc == 1

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2\n",
            CSV_HEADER + "\n1,2\n",
            "",
            CSV_HEADER + "\n1,0|1,1,0.5,0.5,0,0,1,1,1,0,1,7\n",
            CSV_HEADER + "\n1,0|1,1,high,0.5,0,0,1,1,1,0,1\n",
        ],
        ids=["other-header", "short-row", "empty", "long-row", "non-numeric-real"],
    )
    def test_stray_csv_fails_naming_it(self, tmp_path, config_file, capsys, text):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)])
        (out / "notes.csv").write_text(text)
        capsys.readouterr()
        rc = main(["summarize", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "notes.csv does not look like a run CSV" in err

    @pytest.mark.parametrize(
        "text", ["{not json", '{"seed": 0}', "[1, 2]"], ids=["not-json", "no-config", "not-object"]
    )
    def test_bad_metadata_fails_naming_it(self, tmp_path, config_file, capsys, text):
        out = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--seeds", "0..1", "--out", str(out)])
        (out / "run_cb_mnl_e_seed1.json").write_text(text)
        capsys.readouterr()
        rc = main(["summarize", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "run_cb_mnl_e_seed1.json" in err


class TestInstanceCommand:
    def test_generate_and_inspect(self, tmp_path, config_file, capsys):
        dest = tmp_path / "inst.json"
        rc = main(["instance", "--config", str(config_file), "--seed", "9", "--out", str(dest)])
        assert rc == 0
        rc = main(["instance", "--inspect", str(dest)])
        assert rc == 0
        inst = json.loads(dest.read_text())
        assert inst["seed"] == 9
        assert len(inst["theta_star"]) == 2
        assert len(inst["pool"]) == 2 * 3

    def test_inspect_prints_norm(self, tmp_path, config_file, capsys):
        dest = tmp_path / "inst.json"
        main(["instance", "--config", str(config_file), "--seed", "2", "--out", str(dest)])
        capsys.readouterr()
        main(["instance", "--inspect", str(dest)])
        printed = json.loads(capsys.readouterr().out)
        assert "theta_star_norm" in printed

    @staticmethod
    def invalid(capsys, argv):
        """Exit code and stderr of ``instance`` run with ``argv``."""
        capsys.readouterr()
        rc = main(["instance", *argv])
        return rc, capsys.readouterr().err

    def test_inspect_missing_file_fails(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        rc, err = self.invalid(capsys, ["--inspect", str(path)])
        assert rc == 2
        assert err.startswith(f"mnl-bandit: invalid instance file {path}")

    def test_inspect_non_json_fails(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text("not json")
        rc, err = self.invalid(capsys, ["--inspect", str(path)])
        assert rc == 2
        assert err.startswith(f"mnl-bandit: invalid instance file {path}")

    def test_inspect_missing_key_fails(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"d": 2}))
        rc, err = self.invalid(capsys, ["--inspect", str(path)])
        assert rc == 2
        assert err.startswith(f"mnl-bandit: invalid instance file {path}")
        assert "missing key 'pool'" in err

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (dict(theta_star=[0.1, -0.1, 0.0]), "theta_star must hold d=2 finite numbers"),
            (dict(prices=[1.0]), "prices must be null or a list of N=8 numbers"),
            (dict(prices=[-1.0] + [1.0] * 7), "prices must be nonnegative"),
            (dict(K=99), "K must be in [1, N=8]"),
            (dict(context_mode="bogus"), "context_mode must be"),
            (dict(S=0.01), "S_true must be in [0, S=0.01]"),
            (dict(context_mode="fresh_iid"), "pool must be given exactly when"),
            (dict(theta_star=[float("nan"), 0.1]), "theta_star must hold d=2 finite numbers"),
            (dict(pool=[float("nan")] * 16), "pool must hold N*d=16 finite numbers"),
            (dict(pool=[0.1] * 3), "pool must hold N*d=16 finite numbers"),
            (dict(d=2.7), "d must be an integer >= 1, got 2.7"),
            (dict(N="8"), "N must be an integer >= 1, got '8'"),
            (dict(seed=-5), "seed must be an integer >= 0, got -5"),
            (dict(S="2"), "S must be a finite number, got '2'"),
            (dict(theta_star=["0.1", 0.1]), "theta_star must hold real numbers"),
            (dict(pool=["0.1"] * 16), "pool must hold real numbers"),
            (dict(prices=[None] * 8), "prices must hold real numbers"),
            (dict(bogus=1, seeds=[0]), "bogus is not an instance field; seeds is not an instance field"),
        ],
        ids=["theta-length", "one-price", "negative-price", "K-above-N", "bogus-mode",
             "S-below-S_true", "fresh-with-pool", "nan-theta", "nan-pool", "short-pool",
             "fractional-d", "string-N", "negative-seed", "string-S", "string-theta",
             "string-pool", "null-prices", "unknown-keys"],
    )
    def test_inspect_inconsistent_instance_fails(self, tmp_path, capsys, edit, problem):
        path = tmp_path / "inst.json"
        assert main(["instance", "--seed", "0", "--out", str(path)]) == 0
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        rc, err = self.invalid(capsys, ["--inspect", str(path)])
        assert rc == 2
        assert err.startswith(f"mnl-bandit: invalid instance file {path}: ")
        assert problem in err

    def test_inspect_rejects_numbers_written_as_strings(self, tmp_path, capsys):
        # Every theta_star and price entry as a string of its digits: the
        # arrays are checked before NumPy could convert them.
        path = tmp_path / "inst.json"
        assert main(["instance", "--seed", "0", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        for name in ("theta_star", "prices"):
            data[name] = [str(x) for x in data[name]]
        path.write_text(json.dumps(data))
        rc, err = self.invalid(capsys, ["--inspect", str(path)])
        assert rc == 2
        assert err.startswith(f"mnl-bandit: invalid instance file {path}: theta_star must hold real numbers")

    def test_negative_seed_fails(self, tmp_path, config_file, capsys):
        dest = tmp_path / "inst.json"
        rc, err = self.invalid(
            capsys, ["--config", str(config_file), "--seed", "-1", "--out", str(dest)]
        )
        assert rc == 2
        assert err.startswith("mnl-bandit: invalid --seed")
        assert not dest.exists()


class TestOutputPaths:
    # An output path that cannot be written fails with exit code 2, naming
    # it, before any run starts or any input is read.
    @pytest.fixture()
    def no_runs(self, monkeypatch):
        import mnl_bandit.cli as cli

        def refused(*args, **kw):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_many", refused)
        monkeypatch.setattr(cli, "make_instance", refused)

    @staticmethod
    def refused(capsys, argv, path):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mnl-bandit: invalid output path {path}")

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_run_into_a_file_fails_before_running(
        self, tmp_path, config_file, capsys, no_runs, below
    ):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "runs" if below else taken
        self.refused(capsys, ["run", "--config", str(config_file), "--out", str(out)], out)
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_run_onto_a_directory_named_as_a_run_file_fails_before_running(
        self, tmp_path, config_file, capsys, no_runs, suffix
    ):
        out = tmp_path / "runs"
        taken = out / f"run_cb_mnl_e_seed0{suffix}"
        taken.mkdir(parents=True)
        self.refused(capsys, ["run", "--config", str(config_file), "--out", str(out)], taken)

    def test_matrix_onto_a_directory_named_as_a_run_file_fails_before_running(
        self, tmp_path, capsys, no_runs
    ):
        taken = tmp_path / "default" / "run_cb_mnl_e_seed2.csv"
        taken.mkdir(parents=True)
        self.refused(capsys, ["matrix", "--out", str(tmp_path)], taken)

    def test_matrix_into_a_file_fails_before_running(self, tmp_path, capsys, no_runs):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        self.refused(capsys, ["matrix", "--out", str(taken)], taken)

    def test_summarize_into_a_file_fails(self, tmp_path, config_file, capsys):
        runs = tmp_path / "runs"
        main(["run", "--config", str(config_file), "--out", str(runs)])
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        self.refused(capsys, ["summarize", str(runs), "--out", str(taken)], taken)
        assert taken.read_text() == "kept\n"

    def test_instance_onto_a_directory_fails(self, tmp_path, config_file, capsys, no_runs):
        self.refused(capsys, ["instance", "--config", str(config_file), "--out", str(tmp_path)], tmp_path)


class TestCheckCommand:
    def test_selected_checks_pass(self, capsys):
        rc = main(["check", "--only", "probability_normalization,g_identity"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 2

    def test_unknown_name_fails_and_lists_valid_names(self, capsys):
        rc = main(["check", "--only", "g_identity,bogus"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "bogus" in captured.err
        for name in ("probability_normalization", "lemma8_inclusion", "coverage_smoke"):
            assert name in captured.err
        assert "[PASS]" not in captured.out


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "mnl_bandit", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "summarize" in proc.stdout


class TestMatrixAndDiff:
    @pytest.fixture()
    def run_dir(self, tmp_path, monkeypatch):
        # The matrix command on a two-config matrix of short runs.
        import mnl_bandit.cli as cli

        small = dict(d=2, N=3, K=2, T=15, refine_top=0, n_dirs=4, restarts=1)
        monkeypatch.setattr(cli, "MATRIX", {
            "e": ExperimentConfig(**small),
            "random": ExperimentConfig(**small, policy="random"),
        })
        monkeypatch.setattr(cli, "MATRIX_SEEDS", (0, 1))
        assert main(["matrix", "--out", str(tmp_path / "a")]) == 0
        return tmp_path / "a"

    @staticmethod
    def copy_with(run_dir, dest, edit):
        """A copy of ``run_dir`` whose e/ seed-0 CSV has row 5's fields passed through ``edit``."""
        import shutil

        shutil.copytree(run_dir, dest)
        path = dest / "e" / "run_cb_mnl_e_seed0.csv"
        lines = path.read_text().splitlines()
        fields = dict(zip(CSV_HEADER.split(","), lines[5].split(",")))
        lines[5] = ",".join(edit(fields).values())
        path.write_text("\n".join(lines) + "\n")
        return dest

    def test_a_directory_against_itself(self, run_dir, capsys):
        capsys.readouterr()
        assert main(["diff", str(run_dir), str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "8 files, 0 missing or with different plays"
        assert {line.split(": ", 1)[1] for line in lines[:-1]} == {
            "byte-identical", "metadata equal apart from wall_time_s"
        }

    @pytest.mark.parametrize("shift, side", [(0.9e-9, "within"), (1.1e-9, "beyond")])
    def test_a_moved_real_is_reported_against_1e_9(self, run_dir, tmp_path, capsys, shift, side):
        def moved(f):
            return {**f, "dev_H": repr(float(f["dev_H"]) + shift)}

        other = self.copy_with(run_dir, tmp_path / "b", moved)
        capsys.readouterr()
        assert main(["diff", str(run_dir), str(other)]) == 0
        out = capsys.readouterr().out
        assert f"e/run_cb_mnl_e_seed0.csv: integer columns identical; reals {side} 1e-9: dev_H" in out

    def test_a_changed_outcome_is_a_play_difference(self, run_dir, tmp_path, capsys):
        def changed(f):
            return {**f, "outcome": str(1 - min(int(f["outcome"]), 1))}

        other = self.copy_with(run_dir, tmp_path / "b", changed)
        capsys.readouterr()
        assert main(["diff", str(run_dir), str(other)]) == 1
        out = capsys.readouterr().out
        assert "e/run_cb_mnl_e_seed0.csv: plays differ from round 5" in out
        assert out.splitlines()[-1] == "8 files, 1 missing or with different plays"

    def test_a_missing_file_is_named(self, run_dir, tmp_path, capsys):
        other = self.copy_with(run_dir, tmp_path / "b", lambda f: f)
        (other / "random" / "run_random_seed1.json").unlink()
        capsys.readouterr()
        assert main(["diff", str(run_dir), str(other)]) == 1
        out = capsys.readouterr().out
        assert f"random/run_random_seed1.json: missing in {other}" in out
        assert main(["diff", str(run_dir), str(tmp_path / "nowhere")]) == 1
        assert "nowhere is not a directory" in capsys.readouterr().err

    def test_a_metadata_json_that_is_no_object_differs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "run_x_seed0.json").write_text("[1, 2]")
        (b / "run_x_seed0.json").write_text('{"config": {}}')
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"run_x_seed0.json: {a / 'run_x_seed0.json'} holds no run config",
            "1 files, 1 missing or with different plays",
        ]

    def test_directories_with_no_run_file_fail(self, tmp_path, capsys):
        # An empty or mistyped matrix directory must not pass as equivalent.
        a, b = tmp_path / "a", tmp_path / "b"
        (a / "e").mkdir(parents=True)
        b.mkdir()
        (b / "notes.txt").write_text("not a run\n")
        assert main(["diff", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"no run files in {a} or {b}\n"
        assert captured.out == ""
