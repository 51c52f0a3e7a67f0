"""Command-line workflows, exercised in-process through ``main``.

Covers artifact schemas, manifest digests, exit codes (0 ok / 1 check
failure / 2 usage / 3 numeric), and the byte-identical determinism promise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import specguard
from specguard import charmatrix, cli, pseudospec, stats, variance
from specguard.cli import build_parser, main
from specguard.generators import RNG_ALGORITHM


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_module(cwd, *argv):
    """Run ``python -m specguard`` in a fresh process on the tree this suite imports."""
    src = str(Path(specguard.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "specguard", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def _status_counts(line):
    """The per-status point counts a sweep or cluster summary line prints."""
    found = re.findall(r"(\d+) (converged|max_iters|at_eigenvalue|degenerate_s)\b", line)
    assert sorted(name for _, name in found) == [
        "at_eigenvalue", "converged", "degenerate_s", "max_iters"
    ]
    return {name: int(count) for count, name in found}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def var_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("var") / "var.csv"
    code = main(
        ["generate", "--system", "var", "--M", "300", "--seed", "1", "--out", str(path)]
    )
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def traj_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("map") / "map_traj.csv"
    code = main(
        [
            "generate", "--system", "map1d", "--mode", "trajectory",
            "--M", "500", "--N", "6", "--seed", "2", "--out", str(path),
        ]
    )
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def lorenz_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("lorenz") / "lorenz.csv"
    code = main(
        ["generate", "--system", "lorenz63", "--M", "2000", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return str(path)


class TestGenerate:
    def test_manifest_records_digest_and_rng(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code, stdout, _ = _run(
            capsys, "generate", "--system", "var", "--M", "120", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "wrote 120 x 7 snapshot pairs" in stdout
        man = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        assert man["schema"] == "specguard/v1/manifest"
        assert man["rng"] == {"algorithm": RNG_ALGORITHM, "seed": 7}
        assert man["output"]["sha256"] == _sha256(out)
        assert man["m_samples"] == 120 and man["n_obs"] == 7
        assert man["input"] is None and man["kernel"] is None

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--system", "map1d", "--M", "60", "--N", "4", "--seed", "3",
                "--out", "m.csv"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append([(tmp_path / f).read_bytes() for f in ("m.csv", "m.csv.manifest.json")])
        capsys.readouterr()
        assert runs[0] == runs[1]

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--system", "map1d", "--M", "40", "--N", "4",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        assert (tmp_path / "map1d_M40_seed3.csv").exists()

    def test_missing_sample_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", "var"])
        assert exc.value.code == 2
        assert "--M" in capsys.readouterr().err

    def test_json_format_feeds_downstream(self, tmp_path, capsys):
        data = tmp_path / "v.json"
        assert main(["generate", "--system", "var", "--M", "80", "--out", str(data)]) == 0
        assert data.read_text().startswith("{")
        art = tmp_path / "e.json"
        assert main(["edmd", "--data", str(data), "--out", str(art)]) == 0
        capsys.readouterr()
        assert len(json.loads(art.read_text())["eigenvalues"]) == 7

    @pytest.mark.parametrize("system", ["var", "map1d", "lorenz63"])
    @pytest.mark.parametrize("m", ["1", "0", "-1"])
    def test_fewer_than_two_pairs_is_refused_before_anything_is_written(
        self, tmp_path, monkeypatch, capsys, system, m
    ):
        monkeypatch.chdir(tmp_path)
        code, _, err = _run(capsys, "generate", "--system", system, "--M", m, "--out", "g.csv")
        assert code == 3
        assert "need at least 2 snapshot pairs" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("system", ["var", "lorenz63"])
    @pytest.mark.parametrize("flag, value", [("--mode", "trajectory"), ("--mode", "iid"),
                                             ("--N", "10")])
    def test_a_map1d_flag_on_another_system_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, system, flag, value
    ):
        monkeypatch.chdir(tmp_path)
        code, _, err = _run(capsys, "generate", "--system", system, "--M", "40", flag, value)
        assert code == 2
        assert f"{flag} applies only to --system map1d" in err
        assert list(tmp_path.iterdir()) == []

    def test_map1d_defaults_are_iid_and_ten_observables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = ["generate", "--system", "map1d", "--M", "30", "--seed", "4"]
        assert main([*base, "--out", "d.csv"]) == 0
        assert main([*base, "--mode", "iid", "--N", "10", "--out", "e.csv"]) == 0
        capsys.readouterr()
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()
        man = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert (man["mode"], man["n_obs"]) == ("iid", 10)


class TestEdmd:
    def test_artifact(self, var_csv, tmp_path, capsys):
        out = tmp_path / "edmd.json"
        code, stdout, _ = _run(capsys, "edmd", "--data", var_csv, "--out", str(out))
        assert code == 0
        assert "EDMD fit: N=7" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "specguard/v1/edmd"
        assert doc["m_samples"] == 300
        assert doc["manifest"]["input"]["sha256"] == _sha256(var_csv)
        eigs = doc["eigenvalues"]
        assert [e["index"] for e in eigs] == list(range(7))
        mods = [abs(complex(e["re"], e["im"])) for e in eigs]
        assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(mods, mods[1:]))
        assert max(e["residual"] for e in eigs) < 1e-8

    def test_singular_gram_is_numeric_error(self, lorenz_csv, tmp_path, capsys):
        code, _, err = _run(
            capsys, "edmd", "--data", lorenz_csv, "--out", str(tmp_path / "x.json")
        )
        assert code == 3
        assert "error:" in err and "singular" in err

    def test_a_malformed_data_file_is_a_format_error(self, tmp_path, capsys):
        bad_json, bad_csv = tmp_path / "bad.json", tmp_path / "bad.csv"
        bad_json.write_text('{"schema": "specguard/v1/snapshots", "N": 1}')
        bad_csv.write_text("# specguard-snapshots v1 N=x kind=iid dt=none\n1,0,2,0\n3,0,4,0\n")
        for path, field in ((bad_json, "'kind'"), (bad_csv, "N='x'")):
            out = tmp_path / "e.json"
            code, _, err = _run(capsys, "edmd", "--data", str(path), "--out", str(out))
            assert code == 3
            assert err.startswith("error:") and field in err
            assert not out.exists()

    def test_a_data_file_that_cannot_be_opened_is_a_resource_error(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code, _, err = _run(capsys, "edmd", "--data", str(tmp_path / "nope.csv"), "--out", str(out))
        assert code == 3
        assert err.startswith("error:") and "nope.csv" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_an_output_in_a_missing_directory_is_a_resource_error(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        code, _, err = _run(capsys, "generate", "--system", "var", "--M", "10", "--out", str(out))
        assert code == 3
        assert err.startswith("error:") and "missing_dir" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "missing_dir").exists()

    def test_the_data_file_says_its_layout_whatever_its_name(self, tmp_path, capsys):
        csv_data, json_data = tmp_path / "v.csv", tmp_path / "v.json"
        assert main(["generate", "--system", "var", "--M", "60", "--out", str(csv_data)]) == 0
        assert main(["generate", "--system", "var", "--M", "60", "--out", str(json_data)]) == 0
        docs = []
        for src, misnamed in ((csv_data, "csv-as.json"), (json_data, "json-as.csv")):
            shutil.copy(src, tmp_path / misnamed)
            out = tmp_path / f"{misnamed}.edmd.json"
            assert main(["edmd", "--data", str(tmp_path / misnamed), "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text())["eigenvalues"])
        capsys.readouterr()
        assert docs[0] == docs[1] and len(docs[0]) == 7

    def test_rcond_floor_override(self, lorenz_csv, tmp_path, capsys):
        out = tmp_path / "lorenz_edmd.json"
        code, _, _ = _run(
            capsys, "edmd", "--data", lorenz_csv, "--rcond-floor", "1e-12",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["eigenvalues"]) == 151
        assert 1e-12 < doc["rcond"] < 1e-8
        lead = complex(doc["eigenvalues"][0]["re"], doc["eigenvalues"][0]["im"])
        assert abs(lead - 1.0) < 1e-8


class TestSweep:
    GRID = [
        "--re-min", "0.9", "--re-max", "1.3", "--n-re", "3",
        "--im-min", "0.0", "--im-max", "0.2", "--n-im", "3",
    ]

    def test_artifact_and_byte_identical_reruns(self, var_csv, tmp_path, capsys):
        # The manifest records the command, so a rerun must repeat --out too.
        out1 = tmp_path / "s1.json"
        argv = ["sweep", "--data", var_csv, *self.GRID, "--iid", "--tol", "0.3",
                "--out", str(out1)]
        assert main(argv) == 0
        first = out1.read_bytes()
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert out1.read_bytes() == first
        assert "swept 3x3 grid" in stdout
        for line in stdout.splitlines():
            assert sum(_status_counts(line).values()) == 9

        doc = json.loads(out1.read_text())
        assert doc["schema"] == "specguard/v1/sweep"
        assert doc["manifest"]["kernel"]["mode"] == "iid"
        grid = doc["grid"]
        assert_allclose(grid["re_axis"], [0.9, 1.1, 1.3], atol=1e-15)
        statuses = {s for row in grid["status"] for s in row}
        assert statuses <= {"converged", "max_iters", "at_eigenvalue", "degenerate_s"}
        lower = np.array(grid["lower"], dtype=float)
        upper = np.array(grid["upper"], dtype=float)
        assert lower.shape == (3, 3)
        assert np.all(lower <= upper)

    def test_csv_and_log_time_outputs(self, var_csv, tmp_path, capsys):
        # The file's dt adds log(lambda)/dt to both forms; without one, neither has it.
        timed = tmp_path / "timed.csv"
        timed.write_text(Path(var_csv).read_text().replace("dt=none", "dt=0.5", 1))
        grids, tables = [], []
        for data in (var_csv, timed):
            out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
            code, _, _ = _run(
                capsys, "sweep", "--data", str(data),
                "--re-min", "1.05", "--re-max", "1.15", "--n-re", "2",
                "--im-min", "0.05", "--im-max", "0.1", "--n-im", "2",
                "--iid", "--tol", "0.3", "--csv", str(csv_path), "--out", str(out),
            )
            assert code == 0
            grids.append(json.loads(out.read_text())["grid"])
            tables.append([line.split(",") for line in csv_path.read_text().splitlines()])
        plain, timed_grid = grids
        assert tables[0][0] == ["re", "im", "lower", "upper", "iterations", "status"]
        assert tables[1][0] == tables[0][0] + ["log_re", "log_im"]
        assert len(tables[1]) == 5
        assert [row[:6] for row in tables[1]] == tables[0]
        lam = np.array(plain["re_axis"])[None, :] + 1j * np.array(plain["im_axis"])[:, None]
        logs = np.log(lam) / 0.5
        assert timed_grid == {
            **plain, "log_time": 0.5,
            "log_lambda_re": logs.real.tolist(), "log_lambda_im": logs.imag.tolist(),
        }
        assert [[float(v) for v in row[6:]] for row in tables[1][1:]] == [
            [float(z.real), float(z.imag)] for z in logs.ravel()
        ]

    def test_window_larger_than_sample_fails(self, tmp_path, capsys):
        data, out = tmp_path / "v.csv", tmp_path / "s.json"
        assert main(["generate", "--system", "var", "--M", "50", "--out", str(data)]) == 0
        code, _, err = _run(
            capsys, "sweep", "--data", str(data), *self.GRID, "--LM", "60", "--out", str(out)
        )
        assert code == 3
        assert "half-width 60 >= M=50" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-0.5", "inf"])
    def test_bad_log_time_fails_before_the_sweep(
        self, var_csv, tmp_path, capsys, monkeypatch, value
    ):
        # The step of log(lambda)/dt is the file's dt, refused when the file is loaded.
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep ran before the dt check")

        monkeypatch.setattr(pseudospec, "char_contexts", forbidden)
        data = tmp_path / "bad_dt.csv"
        data.write_text(Path(var_csv).read_text().replace("dt=none", f"dt={value}", 1))
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        code, _, err = _run(
            capsys, "sweep", "--data", str(data), *self.GRID, "--iid",
            "--csv", str(csv_path), "--out", str(out),
        )
        assert code == 3
        assert "dt must be positive and finite" in err
        assert "Traceback" not in err
        assert not out.exists() and not csv_path.exists()

    @pytest.mark.parametrize("flag,value", [("--re-max", "inf"), ("--im-min", "nan")])
    def test_non_finite_grid_bound_fails(self, var_csv, tmp_path, capsys, flag, value):
        argv = list(self.GRID)
        argv[argv.index(flag) + 1] = value
        out = tmp_path / "s.json"
        code, _, err = _run(capsys, "sweep", "--data", var_csv, *argv, "--iid", "--out", str(out))
        assert code == 3
        assert "grid bounds must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestTest:
    def test_eigs_rows(self, var_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = _run(
            capsys, "test", "--data", var_csv, "--eigs", "--iid", "--out", str(out)
        )
        assert code == 0
        assert "tested 7 points; 0 rejected at alpha=0.05" in stdout
        doc = json.loads(out.read_text())
        assert doc["alphas"] == [0.05, 0.01]
        assert len(doc["results"]) == 7
        for row in doc["results"]:
            assert row["source"] == "eigs"
            assert row["status"] == "at_eigenvalue"
            assert row["p_value"] == 1.0
            assert row["reject"] == {"0.05": False, "0.01": False}

    def test_far_point_is_rejected(self, var_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = _run(
            capsys, "test", "--data", var_csv, "--lambda", "2.5+0.5j", "--iid",
            "--alpha", "0.1", "--out", str(out),
        )
        assert code == 0
        assert "tested 1 points; 1 rejected at alpha=0.1" in stdout
        (row,) = json.loads(out.read_text())["results"]
        assert row["source"] == "user"
        assert row["index"] is None and row["residual"] is None
        assert row["reject"] == {"0.1": True}
        assert row["m_p_hat"] > 10.0

    def test_user_points_are_one_batch_after_the_eigenvalues(
        self, tmp_path, capsys, monkeypatch
    ):
        data, out = tmp_path / "m.csv", tmp_path / "t.json"
        assert main(["generate", "--system", "map1d", "--M", "300", "--N", "4",
                     "--seed", "4", "--out", str(data)]) == 0
        sizes = []
        build = pseudospec.char_contexts
        monkeypatch.setattr(
            pseudospec, "char_contexts",
            lambda gram, lams, *args: sizes.append(len(lams)) or build(gram, lams, *args),
        )
        points = ["1.3", "0.5+0.5j", "-1.2"]
        code, stdout, _ = _run(
            capsys, "test", "--data", str(data), "--eigs", "--iid",
            *(arg for text in points for arg in ("--lambda", text)), "--out", str(out),
        )
        assert code == 0
        assert sizes == [4, 3]
        rows = json.loads(out.read_text())["results"]
        assert [row["source"] for row in rows] == ["eigs"] * 4 + ["user"] * 3
        lams = [complex(row["lambda"]["re"], row["lambda"]["im"]) for row in rows[4:]]
        assert lams == [1.3, 0.5 + 0.5j, -1.2]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tau", "nan"], "tau must be positive and finite"),
            (["--tau", "inf"], "tau must be positive and finite"),
            (["--iid", "--tol", "nan"], "rel_tol must be positive and finite"),
            (["--iid", "--rcond-floor", "nan"], "rcond floor must be finite"),
            (["--iid", "--alpha", "7"], "alpha must be in (0, 1]"),
        ],
        ids=["tau-nan", "tau-inf", "tol-nan", "rcond-floor-nan", "alpha-7"],
    )
    def test_bad_setting_fails(self, traj_csv, tmp_path, capsys, flags, message):
        out = tmp_path / "r.json"
        code, _, err = _run(capsys, "test", "--data", traj_csv, "--eigs", *flags, "--out", str(out))
        assert code == 3
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_bad_alpha_fails_before_any_estimate(self, var_csv, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an estimate ran before the alpha check")

        monkeypatch.setattr(pseudospec, "char_contexts", forbidden)
        out = tmp_path / "t.json"
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--iid", "--lambda", "1.5",
            "--alpha", "0.05", "--alpha", "7", "--out", str(out),
        )
        assert code == 3
        assert "alpha must be in (0, 1], got 7.0" in err
        assert not out.exists()

    def test_requires_a_target(self, var_csv, tmp_path, capsys):
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--iid", "--out", str(tmp_path / "r.json")
        )
        assert code == 2
        assert "nothing to test" in err

    def test_window_larger_than_sample_fails(self, tmp_path, capsys):
        data, out = tmp_path / "v.csv", tmp_path / "t.json"
        assert main(["generate", "--system", "var", "--M", "50", "--out", str(data)]) == 0
        code, _, err = _run(
            capsys, "test", "--data", str(data), "--eigs", "--LM", "60", "--out", str(out)
        )
        assert code == 3
        assert "kernel half-width 60 >= M=50" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", [["--lambda", "1"], ["--lambda", "1.3"], ["--eigs"]])
    def test_window_larger_than_sample_fails_at_every_point(self, tmp_path, capsys, target):
        # lambda = 1 is an EDMD eigenvalue of the trig dictionary (its constant).
        data, out = tmp_path / "m.csv", tmp_path / "t.json"
        assert main(["generate", "--system", "map1d", "--M", "300", "--N", "4",
                     "--seed", "4", "--out", str(data)]) == 0
        code, _, err = _run(
            capsys, "test", "--data", str(data), *target, "--LM", "500", "--out", str(out)
        )
        assert code == 3
        assert "kernel half-width 500 >= M=300" in err
        assert not out.exists()

    def test_bad_lambda_is_usage_error(self, var_csv, tmp_path, capsys):
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--lambda", "abc", "--iid",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "cannot parse complex" in err

    @pytest.mark.parametrize("text", ["nan+0j", "1+infj", "1e999"])
    def test_non_finite_lambda_is_usage_error(self, var_csv, tmp_path, capsys, text):
        out = tmp_path / "r.json"
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--lambda", text, "--iid", "--out", str(out)
        )
        assert code == 2
        assert f"usage error: complex number '{text}' is not finite" in err
        assert not out.exists()


class TestKernelFlags:
    def test_iid_and_window_are_exclusive(self, var_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", var_csv, "--eigs", "--iid", "--LM", "2",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_mu_with_iid_rejected(self, var_csv, tmp_path, capsys):
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--eigs", "--iid", "--mu", "0.5",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "--mu is meaningless" in err

    def test_negative_window_rejected(self, var_csv, tmp_path, capsys):
        code, _, err = _run(
            capsys, "test", "--data", var_csv, "--eigs", "--LM", "-1",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "--LM must be >= 0" in err

    def test_windowed_kernel_on_iid_data_warns(self, var_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = _run(
            capsys, "test", "--data", var_csv, "--eigs", "--LM", "2", "--out", str(out)
        )
        assert code == 0
        man = json.loads(out.read_text())["manifest"]
        assert man["kernel"]["mode"] == "windowed"
        assert any("iid kernel would be tighter" in w for w in man["warnings"])

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_a_window_with_no_weight_past_lag_zero_is_the_iid_kernel(
        self, var_csv, tmp_path, capsys, window
    ):
        docs = {}
        for flags in (["--LM", window], ["--iid"]):
            out = tmp_path / f"{flags[0]}.json"
            code, _, _ = _run(
                capsys, "test", "--data", var_csv, "--lambda", "1.3", *flags, "--out", str(out)
            )
            assert code == 0
            docs[flags[0]] = json.loads(out.read_text())
        man = docs["--LM"]["manifest"]
        assert man["kernel"]["mode"] == "iid" and man["kernel"]["l_window"] == int(window)
        assert not any("iid kernel would be tighter" in w for w in man["warnings"])
        assert docs["--LM"]["results"] == docs["--iid"]["results"]

    def test_iid_kernel_on_trajectory_data_warns(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = _run(
            capsys, "test", "--data", traj_csv, "--eigs", "--iid", "--out", str(out)
        )
        assert code == 0
        man = json.loads(out.read_text())["manifest"]
        assert any("serial correlation will be ignored" in w for w in man["warnings"])

    def test_auto_tau_and_auto_mu(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = _run(
            capsys, "sweep", "--data", traj_csv,
            "--re-min", "1.2", "--re-max", "1.3", "--n-re", "2",
            "--im-min", "0.0", "--im-max", "0.1", "--n-im", "2",
            "--tau", "auto", "--mu", "auto:2", "--tol", "0.3",
            "--out", str(out),
        )
        assert code == 0
        man = json.loads(out.read_text())["manifest"]
        assert man["kernel"]["mode"] == "windowed"
        assert any("estimated correlation time" in w for w in man["warnings"])

    def test_mu_auto_eigs_fits_once(self, traj_csv, tmp_path, capsys, monkeypatch):
        # The fit that chose the slow modes is the one whose eigenvalues are
        # tested; fits are counted in every module that has `edmd_matrix`.
        calls = []
        fit = charmatrix.edmd_matrix

        def counting(gram, floor=None):
            calls.append(gram)
            return fit(gram, floor)

        for module in (charmatrix, cli, stats):
            if hasattr(module, "edmd_matrix"):
                monkeypatch.setattr(module, "edmd_matrix", counting)
        out = tmp_path / "report.json"
        code, _, _ = _run(
            capsys, "test", "--data", traj_csv, "--LM", "3", "--mu", "auto:2", "--eigs",
            "--out", str(out),
        )
        assert code == 0
        assert len(calls) == 1
        modes = charmatrix.eigensystem(fit(calls[0])[0])
        rows = json.loads(out.read_text())["results"]
        assert [row["lambda"] for row in rows] == [
            {"re": m.eigenvalue.real, "im": m.eigenvalue.imag} for m in modes
        ]

    def test_auto_tau_reads_the_series_gram_memo(self, traj_csv, tmp_path, capsys, monkeypatch):
        # One Gram pass per basis: estimate_tau and the whitening read the
        # series' memo, the spectrum test and the user points its working copy's.
        calls = []
        gram_matrices = charmatrix.gram_matrices

        def counting(series):
            calls.append(series)
            return gram_matrices(series)

        for module in (charmatrix, cli, pseudospec, stats, variance):
            if hasattr(module, "gram_matrices"):
                monkeypatch.setattr(module, "gram_matrices", counting)
        code, _, _ = _run(
            capsys, "test", "--data", traj_csv, "--tau", "auto", "--eigs",
            "--lambda", "1.3", "--out", str(tmp_path / "report.json"),
        )
        assert code == 0
        assert calls == [calls[0], charmatrix._working(calls[0])[0]]


class TestCluster:
    def test_cluster_artifact(self, var_csv, tmp_path, capsys):
        out = tmp_path / "clusters.json"
        code, stdout, _ = _run(
            capsys, "cluster", "--data", var_csv,
            "--re-min", "0.85", "--re-max", "1.15", "--n-re", "4",
            "--im-min", "-0.1", "--im-max", "0.1", "--n-im", "3",
            "--iid", "--level", "2.0", "--tol", "0.3",
            "--out", str(out),
        )
        assert code == 0
        assert "clusters at level 2" in stdout
        assert sum(_status_counts(stdout).values()) == 12
        doc = json.loads(out.read_text())
        assert doc["schema"] == "specguard/v1/clusters"
        assert len(doc["eigenvalues"]) == 7
        assert len(doc["report"]["clusters"]) >= 1
        assert "grid" in doc

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_level_fails_before_the_sweep(
        self, var_csv, tmp_path, capsys, monkeypatch, level
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep ran before the level check")

        monkeypatch.setattr(pseudospec, "char_contexts", forbidden)
        out = tmp_path / "clusters.json"
        code, _, err = _run(
            capsys, "cluster", "--data", var_csv,
            "--re-min", "0.85", "--re-max", "1.15", "--n-re", "2",
            "--im-min", "-0.1", "--im-max", "0.1", "--n-im", "2",
            "--iid", f"--level={level}", "--out", str(out),
        )
        assert code == 3
        assert "level must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_the_refit_reuses_the_sweeps_gram(self, var_csv, tmp_path, capsys, monkeypatch):
        calls = []
        gram_matrices = charmatrix.gram_matrices

        def counting(series):
            calls.append(series)
            return gram_matrices(series)

        monkeypatch.setattr(charmatrix, "gram_matrices", counting)
        code, _, _ = _run(
            capsys, "cluster", "--data", var_csv,
            "--re-min", "0.85", "--re-max", "1.15", "--n-re", "2",
            "--im-min", "-0.1", "--im-max", "0.1", "--n-im", "2",
            "--iid", "--level", "2.0", "--tol", "0.3",
            "--out", str(tmp_path / "clusters.json"),
        )
        assert code == 0
        assert calls == [calls[0], charmatrix._working(calls[0])[0]]   # one pass per basis

    def test_mu_auto_fits_once(self, traj_csv, tmp_path, capsys, monkeypatch):
        # The fit that chose the slow modes is the one whose eigenvalues are
        # clustered; fits are counted in every module that has `edmd_matrix`.
        calls = []
        fit = charmatrix.edmd_matrix

        def counting(gram, floor=None):
            calls.append(gram)
            return fit(gram, floor)

        for module in (charmatrix, cli, stats):
            if hasattr(module, "edmd_matrix"):
                monkeypatch.setattr(module, "edmd_matrix", counting)
        out = tmp_path / "clusters.json"
        code, _, _ = _run(
            capsys, "cluster", "--data", traj_csv,
            "--re-min", "1.2", "--re-max", "1.3", "--n-re", "2",
            "--im-min", "0.0", "--im-max", "0.1", "--n-im", "2",
            "--LM", "3", "--mu", "auto:2", "--level", "2.0", "--tol", "0.3",
            "--out", str(out),
        )
        assert code == 0
        assert len(calls) == 1
        modes = charmatrix.eigensystem(fit(calls[0])[0])
        doc = json.loads(out.read_text())
        eigs = [{"re": m.eigenvalue.real, "im": m.eigenvalue.imag} for m in modes]
        assert doc["eigenvalues"] == eigs


class TestOracleCheckCommand:
    def test_passing_suite(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code, stdout, _ = _run(capsys, "oracle-check", "--out", str(out))
        assert code == 0
        assert stdout.count("[PASS]") == 4
        assert "4 checks passed" in stdout
        doc = json.loads(out.read_text())
        assert all(r["passed"] for r in doc["results"])

    def test_negative_control_fails(self, capsys):
        code, stdout, err = _run(capsys, "oracle-check", "--perturb", "1e-3")
        assert code == 1
        assert "[FAIL]" in stdout
        assert "checks FAILED" in err


class TestManifestCommand:
    ARGV = ["edmd", "--data", "v.csv", "--out", "e.json"]

    def test_records_the_parsed_arguments(self, var_csv, tmp_path, monkeypatch, capsys):
        shutil.copy(var_csv, tmp_path / "v.csv")
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGV) == 0
        capsys.readouterr()
        man = json.loads((tmp_path / "e.json").read_text())["manifest"]
        assert man["command"] == "specguard edmd --data v.csv --out e.json"

    def test_module_entry_point_writes_the_same_artifact(
        self, var_csv, tmp_path, monkeypatch, capsys
    ):
        shutil.copy(var_csv, tmp_path / "v.csv")
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGV) == 0
        capsys.readouterr()
        in_process = (tmp_path / "e.json").read_bytes()
        proc = _run_module(tmp_path, *self.ARGV)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "e.json").read_bytes() == in_process


class TestParserSurface:
    IO = {"--data", "--rcond-floor", "--out"}
    ESTIMATE = {"--iid", "--LM", "--tau", "--mu", "--tol", "--max-iters"}
    GRID = {"--re-min", "--re-max", "--n-re", "--im-min", "--im-max", "--n-im"}
    OPTIONS = {
        "generate": {"--system", "--mode", "--N", "--M", "--seed", "--out"},
        "edmd": IO,
        "sweep": IO | ESTIMATE | GRID | {"--csv"},
        "test": IO | ESTIMATE | {"--eigs", "--lambda", "--alpha"},
        "cluster": IO | ESTIMATE | GRID | {"--level"},
        "oracle-check": {"--perturb", "--seeds", "--out"},
    }

    def test_option_strings_and_help(self, capsys):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(self.OPTIONS)
        for cmd, parser in subparsers.choices.items():
            opts = [
                o for a in parser._actions for o in a.option_strings
                if o not in ("-h", "--help")
            ]
            assert len(opts) == len(set(opts)), cmd
            assert set(opts) == self.OPTIONS[cmd], cmd
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(f"usage: specguard {cmd}")


class TestNegativeValues:
    """A negative number in any form may follow its option after a space."""

    GRID = {"--re-min": "0.8", "--re-max": "1.2", "--n-re": "2",
            "--im-min": "-0.1", "--im-max": "0.1", "--n-im": "2"}

    def _argv(self, cmd, flag, value):
        required = {"--data": "d.csv", "--out": "o.json", "--iid": None}
        if cmd != "test":
            required.update(self.GRID)
        if cmd == "cluster":
            required["--level"] = "1"
        required[flag] = value
        return [cmd, *(tok for opt, val in required.items() for tok in (opt, val) if tok)]

    @pytest.mark.parametrize("cmd, flag, value", [
        ("sweep", "--re-min", "-1e-3"),
        ("sweep", "--re-max", "-2E+1"),
        ("cluster", "--im-min", "-.5e-1"),
        ("sweep", "--im-max", "-1e-3"),
        ("cluster", "--level", "-1e-3"),
        ("cluster", "--level", "-nan"),
        ("sweep", "--tol", "-inf"),
        ("sweep", "--rcond-floor", "-Infinity"),
        ("test", "--lambda", "-0.5+0.5j"),
        ("test", "--lambda", "-1e-3j"),
        ("sweep", "--mu", "-0.5+0.1j"),
        ("sweep", "--re-min", "-1"),
    ])
    def test_the_spaced_form_parses_as_the_joined_form(self, cmd, flag, value):
        argv = self._argv(cmd, flag, value)
        spaced = build_parser().parse_args(argv)
        i = argv.index(flag)
        joined = build_parser().parse_args(argv[:i] + [f"{flag}={value}"] + argv[i + 2 :])
        assert repr(vars(spaced)) == repr(vars(joined))
        parsed = getattr(spaced, {"--lambda": "point"}.get(flag, flag[2:].replace("-", "_")))
        expected = [value] if flag == "--lambda" else value if flag == "--mu" else float(value)
        assert repr(parsed) == repr(expected)

    @pytest.mark.parametrize("cmd, flag, message", [
        ("sweep", "--re-min", "grid bounds must be finite"),
        ("sweep", "--tol", "rel_tol must be positive and finite"),
        ("cluster", "--level", "level must be finite"),
    ])
    def test_a_spaced_non_finite_value_reaches_its_check(
        self, var_csv, tmp_path, capsys, cmd, flag, message
    ):
        argv = self._argv(cmd, flag, "-inf")
        out = tmp_path / "o.json"
        argv[argv.index("--data") + 1], argv[argv.index("--out") + 1] = var_csv, str(out)
        code, _, err = _run(capsys, *argv)
        assert code == 3
        assert message in err
        assert not out.exists()


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("specguard ")

    def test_console_script(self, tmp_path):
        proc = _run_module(tmp_path, "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"specguard {specguard.__version__}"

    def test_script_target_is_cli_main(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["specguard"]
        assert target == "specguard.cli:main"
        module_name, _, attr = target.partition(":")
        script_main = getattr(importlib.import_module(module_name), attr)
        assert script_main is main

        # __main__.py must call that same function and exit with its result.
        calls = []

        def fake_main(argv=None):
            calls.append(argv)
            return 17

        monkeypatch.setattr("specguard.cli.main", fake_main)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("specguard", run_name="__main__")
        assert calls == [None]
        assert exc.value.code == 17

    def test_exit_codes_cross_process_boundary(self, var_csv, tmp_path):
        # main() *returns* 2 here; __main__ must pass it on to the shell.
        proc = _run_module(
            tmp_path, "test", "--data", var_csv, "--iid", "--out", str(tmp_path / "r.json")
        )
        assert proc.returncode == 2
        assert "nothing to test" in proc.stderr

        # argparse *raises* 2 when the subcommand is missing.
        proc = _run_module(tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: specguard")

    @pytest.mark.skipif(
        shutil.which("specguard") is None, reason="specguard console script not installed"
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["specguard", "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("specguard ")
