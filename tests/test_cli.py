"""End-to-end command tests: artifacts, error paths, manifests, determinism."""

import base64
import contextlib
import csv
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridhealth import forecaster, workers
from gridhealth.cli import main
from gridhealth.errors import DivergedLoss
from gridhealth.forecaster import TrainConfig, build_models, load_checkpoint, save_checkpoint
from gridhealth.health import load_signals_csv
from gridhealth.synth import CONFIG_FILES, default_config_path, load_config_dir, oracle_labels
from gridhealth.ingest import CANONICAL_FUELS, load_fuel_mix


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def linear_checkpoint(path):
    """An untrained linear-baseline checkpoint for the synthetic bundle's fuels."""
    save_checkpoint(path, *build_models(8, TrainConfig(architecture="linear_baseline")),
                    CANONICAL_FUELS)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def snapshot(directory):
    """Name -> bytes of every file in `directory`."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def readme_fleet_spec():
    """The `fleet.json` sampling spec the README's quick start uses."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


# A stalled-process script's first step before `cli.main`: a process started with SIGINT
# ignored, as a job started with `&` from a non-interactive shell is, passes that on to
# its children, and Python then installs no KeyboardInterrupt handler for a test to reach.
DEFAULT_SIGINT = "signal.signal(signal.SIGINT, signal.default_int_handler)"


@contextlib.contextmanager
def catching_sigterm():
    """Record each SIGTERM in a list instead of dying of it; yields (list, handler)."""
    received = []

    def handler(signum, frame):
        received.append(signum)

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield received, handler
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """Small synthetic bundle shared by the training-flavored CLI tests."""
    out = tmp_path_factory.mktemp("bundle")
    assert run("synth", "--out", out, "--hours", 240, "--seed", 3) == 0
    return out


class TestSynth:
    def test_writes_complete_bundle(self, bundle):
        for name in ("fuel_mix.csv", "sr_matrix.csv", "labels.csv", "manifest.json",
                     "emission_factors.csv", "receptors.csv",
                     "concentration_response.csv", "valuations.csv", "plume.json"):
            assert (bundle / name).exists(), name

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--out", a, "--hours", 96, "--seed", 7) == 0
        assert run("synth", "--out", b, "--hours", 96, "--seed", 7) == 0
        for name in ("fuel_mix.csv", "sr_matrix.csv", "labels.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_labels_recomputable_exactly(self, bundle):
        config = load_config_dir(bundle)
        series = load_fuel_mix(bundle / "fuel_mix.csv")
        recomputed = oracle_labels(series, config)
        stored = load_signals_csv(bundle / "labels.csv")
        assert len(stored) == len(recomputed)
        assert stored.timestamps.tolist() == recomputed.timestamps.tolist()
        assert stored.costs.tolist() == recomputed.costs.tolist()

    def test_zero_factor_config_zero_labels(self, tmp_path):
        src = default_config_path(".")
        cdir = tmp_path / "conf"
        cdir.mkdir()
        for name in ("receptors.csv", "concentration_response.csv", "valuations.csv",
                     "plume.json"):
            (cdir / name).write_bytes((src / name).read_bytes())
        rows = read_rows(src / "emission_factors.csv")
        zeroed = [rows[0]] + [[r[0], "0", "0", "0", "0"] for r in rows[1:]]
        with open(cdir / "emission_factors.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(zeroed)
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--seed", 1,
                   "--config-dir", cdir) == 0
        assert np.all(load_signals_csv(out / "labels.csv").costs == 0.0)

    def test_truncated_plume_json_rejected(self, tmp_path, capsys):
        src = default_config_path(".")
        cdir = tmp_path / "conf"
        cdir.mkdir()
        for name in ("emission_factors.csv", "receptors.csv", "concentration_response.csv",
                     "valuations.csv"):
            (cdir / name).write_bytes((src / name).read_bytes())
        (cdir / "plume.json").write_text((src / "plume.json").read_text()[:40])
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err.startswith(f"error: {cdir / 'plume.json'}: ")
        assert not list(out.glob("*"))

    @staticmethod
    def plume_config_dir(tmp_path, old="", new=""):
        """A copy of the packaged config directory with `old` replaced by `new` in plume.json."""
        cdir = tmp_path / "conf"
        cdir.mkdir()
        for name in CONFIG_FILES:
            (cdir / name).write_bytes((default_config_path(".") / name).read_bytes())
        text = (cdir / "plume.json").read_text()
        assert old in text
        (cdir / "plume.json").write_text(text.replace(old, new, 1))
        return cdir

    @pytest.mark.parametrize("old, new, key", [
        ('"wind_speed": 4.5', '"wind_speed": true', "key 'wind_speed'"),
        ('"wind_speed": 4.5', '"wind_speed": "4.5"', "key 'wind_speed'"),
        ('"wind_speed": 4.5', '"wind_speed": 1e400', "key 'wind_speed'"),      # inf
        ('"wind_speed": 4.5', '"wind_speed": 1' + "0" * 400, "key 'wind_speed'"),
        ('"sigma_z_coeff": 0.28', '"sigma_z_coeff": -0.28', "sigma coefficients"),
        ('"wind_speed": 4.5', '"wind_speed": 4.5, "stability": "D"', "unknown key 'stability'"),
        ('"downwind_x": 18000.0', '"downwind_x": "18000"', "receptors[0]: bad value for key "
                                                           "'downwind_x'"),
        ('"crosswind_y": 0.0}', '"crosswind_y": NaN}', "receptors[0]: bad value for key "
                                                       "'crosswind_y'"),
        ('"crosswind_y": 0.0}', '"crosswind_y": 0.0, "z": 2}', "receptors[0]: unknown key 'z'"),
        ('"id": "METRO", ', "", "receptors[0]: missing key 'id'"),
        ('"id": "METRO"', '"id": 5', "receptor id 5 is not a string"),
        # finite but extreme: an OverflowError, a ZeroDivisionError and inf gains before
        ('"crosswind_y": 9000.0}', '"crosswind_y": 1e200}', "receptors[1]: the plume gain "
                                                           "is not a finite number"),
        ('"downwind_x": 18000.0', '"downwind_x": 1e-300', "receptors[0]: the plume gain "
                                                         "is not a finite number"),
        ('"wind_speed": 4.5', '"wind_speed": 1e-320', "receptors[0]: the plume gain "
                                                     "is not a finite number"),
    ], ids=["bool", "string", "inf", "past_float64", "negative_sigma", "extra_key",
            "string_x", "nan_y", "receptor_extra_key", "no_id", "number_id", "huge_y",
            "tiny_x", "tiny_wind"])
    def test_bad_plume_spec_names_key(self, tmp_path, capsys, old, new, key):
        cdir = self.plume_config_dir(tmp_path, old, new)
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cdir / 'plume.json'}: ") and key in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf"]

    def test_no_receptor_rejected(self, tmp_path, capsys):
        # it used to write all-zero labels and a bundle its own reader rejects
        cdir = self.plume_config_dir(tmp_path)
        spec = json.loads((cdir / "plume.json").read_text())
        spec["receptors"] = []
        (cdir / "plume.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err == (f"error: {cdir / 'plume.json'}: 'receptors' is "
                                           "empty: the plume needs at least one receptor\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf"]

    def test_misspelled_internal_flag_rejected(self, tmp_path, capsys):
        # 'ture' used to read as external and move the internal signal
        cdir = self.plume_config_dir(tmp_path)
        text = (cdir / "receptors.csv").read_text()
        assert "VALLEY,900000,true," in text
        (cdir / "receptors.csv").write_text(text.replace("VALLEY,900000,true,",
                                                         "VALLEY,900000,ture,"))
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err == (f"error: {cdir / 'receptors.csv'}:3: internal 'ture' "
                                           "is not 1, 0, true, false, yes or no\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf"]

    def test_repeated_receptor_id_rejected(self, tmp_path, capsys):
        # it used to price VALLEY's position with METRO's profile
        cdir = self.plume_config_dir(tmp_path, '"id": "VALLEY"', '"id": "METRO"')
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err == (f"error: {cdir / 'plume.json'}: "
                                           "receptor id 'METRO' is repeated\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf"]

    def test_permuted_response_columns_rejected(self, tmp_path, capsys):
        # the same coefficients under a VOC,SO2,NOX,PM2.5 header used to load by position
        src = default_config_path(".")
        cdir = tmp_path / "conf"
        cdir.mkdir()
        for name in ("emission_factors.csv", "receptors.csv", "valuations.csv", "plume.json"):
            (cdir / name).write_bytes((src / name).read_bytes())
        rows = read_rows(src / "concentration_response.csv")
        assert rows[0][2:] == ["PM2.5", "SO2", "NOX", "VOC"]
        with open(cdir / "concentration_response.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(r[:2] + [r[5], r[3], r[4], r[2]]
                                                          for r in rows)
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err == (f"error: {cdir / 'concentration_response.csv'}: "
                                           "expected header endpoint_id,form,PM2.5,SO2,NOX,VOC\n")
        assert not list(out.glob("*"))

    def test_failed_or_interrupted_rerun_leaves_bundle(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "b"
        assert run("synth", "--out", out, "--hours", 48) == 0
        before = snapshot(out)
        cdir = tmp_path / "conf"
        cdir.mkdir()
        for name in CONFIG_FILES:
            (cdir / name).write_bytes((default_config_path(".") / name).read_bytes())
        (cdir / "plume.json").write_text("{}")
        assert run("synth", "--out", out, "--hours", 48, "--config-dir", cdir) == 1
        assert capsys.readouterr().err.startswith(f"error: {cdir / 'plume.json'}: ")
        assert snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "conf"]

        def interrupt(path, series):
            Path(path).write_text("partial")
            raise KeyboardInterrupt
        monkeypatch.setattr("gridhealth.cli.write_signals_csv", interrupt)
        assert run("synth", "--out", out, "--hours", 24) == 128 + signal.SIGINT
        assert capsys.readouterr().err == "error: interrupted\n"
        assert snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "conf"]

    def test_sigterm_cleans_up_then_ends_by_sigterm(self, tmp_path, monkeypatch):
        out = tmp_path / "b"
        assert run("synth", "--out", out, "--hours", 48) == 0
        before = snapshot(out)

        def terminate(path, series):
            Path(path).write_text("partial")
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr("gridhealth.cli.write_signals_csv", terminate)
        with catching_sigterm() as (received, handler):
            assert run("synth", "--out", out, "--hours", 24) == 128 + signal.SIGTERM
            assert signal.getsignal(signal.SIGTERM) is handler
        assert received == [signal.SIGTERM]
        assert snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b"]

    def test_nested_out_created(self, tmp_path):
        out = tmp_path / "x" / "y" / "z"
        assert run("synth", "--out", out, "--hours", 48) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(out / "labels.csv") in manifest["outputs"]
        assert sorted(p.name for p in out.parent.iterdir()) == ["z"]

    def test_out_dot_keeps_other_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "notes.txt").write_text("mine")
        assert run("synth", "--out", ".", "--hours", 48) == 0
        assert (tmp_path / "notes.txt").read_text() == "mine"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "labels.csv" in manifest["outputs"] and "notes.txt" not in manifest["outputs"]
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]

    @pytest.mark.parametrize("hours", [10**15, 10**30])     # 8 PB; past numpy's largest array
    def test_huge_hours_names_flag(self, tmp_path, capsys, hours):
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", hours) == 1
        assert capsys.readouterr().err.startswith(f"error: 'hours' {hours}: ")
        assert not list(tmp_path.iterdir())

    def test_manifest_contents(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["inputs"]
        assert any(p.endswith("labels.csv") for p in manifest["outputs"])


class TestIngest:
    def write_raw(self, path, hours=72, missing=()):
        rows = [["timestamp", "coal", "wind"]]
        for t in range(hours):
            coal = "" if ("coal", t) in missing else f"{0.4 + 0.1 * np.sin(t / 4):.4f}"
            wind = "" if ("wind", t) in missing else f"{0.6 - 0.1 * np.sin(t / 4):.4f}"
            rows.append([t, coal, wind])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def write_map(self, path):
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [["raw_label", "canonical"], ["coal", "COL"], ["wind", "WND"]])

    def test_valid_file(self, tmp_path, capsys):
        mix, cmap = tmp_path / "raw.csv", tmp_path / "map.csv"
        self.write_raw(mix)
        self.write_map(cmap)
        assert run("ingest", "--mix", mix, "--category-map", cmap,
                   "--out", tmp_path / "out") == 0
        printed = capsys.readouterr().out
        assert "records: 72" in printed
        rows = read_rows(tmp_path / "out" / "dataset.csv")
        assert len(rows) == 73
        shares = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(shares.sum(axis=1), 1.0, atol=1e-9)

    def test_unmapped_column_fails_and_cleans_up(self, tmp_path, capsys):
        mix, cmap = tmp_path / "raw.csv", tmp_path / "map.csv"
        self.write_raw(mix)
        with open(cmap, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [["raw_label", "canonical"], ["coal", "COL"]])
        out = tmp_path / "out"
        assert run("ingest", "--mix", mix, "--category-map", cmap, "--out", out) == 1
        assert "wind" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_bad_cell_names_path_and_row(self, tmp_path, capsys):
        mix, cmap = tmp_path / "raw.csv", tmp_path / "map.csv"
        self.write_raw(mix, hours=4)
        rows = read_rows(mix)
        rows[3][1] = "abc"
        with open(mix, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        self.write_map(cmap)
        out = tmp_path / "out"
        assert run("ingest", "--mix", mix, "--category-map", cmap, "--out", out) == 1
        assert f"{mix}:4: bad float 'abc'" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_imputed_count_matches_masked(self, tmp_path, capsys):
        mix, cmap = tmp_path / "raw.csv", tmp_path / "map.csv"
        rng = np.random.default_rng(0)
        holes = {("coal", int(t)) for t in rng.choice(np.arange(1, 71), 4, replace=False)}
        self.write_raw(mix, missing=holes)
        self.write_map(cmap)
        assert run("ingest", "--mix", mix, "--category-map", cmap,
                   "--out", tmp_path / "out") == 0
        assert f"imputed_entries: {len(holes)}" in capsys.readouterr().out


class TestTrainPredictSweep:
    def test_epochs_zero_checkpoint_is_initialization(self, bundle, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", out,
                   "--epochs", 0, "--seed", 4) == 0
        from gridhealth.forecaster import load_checkpoint
        model, conv, fuels = load_checkpoint(out / "checkpoint.json")
        assert fuels == CANONICAL_FUELS
        fresh_model, fresh_conv = build_models(8, TrainConfig(beta=0.5, window=24,
                                                              epochs=0, seed=4))
        for k in fresh_model.params:
            np.testing.assert_array_equal(model.params[k].data, fresh_model.params[k].data)
        for k in fresh_conv.params:
            np.testing.assert_array_equal(conv.params[k].data, fresh_conv.params[k].data)
        rows = read_rows(out / "loss_history.csv")
        assert rows == [["epoch", "train_loss", "val_loss"]]

    def test_sweep_rows_ascending(self, bundle, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", out,
                   "--betas", "0.998,0.5", "--epochs", 1, "--seed", 4,
                   "--arch", "linear_baseline") == 0
        rows = read_rows(out / "tradeoff.csv")
        assert rows[0] == ["beta", "fuel_nmae", "health_nmae"]
        assert [r[0] for r in rows[1:]] == ["0.5", "0.998"]

    def test_manifest_records_peak_rss(self, bundle, tmp_path, monkeypatch):
        flags = ["--dataset", bundle / "fuel_mix.csv", "--labels", bundle / "labels.csv",
                 "--epochs", 1, "--arch", "linear_baseline"]
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        assert run("train", *flags, "--out", tmp_path / "run") == 0
        assert run("sweep", *flags, "--out", tmp_path / "sweep", "--betas", "0.5,0.9") == 0
        trained = json.loads((tmp_path / "run" / "manifest.json").read_text())
        swept = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert trained["peak_rss_mb"] > 0 and "worker_peak_rss_mb" not in trained
        assert trained["config"]["beta"] == 0.5 and "beta" not in swept["config"]
        assert swept["peak_rss_mb"] > 0 and swept["worker_peak_rss_mb"] > 0
        if workers.blas_thread_calls() is not None:
            # with two CPUs, train forks a helper for the other half of each batch
            monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
            assert run("train", *flags, "--out", tmp_path / "helped") == 0
            helped = json.loads((tmp_path / "helped" / "manifest.json").read_text())
            assert helped["peak_rss_mb"] > 0 and helped["worker_peak_rss_mb"] > 0
        monkeypatch.setattr("gridhealth.cli.resource", None)     # as on Windows
        assert run("train", *flags, "--out", tmp_path / "bare") == 0
        bare = json.loads((tmp_path / "bare" / "manifest.json").read_text())
        assert "peak_rss_mb" not in bare and "worker_peak_rss_mb" not in bare

    def test_without_fork_train_runs_in_one_process_and_sweep_fails(self, bundle, tmp_path,
                                                                    capsys, monkeypatch):
        flags = ["--dataset", bundle / "fuel_mix.csv", "--labels", bundle / "labels.csv",
                 "--epochs", 1]
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert run("train", *flags, "--out", tmp_path / "forked") == 0

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        # as on Windows
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        forked = workers.forked_count()
        assert run("train", *flags, "--out", tmp_path / "alone") == 0
        assert ((tmp_path / "alone" / "checkpoint.json").read_bytes()
                == (tmp_path / "forked" / "checkpoint.json").read_bytes())
        capsys.readouterr()
        assert run("sweep", *flags, "--out", tmp_path / "sweep", "--betas", "0.5,0.9") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'fork'" in err and err.count("\n") == 1
        assert workers.forked_count() == forked
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alone", "forked"]

    def test_sweep_member_error_reported(self, bundle, tmp_path, capsys, monkeypatch):
        def diverge(model, converter, data, cfg):
            raise DivergedLoss(f"non-finite loss at epoch {int(cfg.beta > 0.9)}")

        monkeypatch.setattr("gridhealth.forecaster.train", diverge)
        assert run("sweep", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", tmp_path / "sweep",
                   "--betas", "0.998,0.5", "--epochs", 1, "--arch", "linear_baseline") == 1
        assert capsys.readouterr().err == "error: non-finite loss at epoch 0\n"
        assert not list(tmp_path.iterdir())
        assert multiprocessing.active_children() == []

    def test_sigterm_ends_sweep_workers(self, bundle, tmp_path, monkeypatch):
        def stall(model, converter, data, cfg):
            if cfg.beta == 0.5:
                os.kill(os.getppid(), signal.SIGTERM)
            time.sleep(60)

        monkeypatch.setattr("gridhealth.forecaster.train", stall)
        with catching_sigterm() as (received, handler):
            started = time.monotonic()
            assert run("sweep", "--dataset", bundle / "fuel_mix.csv",
                       "--labels", bundle / "labels.csv", "--out", tmp_path / "sweep",
                       "--betas", "0.5,0.9,0.998", "--epochs", 1,
                       "--arch", "linear_baseline") == 128 + signal.SIGTERM
            assert time.monotonic() - started < 10
            assert signal.getsignal(signal.SIGTERM) is handler
        assert received == [signal.SIGTERM]
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.iterdir())

    def test_sigterm_while_forking_ends_sweep(self, bundle, tmp_path, monkeypatch):
        # Python runs a handler due inside an at-fork callback there, and an
        # exception it raises is reported and dropped: the SIGTERM would be lost
        armed = [True]

        def terminate_once():
            if armed:
                armed.clear()
                os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr("gridhealth.forecaster.train", lambda *args: time.sleep(60))
        os.register_at_fork(after_in_parent=terminate_once)    # cannot be unregistered
        with catching_sigterm() as (received, handler):
            started = time.monotonic()
            assert run("sweep", "--dataset", bundle / "fuel_mix.csv",
                       "--labels", bundle / "labels.csv", "--out", tmp_path / "sweep",
                       "--betas", "0.5,0.9,0.998", "--epochs", 1,
                       "--arch", "linear_baseline") == 128 + signal.SIGTERM
            assert time.monotonic() - started < 10
            assert signal.getsignal(signal.SIGTERM) is handler
        assert not armed
        assert received == [signal.SIGTERM]
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.iterdir())

    def test_ctrl_c_ends_sweep_with_one_line(self, bundle, tmp_path):
        # a real process, so that SIGINT arrives while the caller waits on a pipe
        script = tmp_path / "stalled_sweep.py"
        script.write_text(
            "import os, signal, sys, time\n"
            "from pathlib import Path\n"
            "from gridhealth import cli, forecaster\n"
            "def stall(*args):\n"
            "    Path(sys.argv[1], str(os.getpid())).touch()\n"
            "    time.sleep(60)\n"
            "forecaster.train = stall\n"
            f"{DEFAULT_SIGINT}\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        started = tmp_path / "started"
        started.mkdir()
        src = str(Path(main.__code__.co_filename).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "sweep"
        proc = subprocess.Popen(
            [sys.executable, script, started, "sweep", "--dataset", bundle / "fuel_mix.csv",
             "--labels", bundle / "labels.csv", "--out", out, "--betas", "0.5,0.9,0.998",
             "--epochs", "1", "--arch", "linear_baseline"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True)
        try:
            deadline = time.monotonic() + 30
            while not any(started.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(p.name) for p in started.iterdir()]
            assert workers
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 128 + signal.SIGINT
        assert err == "error: interrupted\n"
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stalled_sweep.py", "started"]

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_interrupted_train_ends_its_helpers(self, bundle, tmp_path, sig):
        if workers.blas_thread_calls() is None:
            pytest.skip("train forks no helpers without a way to pin the BLAS threads")
        # a real process, so that the signal arrives while the caller trains or waits
        script = tmp_path / "helped_train.py"
        script.write_text(
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "from gridhealth import cli, forecaster, workers\n"
            "helper = forecaster._train_helper\n"
            "def noted(*args):\n"
            "    Path(sys.argv[1], str(os.getpid())).touch()\n"
            "    helper(*args)\n"
            "forecaster._train_helper = noted\n"
            "workers.usable_cpus = lambda: 2\n"
            f"{DEFAULT_SIGINT}\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        started = tmp_path / "started"
        started.mkdir()
        src = str(Path(main.__code__.co_filename).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, script, started, "train", "--dataset", bundle / "fuel_mix.csv",
             "--labels", bundle / "labels.csv", "--out", tmp_path / "run", "--epochs", "1000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True)
        try:
            deadline = time.monotonic() + 30
            while not any(started.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.05)
            helpers = [int(p.name) for p in started.iterdir()]
            assert helpers
            time.sleep(0.3)     # into the training loop
            proc.send_signal(sig)
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
            proc.wait()
        if sig == signal.SIGINT:
            assert (proc.returncode, err) == (128 + signal.SIGINT, "error: interrupted\n")
        else:
            assert (proc.returncode, err) == (-signal.SIGTERM, "")
        for pid in helpers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["helped_train.py", "started"]

    @pytest.mark.parametrize("arch", ["attention_encoder_decoder", "linear_baseline"])
    def test_checkpoint_does_not_depend_on_blas_threads(self, tmp_path, arch):
        if workers.blas_thread_calls() is None:
            pytest.skip("no way to pin the BLAS threads")
        assert run("synth", "--out", tmp_path / "b", "--hours", 2160, "--seed", 0) == 0
        src = str(Path(main.__code__.co_filename).parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            subprocess.run(
                [sys.executable, "-m", "gridhealth.cli", "train", "--dataset",
                 tmp_path / "b" / "fuel_mix.csv", "--labels", tmp_path / "b" / "labels.csv",
                 "--out", tmp_path / threads, "--epochs", "1", "--arch", arch], env=env, check=True,
                stdout=subprocess.DEVNULL)
        for name in ("checkpoint.json", "loss_history.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_predict_recomputation_matches_sweep(self, bundle, tmp_path):
        beta, seed, epochs = 0.5, 4, 1
        train_out = tmp_path / "train"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", train_out,
                   "--beta", beta, "--epochs", epochs, "--seed", seed,
                   "--arch", "linear_baseline") == 0
        sweep_out = tmp_path / "sweep"
        assert run("sweep", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", sweep_out,
                   "--betas", beta, "--epochs", epochs, "--seed", seed,
                   "--arch", "linear_baseline") == 0
        pred_out = tmp_path / "pred"
        assert run("predict", "--dataset", bundle / "fuel_mix.csv",
                   "--checkpoint", train_out / "checkpoint.json",
                   "--out", pred_out) == 0

        predicted = load_signals_csv(pred_out / "predicted_signal.csv")
        labels = load_signals_csv(bundle / "labels.csv")
        pred = predicted.costs
        truth = labels.costs[np.searchsorted(labels.timestamps, predicted.timestamps)]
        ni = np.abs(pred[:, 0] - truth[:, 0]).mean() / np.abs(truth[:, 0]).mean()
        ne = np.abs(pred[:, 1] - truth[:, 1]).mean() / np.abs(truth[:, 1]).mean()
        recomputed = 0.5 * (ni + ne)
        sweep_value = float(read_rows(sweep_out / "tradeoff.csv")[1][2])
        assert recomputed == pytest.approx(sweep_value, rel=1e-12)

    def test_predict_takes_window_from_checkpoint(self, tmp_path):
        data = tmp_path / "bundle"
        assert run("synth", "--out", data, "--hours", 480, "--seed", 3) == 0
        train_out = tmp_path / "train"
        assert run("train", "--dataset", data / "fuel_mix.csv",
                   "--labels", data / "labels.csv", "--out", train_out, "--window", 72,
                   "--epochs", 0, "--seed", 1, "--arch", "linear_baseline") == 0
        args = ["predict", "--dataset", data / "fuel_mix.csv",
                "--checkpoint", train_out / "checkpoint.json", "--out", tmp_path / "p"]
        assert run(*args) == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["config"]["window"] == 72
        stamps = [int(r[0]) for r in read_rows(tmp_path / "p" / "predicted_signal.csv")[1:]]
        assert stamps == list(range(384, 456))       # the one 72 h window in the last 96 h
        for flag in ("--window", "--seed"):            # neither is a predict option
            with pytest.raises(SystemExit):
                run(*args, flag, 72)

    def test_checkpoint_round_trip_keeps_prediction(self, bundle, tmp_path):
        train_out = tmp_path / "train"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", train_out,
                   "--epochs", 1, "--seed", 2) == 0
        first = train_out / "checkpoint.json"
        second = tmp_path / "checkpoint.json"
        save_checkpoint(second, *load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()
        for ckpt, out in ((first, tmp_path / "p1"), (second, tmp_path / "p2")):
            assert run("predict", "--dataset", bundle / "fuel_mix.csv",
                       "--checkpoint", ckpt, "--out", out) == 0
        assert ((tmp_path / "p1" / "predicted_signal.csv").read_bytes()
                == (tmp_path / "p2" / "predicted_signal.csv").read_bytes())

    def test_predict_reads_fuel_columns_by_name(self, bundle, tmp_path):
        # COL and NG swapped: the same fuels in another column order forecast the same bytes
        train_out = tmp_path / "train"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", train_out,
                   "--epochs", 0, "--seed", 2) == 0
        swapped = tmp_path / "swapped.csv"
        write_rows(swapped, ([row[0], row[2], row[1], *row[3:]]
                             for row in read_rows(bundle / "fuel_mix.csv")))
        for dataset, out in ((bundle / "fuel_mix.csv", "p1"), (swapped, "p2")):
            assert run("predict", "--dataset", dataset, "--checkpoint",
                       train_out / "checkpoint.json", "--out", tmp_path / out) == 0
        assert ((tmp_path / "p1" / "predicted_signal.csv").read_bytes()
                == (tmp_path / "p2" / "predicted_signal.csv").read_bytes())

    def test_dataset_header_cells_stripped(self, bundle, tmp_path):
        # `timestamp, COL,NG,...,OTH `: the fuels are `fuel_mix.csv`'s own
        rows = read_rows(bundle / "fuel_mix.csv")
        rows[0][1], rows[0][-1] = " " + rows[0][1], rows[0][-1] + " "
        spaced = tmp_path / "spaced.csv"
        write_rows(spaced, rows)
        for dataset, name in ((bundle / "fuel_mix.csv", "plain"), (spaced, "spaced")):
            assert run("train", "--dataset", dataset, "--labels", bundle / "labels.csv",
                       "--out", tmp_path / f"train-{name}", "--epochs", 0,
                       "--arch", "linear_baseline") == 0
            assert run("predict", "--dataset", dataset, "--checkpoint",
                       tmp_path / "train-plain" / "checkpoint.json",
                       "--out", tmp_path / f"pred-{name}") == 0
        for out, name in (("train", "checkpoint.json"), ("pred", "predicted_signal.csv")):
            assert ((tmp_path / f"{out}-plain" / name).read_bytes()
                    == (tmp_path / f"{out}-spaced" / name).read_bytes())

    def test_diverged_training_rejected(self, tmp_path, capsys):
        data = tmp_path / "bundle"
        assert run("synth", "--out", data, "--hours", 200) == 0
        out = tmp_path / "run"
        assert run("train", "--dataset", data / "fuel_mix.csv", "--labels", data / "labels.csv",
                   "--out", out, "--epochs", 1, "--lr", 1e300) == 1
        assert capsys.readouterr().err == "error: non-finite validation loss at epoch 0\n"
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["train", "sweep", "predict"])
    def test_dataset_gap_rejected(self, bundle, tmp_path, capsys, command):
        # an empty cell early in the train span, outside every held-out history window
        rows = read_rows(bundle / "fuel_mix.csv")
        rows[5][2] = ""
        dataset = tmp_path / "fuel_mix.csv"
        with open(dataset, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        ckpt = tmp_path / "checkpoint.json"
        linear_checkpoint(ckpt)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("an earlier run\n")
        inputs = (["--checkpoint", ckpt] if command == "predict"
                  else ["--labels", bundle / "labels.csv", "--epochs", 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a warning would escape `main` as an exception
            assert run(command, "--dataset", dataset, "--out", out, *inputs) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset}: no {rows[0][2]} share at hour {rows[5][0]}; "
            "fill gaps with `gridhealth ingest` first\n")
        assert snapshot(out) == {"manifest.json": b"an earlier run\n"}
        assert not list(tmp_path.glob(".out.*"))

    @pytest.mark.parametrize("command, hours, problem", [
        ("train", 40, "train split of 32 hours holds no complete 48-hour training window"),
        ("train", 58, "train split of 47 hours holds no complete 48-hour training window"),
        ("sweep", 100, "test split of 20 hours holds no complete 24-hour forecast window"),
        ("predict", 100, "test split of 20 hours holds no complete 24-hour forecast window"),
    ])
    def test_short_dataset_named_with_its_hours(self, tmp_path, capsys, command, hours, problem):
        data = tmp_path / "bundle"
        assert run("synth", "--out", data, "--hours", hours) == 0
        ckpt = tmp_path / "checkpoint.json"
        linear_checkpoint(ckpt)
        inputs = (["--checkpoint", ckpt] if command == "predict"
                  else ["--labels", data / "labels.csv", "--epochs", 1])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, "--dataset", data / "fuel_mix.csv", "--out", out, *inputs) == 1
        assert capsys.readouterr().err == (
            f"error: {data / 'fuel_mix.csv'} has {hours} hours: {problem}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_missing_label_hour_names_both_files(self, bundle, tmp_path, capsys, command):
        labels = tmp_path / "labels.csv"
        labels.write_text("".join((bundle / "labels.csv").read_text().splitlines(True)[:5]))
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("an earlier run\n")
        capsys.readouterr()
        assert run(command, "--dataset", bundle / "fuel_mix.csv", "--labels", labels,
                   "--out", out, "--epochs", 1) == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: no health label for hour 4 of {bundle / 'fuel_mix.csv'}\n")
        assert snapshot(out) == {"manifest.json": b"an earlier run\n"}

    def test_non_utf8_dataset_rejected(self, bundle, tmp_path, capsys):
        dataset = tmp_path / "fuel_mix.csv"
        dataset.write_bytes((bundle / "fuel_mix.csv").read_bytes().replace(b"\n", b"\n\xe9", 1))
        out = tmp_path / "run"
        assert run("train", "--dataset", dataset, "--labels", bundle / "labels.csv",
                   "--out", out, "--epochs", 0) == 1
        assert capsys.readouterr().err.startswith(f"error: {dataset}: not UTF-8 text")
        assert not (out / "checkpoint.json").exists()


def _bad_format(p):
    p["format"] = "gridhealth-checkpoint-v0"


def _missing_param(p):
    del p["params"]["lin_b"]


def _extra_param(p):
    p["converter_params"]["w4"] = [[0.0]]


def _misshapen_param(p):
    # drop the last row of lin_w, keeping its shape tag and bytes consistent
    entry = p["params"]["lin_w"]
    rows, cols = entry["shape"]
    raw = base64.b64decode(entry["data"])[:(rows - 1) * cols * 8]
    entry["shape"] = [rows - 1, cols]
    entry["data"] = base64.b64encode(raw).decode("ascii")


def _missing_header_key(p):
    del p["model"]["window"]


def _bool_header_number(p):
    # a bool used to pass as the integer 1; an attention model then failed with a TypeError
    p["model"]["heads"] = True


def _unknown_key(p):
    p["comment"] = "ignored before"


def _unknown_header_key(p):
    p["model"]["stride"] = 2


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def payload(self, bundle, tmp_path_factory):
        out = tmp_path_factory.mktemp("ckpt")
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", out,
                   "--epochs", 0, "--seed", 1, "--arch", "linear_baseline") == 0
        return (out / "checkpoint.json").read_text()

    @pytest.mark.parametrize("corrupt, key", [
        (_bad_format, "format"), (_missing_param, "lin_b"), (_extra_param, "w4"),
        (_misshapen_param, "lin_w"), (_missing_header_key, "window"),
        (_bool_header_number, "heads"), (_unknown_key, "comment"),
        (_unknown_header_key, "stride"),
    ])
    def test_predict_rejects(self, bundle, payload, tmp_path, capsys, corrupt, key):
        data = json.loads(payload)
        corrupt(data)
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(data))
        out = tmp_path / "pred"
        assert run("predict", "--dataset", bundle / "fuel_mix.csv",
                   "--checkpoint", ckpt, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(ckpt) in err and repr(key) in err
        assert err.count("\n") == 1
        assert not (out / "predicted_signal.csv").exists()

    @pytest.mark.parametrize("key, value", [("heads", 0), ("embed_dim", 0), ("heads", -4),
                                            ("decoder_layers", 0)])
    def test_predict_rejects_bad_network(self, bundle, tmp_path, capsys, key, value):
        train_out = tmp_path / "train"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", train_out, "--epochs", 0) == 0
        data = json.loads((train_out / "checkpoint.json").read_text())
        data["model"][key] = value
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(data))
        out = tmp_path / "pred"
        assert run("predict", "--dataset", bundle / "fuel_mix.csv",
                   "--checkpoint", ckpt, "--out", out) == 1
        assert capsys.readouterr().err == (f"error: {ckpt}: bad network description "
                                           f"({key} must be at least 1, got {value})\n")
        assert not (out / "predicted_signal.csv").exists()

    def test_predict_rejects_non_json(self, bundle, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text('{"format": ')
        out = tmp_path / "pred"
        assert run("predict", "--dataset", bundle / "fuel_mix.csv",
                   "--checkpoint", ckpt, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {ckpt}")
        assert not (out / "predicted_signal.csv").exists()

    def test_predict_rejects_other_fuel_count(self, bundle, tmp_path, capsys):
        # the dataset lacks the last four fuels
        self.assert_rejects_fuels(bundle, tmp_path, capsys, lambda row: row[:5])

    @pytest.mark.parametrize("rewrite", [
        lambda row: ["COAL" if cell == "COL" else cell for cell in row],    # renamed
        lambda row: [*row, "BAT" if row[0] == "timestamp" else "0.0"],      # extra
    ], ids=["renamed", "extra"])
    def test_predict_rejects_other_fuel_names(self, bundle, tmp_path, capsys, rewrite):
        self.assert_rejects_fuels(bundle, tmp_path, capsys, rewrite)

    @staticmethod
    def assert_rejects_fuels(bundle, tmp_path, capsys, rewrite):
        """predict on the bundle with each row rewritten fails, naming both fuel lists."""
        rows = [rewrite(row) for row in read_rows(bundle / "fuel_mix.csv")]
        dataset = tmp_path / "other_fuels.csv"
        write_rows(dataset, rows)
        ckpt = tmp_path / "checkpoint.json"
        linear_checkpoint(ckpt)
        out = tmp_path / "pred"
        out.mkdir()
        (out / "manifest.json").write_text("an earlier run\n")
        assert run("predict", "--dataset", dataset, "--checkpoint", ckpt, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset} has fuel columns {','.join(rows[0][1:])}; "
            f"the checkpoint {ckpt} forecasts {','.join(CANONICAL_FUELS)}\n")
        assert snapshot(out) == {"manifest.json": b"an earlier run\n"}
        assert not list(tmp_path.glob(".pred.*"))

    def test_predict_rejects_non_finite_prediction(self, bundle, payload, tmp_path, capsys):
        # finite converter weights whose products overflow make the predicted costs inf
        data = json.loads(payload)
        for name, value in (("w2", 0.0), ("b2", 1.0), ("w3", 1e308)):
            entry = data["converter_params"][name]
            raw = np.full(entry["shape"], value).astype("<f8").tobytes()
            entry["data"] = base64.b64encode(raw).decode("ascii")
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(data))
        out = tmp_path / "pred"
        assert run("predict", "--dataset", bundle / "fuel_mix.csv", "--checkpoint", ckpt,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: predicted health costs at hour") and "not finite" in err
        assert not (out / "predicted_signal.csv").exists()


class TestSchedule:
    def write_signal(self, path, hours=48, constant=None):
        rows = [["timestamp", "internal_usd_per_mwh", "external_usd_per_mwh"]]
        for t in range(hours):
            if constant is not None:
                i = e = constant
            else:
                i = 2.0 + np.sin(t / 3.0)
                e = 1.0 + 0.5 * np.cos(t / 5.0)
            rows.append([t, repr(float(i)), repr(float(e))])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def write_sessions(self, path, rows):
        header = [["session_id", "arrival", "departure", "demand_kwh", "rate_kw"]]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(header + rows)

    def test_constant_signal_all_equal(self, tmp_path, capsys):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig, constant=2.5)
        self.write_sessions(ses, [["a", 5, 15, 20.0, 5.0]])
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sessions", ses, "--out", out) == 0
        rows = read_rows(out / "results.csv")
        totals = {r[0]: float(r[1]) for r in rows[1:]}
        assert len(set(totals.values())) == 1

    def test_reductions_recomputable(self, tmp_path):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig)
        self.write_sessions(ses, [["a", 0, 20, 30.0, 5.0], ["b", 10, 40, 44.0, 5.0]])
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sessions", ses, "--out", out) == 0
        rows = read_rows(out / "results.csv")
        header, data = rows[0], rows[1:]
        totals = {r[0]: float(r[1]) for r in data}
        for r in data:
            expected = 100.0 * (totals["first_hours"] - float(r[1])) / totals["first_hours"]
            assert abs(float(r[2]) - expected) < 0.01
        opt = totals["optimal"]
        assert all(opt <= v + 1e-12 for v in totals.values())

    def test_sampled_fleet_deterministic(self, tmp_path):
        sig = tmp_path / "sig.csv"
        self.write_signal(sig, hours=24 * 5)
        spec = {"count": 20, "rate_kw": 6.0, "days": 3,
                "arrival_hist": {str(h): 1.0 for h in (17, 18, 19)},
                "departure_hist": {str(h): 1.0 for h in (6, 7)},
                "demand": {"kind": "uniform", "low": 5, "high": 25}}
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("schedule", "--signal", sig, "--sample-config", spec_path,
                       "--out", out, "--seed", 12) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "sessions.csv").read_bytes() == (b / "sessions.csv").read_bytes()

    def test_failed_rerun_leaves_previous_outputs(self, tmp_path):
        sig, spec_path, out = tmp_path / "sig.csv", tmp_path / "fleet.json", tmp_path / "c"
        self.write_signal(sig, hours=240)
        spec = readme_fleet_spec()
        spec_path.write_text(json.dumps(spec))
        assert run("schedule", "--signal", sig, "--sample-config", spec_path, "--out", out) == 0
        before = snapshot(out)
        # 400 days of sessions fall outside the 240 h signal
        spec_path.write_text(json.dumps({**spec, "days": 400}))
        assert run("schedule", "--signal", sig, "--sample-config", spec_path, "--out", out) == 1
        assert snapshot(out) == before
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "sessions.csv"), str(out / "results.csv")]

    def test_sampled_sessions_feed_back(self, bundle, tmp_path):
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(readme_fleet_spec()))
        sampled, replayed = tmp_path / "sampled", tmp_path / "replayed"
        assert run("schedule", "--signal", bundle / "labels.csv", "--sample-config", spec,
                   "--out", sampled, "--seed", 12) == 0
        assert run("schedule", "--signal", bundle / "labels.csv",
                   "--sessions", sampled / "sessions.csv", "--out", replayed) == 0
        assert (replayed / "results.csv").read_bytes() == (sampled / "results.csv").read_bytes()

    def test_coverage_gap_names_offender(self, tmp_path, capsys):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig, hours=24)
        self.write_sessions(ses, [["late", 20, 40, 5.0, 5.0]])
        assert run("schedule", "--signal", sig, "--sessions", ses,
                   "--out", tmp_path / "out") == 1
        assert "late" in capsys.readouterr().err

    def test_strategy_flag_filters_rows(self, tmp_path):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig)
        self.write_sessions(ses, [["a", 0, 20, 30.0, 5.0]])
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sessions", ses, "--out", out,
                   "--strategy", "optimal") == 0
        rows = read_rows(out / "results.csv")
        assert len(rows) == 2 and rows[1][0] == "optimal"
        # reductions vs baselines still populated
        assert all(float(v) >= 0.0 for v in rows[1][2:])

    @pytest.mark.parametrize("row", [["a", 0, 20, "nan", 5.0], ["a", 0, 20, 30.0, "inf"],
                                     ["a", 20, 10, 30.0, 5.0], ["a", 0, 1, "1e308", "1e-10"],
                                     ["a", "99999999999999999999", 20, 30.0, 5.0]])
    def test_bad_session_named_with_line(self, tmp_path, capsys, row):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig)
        self.write_sessions(ses, [["ok", 0, 20, 30.0, 5.0], row])
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sessions", ses, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{ses}:3:" in err
        assert not (out / "results.csv").exists()

    def test_nan_label_rejected(self, tmp_path, capsys):
        sig, ses = tmp_path / "sig.csv", tmp_path / "ses.csv"
        self.write_signal(sig)
        lines = sig.read_text().splitlines()
        lines[5] = "4,nan,1.0"
        sig.write_text("\n".join(lines) + "\n")
        self.write_sessions(ses, [["a", 0, 20, 30.0, 5.0]])
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sessions", ses, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{sig}:6:" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("spec, key", [
        ({"count": 5}, "arrival_hist"),
        ({"count": "five", "rate_kw": 6.0, "arrival_hist": [1.0] * 24,
          "departure_hist": [1.0] * 24, "demand": [10.0]}, "count"),
        ({"count": 5, "rate_kw": 6.0, "arrival_hist": [1.0] * 24,
          "departure_hist": [1.0] * 24, "demand": [10.0], "days": 1e30}, "days"),
        ({"count": 5, "rate_kw": 6.0, "arrival_hist": [1.0] * 24,
          "departure_hist": [1.0] * 24, "demand": [10.0], "days": 2**61}, "days"),
        *(({"rate_kw": 6.0, "arrival_hist": [1.0] * 24, "departure_hist": [1.0] * 24,
            "demand": [10.0], "count": 5, key: value}, key)
          for key, value in (("count", -5), ("count", 0), ("count", 1.5), ("count", True),
                             ("days", 2.9), ("days", 0), ("days", False), ("days", None),
                             ("count", 10**13), ("rate_kw", float("nan")),
                             ("rate_kw", float("inf")), ("rate_kw", 0), ("demand", [float("nan")]),
                             ("demand", {"kind": "uniform", "low": 5, "high": float("inf")}),
                             ("demand", {"kind": "uniform", "low": -5, "high": 5}))),
    ])
    def test_bad_sample_config_names_key(self, tmp_path, capsys, spec, key):
        sig, spec_path = tmp_path / "sig.csv", tmp_path / "fleet.json"
        self.write_signal(sig)
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run("schedule", "--signal", sig, "--sample-config", spec_path,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: ") and repr(key) in err
        assert not (out / "sessions.csv").exists() and not (out / "results.csv").exists()

    @pytest.mark.parametrize("key, value", [("dayz", 3), ("long_fraction", 0.5)])
    def test_unknown_sample_config_key_rejected(self, tmp_path, capsys, key, value):
        sig, spec_path, out = tmp_path / "sig.csv", tmp_path / "fleet.json", tmp_path / "out"
        self.write_signal(sig, hours=240)
        spec_path.write_text(json.dumps({**readme_fleet_spec(), key: value}))
        assert run("schedule", "--signal", sig, "--sample-config", spec_path, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {spec_path}: unknown key {key!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json", "sig.csv"]

    def test_missing_sessions_and_sample_config(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        self.write_signal(sig)
        assert run("schedule", "--signal", sig, "--out", tmp_path / "out") == 1
        assert "sample-config" in capsys.readouterr().err


def _argv(command, bundle, tmp_path):
    """A complete command line for `command`, writing to tmp_path/out."""
    out = tmp_path / "out"
    if command in ("train", "sweep"):
        return [command, "--dataset", bundle / "fuel_mix.csv", "--labels", bundle / "labels.csv",
                "--out", out, "--epochs", 0, "--arch", "linear_baseline"]
    if command == "ingest":
        cmap = tmp_path / "map.csv"
        cmap.write_text("raw_label,canonical\n" + "".join(
            f"{f},{f}\n" for f in ("COL", "NG", "OIL", "NUC", "WAT", "WND", "SUN", "OTH")))
        return ["ingest", "--mix", bundle / "fuel_mix.csv", "--category-map", cmap, "--out", out]
    if command == "schedule":
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(readme_fleet_spec()))
        return ["schedule", "--signal", bundle / "labels.csv", "--sample-config", spec,
                "--out", out]
    return ["synth", "--out", out, "--hours", 48]


BAD_FLAGS = [("train", "--batch", 0), ("train", "--epochs", -1), ("train", "--seed", -1),
             ("train", "--lr", 0), ("train", "--lr", "nan"), ("sweep", "--betas", "0.5,x"),
             ("sweep", "--betas", ","), ("synth", "--seed", -1), ("synth", "--hours", 0),
             ("schedule", "--seed", -1), ("ingest", "--period", 0),
             ("sweep", "--betas", "0.5,0.5")]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS)
def test_bad_flag_value_rejected(bundle, tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as info:
        run(*_argv(command, bundle, tmp_path), flag, value)
    assert info.value.code == 2 and f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_takes_no_beta(bundle, tmp_path, capsys):
    # beta_sweep sets the beta of every run, so a base beta would be read by nothing
    with pytest.raises(SystemExit) as info:
        run(*_argv("sweep", bundle, tmp_path), "--beta", 0.5)
    assert info.value.code == 2
    assert "unrecognized arguments: --beta 0.5" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"beta": 0.5}))
    assert run(*_argv("sweep", bundle, tmp_path), "--config", conf) == 1
    assert capsys.readouterr().err == f"error: {conf}: unknown key 'beta'\n"
    assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, tmp_path, bundle):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"epochs": 0, "seed": 11}))
        out = tmp_path / "out"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", out,
                   "--config", conf, "--arch", "linear_baseline") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 0
        assert manifest["config"]["seed"] == 11

    @pytest.mark.parametrize("content", [b'{"epochs": ', b'{"epochs": 0, "seed": "\xe9"}'],
                             ids=["truncated", "latin1_byte"])
    def test_unreadable_config_rejected(self, tmp_path, bundle, capsys, content):
        conf = tmp_path / "conf.json"
        conf.write_bytes(content)
        out = tmp_path / "out"
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", out, "--config", conf) == 1
        assert capsys.readouterr().err.startswith(f"error: {conf}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "window", 48), ("train", "arch", "foo"), ("train", "epochs", 1.5),
        ("train", "epochs", True), ("sweep", "betas", [0.5, 0.9]),
        *((command, flag[2:], value) for command, flag, value in BAD_FLAGS)])
    def test_bad_config_value_names_key(self, tmp_path, bundle, capsys, command, key, value):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: value}))
        assert run(*_argv(command, bundle, tmp_path), "--config", conf) == 1
        assert capsys.readouterr().err.startswith(f"error: {conf}: bad value for key {key!r}: ")
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, bundle, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"gpu": True}))
        assert run("train", "--dataset", bundle / "fuel_mix.csv",
                   "--labels", bundle / "labels.csv", "--out", tmp_path / "o",
                   "--config", conf) == 1
        assert "gpu" in capsys.readouterr().err

    def test_help_and_config_are_not_config_keys(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"help": True, "config": "elsewhere.json"}))
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--hours", "48", "--config", conf) == 1
        assert capsys.readouterr().err == f"error: {conf}: unknown key 'help'\n"
        assert not out.exists()
