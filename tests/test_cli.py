import contextlib
import csv
import dataclasses
import json
import logging
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mimosec
import mimosec.cli as cli
import mimosec.harness as harness
from mimosec import (SCHEMES, ConfigParseError, DegenerateChannelError, SweepSpec,
                     fit_cost_anchor, fit_growth, run_sweep)
from mimosec.cli import emit_results, main, parse_config
from mimosec.config import MAX_SIZE
from mimosec.config import COST_ESTIMATORS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SPARSE_TAS = """\
# sparse network, per-user strongest-antenna selection
preset: sparse
scenario: sparse-demo
scheme: TAS_A
m_values: pow2:4..8
trials: 4
seed: 11
"""

TWO_DOCS = """\
preset: sparse
scheme: TAS_A
m_values: 16, 32
trials: 2
seed: 1
---
preset: dense
scenario: dense-quantized
scheme: HADP_B
quant_bits: 4
m_values: 16, 32
trials: 2
seed: 2
"""

# Finite inputs whose powers overflow double precision: the rates are NaN.
NON_FINITE = ("preset: sparse\nscheme: HADP_A\nbeta: 1e300\ntotal_power: 1e300\n"
              "sigma2: 1e-300\nm_values: 16, 32\ntrials: 2\nseed: 1\n")


def write(tmp_path, text, name="sweep.cfg"):
    """Write ``text`` to ``name`` in ``tmp_path``: a str as UTF-8, bytes as they are."""
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


class TestParseConfig:
    def test_preset_expansion(self, tmp_path):
        spec, = parse_config(write(tmp_path, SPARSE_TAS))
        assert spec.K == 16 and spec.J == 2 and spec.L == 16
        assert spec.total_power == 1.0
        assert list(spec.thetas) == [0.1, 0.1]
        assert spec.m_values == (16, 32, 64, 128, 256)
        assert spec.cost_estimator == "mean_of_ratios"
        assert list(spec.weights) == [1.0] * 16

    def test_preset_profile_hits_reference_snrs(self, tmp_path):
        spec, = parse_config(write(tmp_path, SPARSE_TAS))
        cfg = spec.config_for(64)
        assert cfg.snr_user_db() == pytest.approx(np.zeros(16))
        assert cfg.snr_eve_db() == pytest.approx(np.full(2, -10.0))

    def test_multiple_documents(self, tmp_path):
        specs = parse_config(write(tmp_path, TWO_DOCS))
        assert [s.scheme for s in specs] == ["TAS_A", "HADP_B"]
        assert specs[0].scenario == "sparse"  # defaults to the preset name
        assert specs[1].quant_bits == 4
        assert specs[1].J == 16

    def test_explicit_vectors_and_overrides(self, tmp_path):
        text = ("scenario: custom\nscheme: TAS_B\nK: 2\nJ: 1\nL: 2\n"
                "m_values: 4, 8\ntotal_power: 2.0\nsigma2: 0.5\nrho2: 1.0\n"
                "beta: 1.0, 0.5\ntheta: 0.2\nweights: 2.0\n"
                "trials: 3\nseed: 9\ncost_estimator: ratio_of_means\n")
        spec, = parse_config(write(tmp_path, text))
        assert list(spec.betas) == [1.0, 0.5]
        assert list(spec.weights) == [2.0, 2.0]
        assert spec.cost_estimator == "ratio_of_means"

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, "preset: sparse\nbogus: 3\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert "bogus" in str(err.value)
        assert "line 2" in str(err.value)

    def test_type_mismatch_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "preset: sparse\nscheme: TAS_A\n"
                               "m_values: 16\ntrials: lots\nseed: 1\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert "trials" in str(err.value)
        assert "line 4" in str(err.value)

    def test_missing_key_is_named(self, tmp_path):
        path = write(tmp_path, "preset: sparse\nscheme: TAS_A\n"
                               "m_values: 16\ntrials: 1\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert "seed" in str(err.value)

    def test_quant_bits_required_for_hadp_b(self, tmp_path):
        path = write(tmp_path, "preset: sparse\nscheme: HADP_B\n"
                               "m_values: 16\ntrials: 1\nseed: 1\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert "quant_bits" in str(err.value)

    def test_wrong_vector_length_rejected(self, tmp_path):
        path = write(tmp_path, "preset: sparse\nscheme: TAS_A\n"
                               "beta: 1.0, 2.0\nm_values: 16\n"
                               "trials: 1\nseed: 1\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert "beta" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_config(tmp_path / "nope.cfg")


def tiny_spec(m_values=(8, 16), trials=3, scheme="TAS_A", J=1):
    return SweepSpec(scenario="tiny", scheme=scheme, K=2, J=J, L=2,
                     total_power=1.0, sigma2=1.0, rho2=1.0,
                     betas=np.ones(2), thetas=np.full(J, 0.1),
                     weights=np.ones(2), m_values=m_values, trials=trials,
                     master_seed=3)


def manifest_with(**changes):
    return json.dumps({"sweep": {**tiny_spec().to_dict(), **changes}})


class TestEmitResults:
    def test_csv_layout_and_roundtrip(self, tmp_path):
        result = run_sweep(tiny_spec())
        out = tmp_path / "tiny.csv"
        emit_results(result, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario,scheme,M,trials,resamples,r_sum_mean")
        assert len(lines) == 1 + len(result.points)
        cells = lines[1].split(",")
        assert cells[0] == "tiny" and cells[1] == "TAS_A"
        assert int(cells[2]) == 8 and int(cells[3]) == 3
        # values survive the 9-significant-digit format
        assert float(cells[5]) == pytest.approx(result.points[0].r_sum_mean,
                                                rel=1e-8)

    def test_empty_sweep_emits_header_only(self, tmp_path):
        result = run_sweep(tiny_spec(m_values=()))
        out = tmp_path / "empty.csv"
        emit_results(result, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        # The SNRs do not depend on M, so an empty sweep records them too.
        derived = json.loads(out.with_suffix(".manifest.json").read_text())["derived"]
        assert derived == {"snr_user_db": [0.0, 0.0], "snr_eve_db": [-10.0]}

    @pytest.mark.parametrize("overrides", [dict(sigma2=1e-320), dict(betas=0.0)])
    def test_an_infinite_snr_is_written_as_null(self, tmp_path, overrides):
        def no_constant(name):
            raise AssertionError(f"manifest holds {name}")

        out = tmp_path / "empty.csv"
        emit_results(run_sweep(dataclasses.replace(tiny_spec(m_values=()), **overrides)), out)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text(),
                              parse_constant=no_constant)
        assert manifest["derived"] == {"snr_user_db": [None, None], "snr_eve_db": [-10.0]}

    def test_reemission_is_byte_identical(self, tmp_path):
        result = run_sweep(tiny_spec())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(result, a)
        emit_results(run_sweep(tiny_spec()), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("failing", ["json.dumps", "os.replace"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, failing):
        real_replace = cli.os.replace

        def refuse(*args, **kwargs):
            raise OSError("injected")

        def replace_csv_only(src, dst):
            if str(dst).endswith(".manifest.json"):
                raise OSError("injected")
            real_replace(src, dst)

        if failing == "json.dumps":
            monkeypatch.setattr(cli.json, "dumps", refuse)
        else:
            monkeypatch.setattr(cli.os, "replace", replace_csv_only)
        with pytest.raises(Exception, match="injected"):
            emit_results(run_sweep(tiny_spec()), tmp_path / "tiny.csv")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_contents_and_reload(self, tmp_path):
        result = run_sweep(tiny_spec())
        out = tmp_path / "tiny.csv"
        emit_results(result, out)
        manifest_path = tmp_path / "tiny.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tool"] == "mimosec"
        assert manifest["master_seed"] == 3
        assert manifest["sweep"]["m_values"] == [8, 16]
        assert manifest["derived"]["snr_user_db"] == pytest.approx([0.0, 0.0])
        reloaded, = parse_config(manifest_path)
        rerun = run_sweep(reloaded)
        assert rerun.points == result.points


class TestSubcommands:
    def test_sweep_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16, 32"))
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 0
        csv_path = tmp_path / "sparse-demo_TAS_A.csv"
        assert csv_path.exists()
        assert (tmp_path / "sparse-demo_TAS_A.manifest.json").exists()
        assert str(csv_path) in capsys.readouterr().out

    def test_sweep_without_eavesdroppers_has_zero_leakage(self, tmp_path):
        text = ("scenario: clean\nscheme: TAS_A\nK: 2\nJ: 0\nL: 2\n"
                "m_values: 4, 8\ntotal_power: 1.0\nsigma2: 1.0\nrho2: 1.0\n"
                "beta: 1.0\ntheta: 0.1\ntrials: 3\nseed: 2\n")
        cfg = write(tmp_path, text)
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 0
        rows = (tmp_path / "clean_TAS_A.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert float(cells[9]) == 0.0   # leakage_mean
            assert float(cells[11]) == 0.0  # cost_mean

    def test_manifest_rerun_reproduces_csv_bytes(self, tmp_path):
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16, 32"))
        main(["sweep", str(cfg), "--out", str(tmp_path / "one"), "--workers", "1"])
        first = (tmp_path / "one" / "sparse-demo_TAS_A.csv").read_bytes()
        manifest = tmp_path / "one" / "sparse-demo_TAS_A.manifest.json"
        main(["sweep", str(manifest), "--out", str(tmp_path / "two"), "--workers", "1"])
        second = (tmp_path / "two" / "sparse-demo_TAS_A.csv").read_bytes()
        assert first == second

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16, 32"))
        main(["sweep", str(cfg), "--out", str(tmp_path / "one"), "--workers", "1"])
        main(["sweep", str(cfg), "--out", str(tmp_path / "two"),
              "--seed", "99", "--workers", "1"])
        a = (tmp_path / "one" / "sparse-demo_TAS_A.csv").read_bytes()
        b = (tmp_path / "two" / "sparse-demo_TAS_A.csv").read_bytes()
        assert a != b

    def test_fit_passthrough_on_synthetic_csv(self, tmp_path, capsys):
        m = [16, 64, 256, 1024]
        y = [2.0 + 0.5 * 2 * np.log2(v) for v in m]
        rows = ["scenario,scheme,M,trials,resamples,r_sum_mean,r_sum_se,"
                "r_sum_noeve_mean,r_sum_noeve_se,leakage_mean,leakage_se,"
                "cost_mean,cost_se"]
        rows += [f"syn,HADP_A,{v},1,0,0,0,{r},0,0,0,0,0" for v, r in zip(m, y)]
        path = tmp_path / "syn.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--model", "LOG_GROWTH", "--k", "2"]) == 0
        out = capsys.readouterr().out
        fit = fit_growth(m, y, 2, "LOG_GROWTH")
        assert f"slope: {fit.slope:.9g}" in out
        assert f"intercept: {fit.intercept:.9g}" in out

    @pytest.mark.parametrize("model", ["LOG_COST", "LOGLOG_COST"])
    def test_cost_fit_anchors_at_the_largest_m_by_default(self, tmp_path, capsys, model):
        m, cost = [16, 64, 256, 1024], [0.5, 0.3, 0.25, 0.1]
        rows = ["M,cost_mean"] + [f"{v},{c}" for v, c in zip(m, cost)]
        path = write(tmp_path, "\n".join(rows) + "\n", name="cost.csv")
        outputs = {}
        for anchor in (None, "1024", "16"):
            flags = [] if anchor is None else ["--anchor", anchor]
            assert main(["fit", str(path), "--model", model, *flags]) == 0
            outputs[anchor] = capsys.readouterr().out
        fit = fit_cost_anchor(m, cost, model, 1024)
        assert f"intercept: {fit.intercept:.9g}" in outputs[None]
        assert outputs[None] == outputs["1024"] != outputs["16"]

    def test_sweeps_of_equal_name_get_numbered_files(self, tmp_path, capsys):
        doc = "preset: sparse\nscheme: TAS_A\nm_values: 16\ntrials: 1\nseed: {}\n"
        cfg = write(tmp_path, doc.format(1) + "---\n" + doc.format(2))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "both")]) == 0
        assert sorted(p.name for p in (tmp_path / "both").glob("*.csv")) == [
            "sparse_TAS_A.csv", "sparse_TAS_A_1.csv"]
        second = write(tmp_path, doc.format(2), name="second.cfg")
        assert main(["sweep", str(second), "--out", str(tmp_path / "second")]) == 0
        assert ((tmp_path / "both" / "sparse_TAS_A_1.csv").read_bytes()
                == (tmp_path / "second" / "sparse_TAS_A.csv").read_bytes())

    def test_gumbel_command_prints_harmonic_mean_max(self, capsys):
        assert main(["gumbel", "--m", "4096", "--trials", "10000"]) == 0
        out = dict(line.split(": ") for line in
                   capsys.readouterr().out.strip().splitlines())
        expected = sum(1.0 / i for i in range(1, 4097))
        assert float(out["mean_max"]) == pytest.approx(expected, rel=0.01)

    def test_clt_command(self, capsys):
        assert main(["clt", "--m", "64", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("ks_statistic: ")[1]) < 0.05

    def test_single_prints_rate_report(self, tmp_path, capsys):
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["single", str(cfg), "--m", "64", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "r_sum:" in out and "cost:" in out
        assert "\nresamples: 0\n" in out
        assert len(out.split("sinr: ")[1].splitlines()[0].split(",")) == 16

    @pytest.mark.parametrize("scheme", ["TAS_A", "HADP_A"])
    def test_single_reproduces_the_sweep_trial(self, tmp_path, capsys, scheme):
        # One trial per m: the sweep's r_sum_mean at m=64 is trial 0's r_sum.
        cfg = write(tmp_path, SPARSE_TAS.replace("TAS_A", scheme)
                    .replace("trials: 4", "trials: 1"))
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 0
        with (tmp_path / f"sparse-demo_{scheme}.csv").open(newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["M"] == "64")
        capsys.readouterr()
        assert main(["single", str(cfg), "--m", "64"]) == 0
        out = capsys.readouterr().out
        assert f"\nr_sum: {row['r_sum_mean']}\n" in out
        assert f"\nresamples: {row['resamples']}\n" in out

    def test_single_resamples_as_the_sweep_does(self, tmp_path, capsys, monkeypatch):
        real_run_trial = harness.run_trial
        calls = []

        def flaky(cfg, scheme, quant_bits, seed, trial_index, trial=None):
            calls.append(trial_index)
            if len(calls) == 1:
                raise DegenerateChannelError("injected")
            return real_run_trial(cfg, scheme, quant_bits, seed, trial_index, trial=trial)

        monkeypatch.setattr(harness, "run_trial", flaky)
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["single", str(cfg), "--m", "64", "--trial", "1"]) == 0
        # The redraw takes trial 1's stream one sweep length on: 1 + 4.
        assert calls == [1, 5]
        assert "\nresamples: 1\n" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "gone.cfg"
        assert main(["sweep", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err
        base = "preset: sparse\nscheme: TAS_A\nm_values: 16\ntrials: 1\nseed: 1\n"
        for extra, key in [("sigma2: nan", "sigma2"), ("rho2: -inf", "rho2"),
                           ("total_power: inf", "total_power"), ("beta: nan", "beta"),
                           ("theta: 0.1, nan", "theta"), ("weights: inf", "weights"),
                           ("cost_estimator: median", "cost_estimator")]:
            cfg = write(tmp_path, base + extra + "\n")
            out = tmp_path / key
            assert main(["sweep", str(cfg), "--out", str(out)]) == 1
            assert f"line 6 key '{key}'" in capsys.readouterr().err
            assert not out.exists()
        cfg = write(tmp_path, base.replace("TAS_A", "HADP_B") + "quant_bits: 0\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "b0")]) == 1
        assert "line 6 key 'quant_bits'" in capsys.readouterr().err
        assert not (tmp_path / "b0").exists()

    @pytest.mark.parametrize("body, key", [
        ("{not json", None),
        ("{}", "sweep"),
        ("[1]", "sweep"),
        ('{"sweep": [1]}', None),
        (manifest_with(K="16"), "K"),
        (manifest_with(sigma2=float("nan")), "sigma2"),
        (manifest_with(bogus=1), "bogus"),
        (manifest_with(scenario="a\rb"), "scenario"),
        (manifest_with(seed=-1), "seed"),
        (manifest_with(total_power=10 ** 400), "total_power"),
        (manifest_with(sigma2=10 ** 400), "sigma2"),
        (manifest_with(rho2=10 ** 400), "rho2"),
        (manifest_with(betas=[1.0, 10 ** 400]), "betas"),
        (manifest_with(thetas=[10 ** 400]), "thetas"),
        (manifest_with(weights=[10 ** 400, 1.0]), "weights"),
        ('{"sweep": {"K": 1' + "0" * 5000 + "}}", None),
        ('{"sweep": ' + "[" * 100_000 + "]" * 100_000 + "}", None),
        (b'{"sweep": {"scenario": "\xff"}}', None),
    ], ids=["malformed", "empty", "array", "sweep_array", "string_K", "nan_sigma2",
            "unknown_key", "control_character_scenario", "negative_seed", "huge_total_power",
            "huge_sigma2", "huge_rho2", "huge_beta", "huge_theta", "huge_weight",
            "over_digit_limit", "nested_too_deep", "ff_byte"])
    def test_bad_manifest_rejected(self, tmp_path, capsys, body, key):
        manifest = write(tmp_path, body, name="bad.manifest.json")
        with pytest.raises(ConfigParseError):
            parse_config(manifest)
        assert main(["sweep", str(manifest), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if key is not None:
            assert f"key '{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_integer_within_a_doubles_range_runs_as_that_double(self, tmp_path):
        # 10**20 is past numpy's integer types but within a double's range:
        # it runs as 1e20 does, and its manifest keeps the integer.
        csvs = {}
        for name, value in (("int", 10 ** 20), ("float", 1e20)):
            path = write(tmp_path, manifest_with(total_power=value, sigma2=value, rho2=value),
                         name=f"{name}.manifest.json")
            assert main(["sweep", str(path), "--out", str(tmp_path / name), "--workers", "1"]) == 0
            csvs[name] = (tmp_path / name / "tiny_TAS_A.csv").read_bytes()
        assert csvs["int"] == csvs["float"]
        manifest = json.loads((tmp_path / "int" / "tiny_TAS_A.manifest.json").read_text())
        assert [manifest["sweep"][k] for k in ("total_power", "sigma2", "rho2")] == [10 ** 20] * 3

    def test_fit_of_missing_csv_is_an_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv"), "--model", "LOG_GROWTH"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, detail", [
        ("a,b\n1,2\n", "no column 'M'"),
        ("M,r_sum_noeve_mean\n64,x\n", "line 2 column 'r_sum_noeve_mean': expected a number"),
        ("M,r_sum_noeve_mean\n64,nan\n", "line 2 column 'r_sum_noeve_mean': expected a finite"),
        ("M,r_sum_noeve_mean\n64,1\n128,-inf\n", "line 3 column 'r_sum_noeve_mean': expected a finite"),
        (f"M,r_sum_noeve_mean\n64,1\n1{'0' * 400},2\n", "line 3 column 'M': expected a finite"),
        ("M,r_sum_noeve_mean\n1,1\n64,2\n128,3\n", "log2 m regressor needs m >= 2"),
        (b"M,r_sum_noeve_mean\n64,1\n128,\xff\n", "bad.csv: not UTF-8"),
        ("M,r_sum_noeve_mean\n", "bad.csv: no data rows to fit"),
    ], ids=["no_results_columns", "non_numeric_cell", "nan_cell", "inf_cell", "huge_int_cell",
            "m_1_cell", "ff_byte", "header_only"])
    def test_fit_of_malformed_csv_is_an_error(self, tmp_path, capsys, text, detail):
        path = write(tmp_path, text, name="bad.csv")
        assert main(["fit", str(path), "--model", "LOG_GROWTH", "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, name", [
        (["sweep", "{path}", "--out", "{out}"], "sweep.cfg"),
        (["single", "{path}", "--m", "16"], "sweep.cfg"),
        (["fit", "{csv}", "--model", "LOG_GROWTH"], "res.manifest.json"),
    ], ids=["sweep_config", "single_config", "fit_sibling_manifest"])
    def test_non_utf8_input_is_an_error(self, tmp_path, capsys, argv, name):
        # A Latin-1 'é' in the scenario of a text config, or of the manifest
        # fit reads K from beside its CSV.
        body = (SPARSE_TAS.replace("sparse-demo", "caf\xe9") if name.endswith(".cfg")
                else manifest_with().replace('"tiny"', '"caf\xe9"'))
        path = write(tmp_path, body.encode("latin-1"), name=name)
        csv_path = write(tmp_path, "M,r_sum_noeve_mean\n64,1\n128,2\n", name="res.csv")
        out = tmp_path / "out"
        assert main([arg.format(path=path, out=out, csv=csv_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read: not UTF-8 (")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("K: 1000000000000000000000", "K"),
        ("K: 1000000000", "K"),
        ("J: 1000000000", "J"),
        ("L: 1000000000", "L"),
        ("m_values: 1000000000000000000000", "m_values"),
        ("trials: 1000000000000000000000", "trials"),
        ("m_values: 8, 16", "m_values"),
        ("m_values: pow2:6..30000", "m_values"),
    ])
    def test_size_out_of_bounds_is_an_error(self, tmp_path, capsys, line, key):
        # Rejected while the spec is built, before anything is allocated.
        name = line.split(":")[0]
        text = "".join(row for row in SPARSE_TAS.splitlines(keepends=True)
                       if not row.startswith(name + ":"))
        cfg = write(tmp_path, text + line + "\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"key '{key}'" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_rates_are_an_error(self, tmp_path, capsys):
        # Finite inputs whose powers overflow: the rates are NaN, and neither
        # sweep nor single may report them.
        cfg = write(tmp_path, "preset: sparse\nscheme: HADP_A\nbeta: 1e300\n"
                              "total_power: 1e300\nsigma2: 1e-300\nm_values: 16, 32\n"
                              "trials: 2\nseed: 1\n")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rates are not finite") and len(err.splitlines()) == 1
        assert not list(out.glob("*"))
        assert main(["single", str(cfg), "--m", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rates are not finite")
        assert captured.out == ""

    def test_failed_sweep_removes_the_directories_it_made(self, tmp_path, capsys):
        cfg = write(tmp_path, NON_FINITE)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "a" / "b"),
                     "--workers", "1"]) == 1
        assert not (tmp_path / "a").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["sweep", str(cfg), "--out", str(kept / "c"), "--workers", "1"]) == 1
        assert kept.is_dir() and not list(kept.iterdir())
        # A bad --seed is found before the directory is made.
        assert main(["sweep", str(cfg), "--seed", "-3", "--out", str(tmp_path / "d")]) == 1
        assert not (tmp_path / "d").exists()
        assert len(capsys.readouterr().err.splitlines()) == 3

    def test_non_finite_rates_print_one_line(self, tmp_path, fresh_python):
        # pytest captures warnings, so a new interpreter runs the commands,
        # with file descriptor 2 (its own and its workers') sent to stdout.
        cfg, out = str(write(tmp_path, NON_FINITE)), str(tmp_path / "out")
        code = ("import os; os.dup2(1, 2)\nfrom mimosec.cli import main\n"
                f"assert main(['sweep', {cfg!r}, '--out', {out!r}, '--workers', '2']) == 1\n"
                f"assert main(['single', {cfg!r}, '--m', '16']) == 1\n")
        lines = fresh_python(code).splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error: rates are not finite") for line in lines)

    @pytest.mark.parametrize("scheme", ["TAS_A", "HADP_A", "HADP_B"])
    def test_l_other_than_k_is_an_error_but_for_tas_b(self, tmp_path, capsys, scheme):
        text = SPARSE_TAS.replace("TAS_A", scheme) + "L: 4\n"
        if scheme == "HADP_B":
            text += "quant_bits: 4\n"
        cfg = write(tmp_path, text)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 8 key 'L'" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_tas_b_takes_its_own_l(self, tmp_path):
        cfg = write(tmp_path, SPARSE_TAS.replace("TAS_A", "TAS_B")
                    .replace("pow2:4..8", "16, 32") + "L: 4\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 0
        manifest = json.loads((tmp_path / "sparse-demo_TAS_B.manifest.json").read_text())
        assert manifest["sweep"]["L"] == 4 and manifest["sweep"]["K"] == 16

    def test_scenario_with_a_comma_is_quoted_and_fit_reads_it(self, tmp_path, capsys):
        cfg = write(tmp_path, SPARSE_TAS.replace("sparse-demo", "a,b")
                    .replace("pow2:4..8", "16, 32, 64"))
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 0
        path = tmp_path / "a-b_TAS_A.csv"
        assert path.read_text().splitlines()[1].startswith('"a,b",TAS_A,16,')
        with path.open(newline="") as fh:
            assert [row["scenario"] for row in csv.DictReader(fh)] == ["a,b"] * 3
        assert main(["fit", str(path), "--model", "LOG_GROWTH"]) == 0
        assert "slope: " in capsys.readouterr().out

    def test_pow2_grid_is_bounded_before_it_is_built(self, tmp_path, capsys):
        # The reader rejects the exponent; building 2**e up to a large b
        # first costs time and memory quadratic in b.
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "pow2:6..21"))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "line 5 key 'm_values': expected" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1099511627776", "1000000000000000000000"])
    def test_single_oversized_m_is_an_error(self, tmp_path, capsys, m):
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["single", str(cfg), "--m", m]) == 1
        assert capsys.readouterr().err.startswith("error: M must be between 1 and ")

    @pytest.mark.parametrize("argv, detail", [
        (["single", "hadp_sparse.cfg", "--m", "64", "--trial", "-1"], "non-negative"),
        (["single", "hadp_sparse.cfg", "--m", "64", "--trial", "200"], "in [0, 200)"),
        (["single", "hadp_sparse.cfg", "--m", "64", "--trial", "203"], "in [0, 200)"),
        (["single", "hadp_sparse.cfg", "--m", "64", "--seed", "-3"], "non-negative"),
        (["gumbel", "--m", "8", "--trials", "3", "--seed", "-1"], "non-negative"),
        (["gumbel", "--m", "0", "--trials", "3"], "m between 1 and"),
        (["gumbel", "--m", "-4", "--trials", "3"], "m between 1 and"),
        (["gumbel", "--m", "1000000000000000000000", "--trials", "3"], "m between 1 and"),
        (["gumbel", "--m", "8", "--trials", "0"], "trials between 1 and"),
        (["clt", "--m", "0", "--trials", "3"], "m between 1 and"),
        (["clt", "--m", "8", "--trials", str(MAX_SIZE + 1)], "trials between 1 and"),
        (["single", "hadp_sparse.cfg", "--m", "8"], "at least max(L, K) = 16, got 8"),
        (["single", "hadp_sparse.cfg", "--m", "0"], "at least max(L, K) = 16, got 0"),
        (["fit", "results.csv", "--model", "LOG_GROWTH", "--k", "-3"], "--k must be at least 1"),
        (["fit", "results.csv", "--model", "LOG_GROWTH", "--k", "0"], "--k must be at least 1"),
        (["fit", "results.csv", "--model", "LOG_GROWTH", "--k", "2000000"],
         f"--k must be at least 1 and at most {MAX_SIZE}"),
        (["fit", "results.csv", "--model", "LOG_GROWTH", "--k", "1" * 401],
         f"--k must be at least 1 and at most {MAX_SIZE}"),
        (["fit", "results.csv", "--model", "LOG_COST", "--anchor", "1" * 401],
         f"--anchor must be at least 1 and at most {MAX_SIZE}"),
    ], ids=["single_trial_-1", "single_trial_200", "single_trial_203", "single_seed_-3",
            "gumbel_seed_-1", "gumbel_m_0", "gumbel_m_-4", "gumbel_m_1e21",
            "gumbel_trials_0", "clt_m_0", "clt_trials_too_many", "single_m_8", "single_m_0",
            "fit_k_-3", "fit_k_0", "fit_k_2e6", "fit_k_401_digits", "fit_anchor_401_digits"])
    def test_bad_argument_is_an_error(self, capsys, argv, detail):
        argv = [str(CONFIGS / arg) if arg.endswith(".cfg") else arg for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["sweep", "tas_sparse.cfg", "--out", "{out}"],
                                      ["single", "tas_sparse.cfg", "--m", "64"],
                                      ["gumbel", "--m", "8", "--trials", "3"],
                                      ["clt", "--m", "8", "--trials", "3"]])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        argv = [str(CONFIGS / arg) if arg.endswith(".cfg") else arg for arg in argv]
        argv = [arg.format(out=tmp_path / "out") for arg in argv]
        assert main(argv + ["--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative, got -3\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_sweep_out_on_a_file_is_an_error(self, tmp_path, capsys):
        cfg = write(tmp_path, SPARSE_TAS)
        taken = write(tmp_path, "", name="taken")
        assert main(["sweep", str(cfg), "--out", str(taken), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ")
        assert len(err.splitlines()) == 1

    def test_bad_sim_threads_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIM_THREADS", "abc")
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: SIM_THREADS must be an integer, got 'abc'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, env", [(["--workers", "100000"], None),
                                           ([], "100000")], ids=["flag", "SIM_THREADS"])
    def test_worker_count_above_the_ceiling_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                         pool_sizes, flag, env):
        if env is not None:
            monkeypatch.setenv("SIM_THREADS", env)
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), *flag]) == 1
        name = "--workers" if flag else "SIM_THREADS"
        assert capsys.readouterr().err == (f"error: {name} must be at most "
                                           f"{harness.MAX_WORKERS}, got 100000\n")
        assert not (tmp_path / "out").exists()
        assert pool_sizes == []

    def test_default_worker_count_is_capped(self, tmp_path, caplog, monkeypatch,
                                            pool_sizes):
        monkeypatch.delenv("SIM_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(100000)),
                            raising=False)
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16").replace("trials: 4",
                                                                          "trials: 100"))
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            assert main(["-v", "sweep", str(cfg), "--out", str(tmp_path)]) == 0
        assert pool_sizes == [harness.MAX_WORKERS]
        assert caplog.messages[0].startswith(f"sparse-demo TAS_A: {harness.MAX_WORKERS} workers, ")

    def test_default_worker_count_is_the_cpu_set(self, tmp_path, caplog, monkeypatch):
        # A process pinned to one CPU of a larger host starts one worker.
        monkeypatch.delenv("SIM_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16"))
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            assert main(["-v", "sweep", str(cfg), "--out", str(tmp_path)]) == 0
        assert caplog.messages[0].startswith("sparse-demo TAS_A: 1 workers, ")

    def test_sim_threads_zero_runs_one_worker(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setenv("SIM_THREADS", "0")
        cfg = write(tmp_path, SPARSE_TAS.replace("pow2:4..8", "16"))
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            assert main(["-v", "sweep", str(cfg), "--out", str(tmp_path)]) == 0
        assert caplog.messages[0].startswith("sparse-demo TAS_A: 1 workers, ")

    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, trial=None):
            raise MemoryError("injected")

        monkeypatch.setattr(harness, "run_trial", exhausted)
        cfg = write(tmp_path, SPARSE_TAS)
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == "error: out of memory: injected\n"

    def test_import_leaves_scipy_unloaded(self, fresh_python):
        # scipy.stats is imported by the gumbel and clt checks alone.
        code = "import sys, mimosec.cli; print('scipy' in sys.modules)"
        assert fresh_python(code).strip() == "False"

    def test_fit_reads_k_from_manifest_or_warns(self, tmp_path, capsys):
        spec = dataclasses.replace(tiny_spec(), m_values=(8, 16, 32))
        emit_results(run_sweep(spec), tmp_path / "tiny.csv")
        assert main(["fit", str(tmp_path / "tiny.csv"), "--model", "LOG_GROWTH"]) == 0
        with_manifest = capsys.readouterr()
        (tmp_path / "tiny.manifest.json").unlink()
        assert main(["fit", str(tmp_path / "tiny.csv"), "--model", "LOG_GROWTH"]) == 0
        without = capsys.readouterr()
        assert with_manifest.err == ""
        assert without.err.startswith("warning: ") and "K=1" in without.err
        assert len(without.err.splitlines()) == 1
        # K=2 from the manifest halves the slope of the K=1 fallback
        slope = {name: float(out.out.split("slope: ")[1].split()[0])
                 for name, out in (("k2", with_manifest), ("k1", without))}
        assert slope["k2"] == pytest.approx(slope["k1"] / 2)


def kill_group(pgid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_in_own_session(argv, act=None):
    """Run ``argv`` under this interpreter in a new session, so that its
    process group holds it and its workers alone.  ``act(proc)``, if given,
    runs first and may read ``proc.stderr``.  Returns the exit code, the
    rest of stderr, and whether any process of the group is left."""
    env = dict(os.environ, PYTHONPATH=str(Path(mimosec.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        # A run that hangs is killed, so that the test fails instead of hanging.
        watchdog = threading.Timer(120, kill_group, (proc.pid,))
        watchdog.start()
        try:
            if act is not None:
                act(proc)
            err, code = proc.stderr.read(), proc.wait()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return code, err, False
            return code, err, True
        finally:
            watchdog.cancel()
            kill_group(proc.pid)


class TestAbruptEnd:
    @pytest.mark.parametrize("group", [False, True], ids=["to_the_process", "to_the_group"])
    def test_an_interrupt_ends_in_one_line(self, tmp_path, group):
        # SIGINT once a sweep logs its first array size, to the process alone
        # or, as a terminal's Ctrl-C sends it, to the process and its workers.
        def interrupt(proc):
            while " m=" not in (line := proc.stderr.readline()):
                assert line, "the sweep ended before it logged an array size"
            (os.killpg if group else os.kill)(proc.pid, signal.SIGINT)

        out = tmp_path / "out"
        code, err, left = run_in_own_session(
            ["-m", "mimosec.cli", "-v", "sweep", str(CONFIGS / "full_suite.cfg"),
             "--workers", "2", "--out", str(out)], interrupt)
        # Lines the sweep logged before the signal landed may precede the error.
        *logged, last = err.splitlines()
        assert last == "error: interrupted" and all(" m=" in x for x in logged)
        assert (code, left, out.exists()) == (130, False, False)

    def test_a_lost_worker_ends_in_one_line(self, tmp_path):
        # Every block's worker ends at once, as one the kernel kills does;
        # forked workers see the patched module.
        cfg, out = write(tmp_path, TWO_DOCS.replace("trials: 2", "trials: 16")), tmp_path / "out"
        script = write(tmp_path, "import os, sys\nimport mimosec.harness as harness\n"
                                 "from mimosec.cli import main\n"
                                 "def lost(args):\n    os._exit(1)\n"
                                 "harness._block_task = lost\n"
                                 "sys.exit(main(sys.argv[1:]))\n", "lost.py")
        code, err, left = run_in_own_session(
            [str(script), "sweep", str(cfg), "--workers", "2", "--out", str(out)])
        assert err == ("error: a worker process ended abruptly (killed, or out of memory); "
                       "no result for m=16, trials 0..1\n")
        assert (code, left, out.exists()) == (1, False, False)


@st.composite
def sweep_specs(draw):
    K, J = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    scheme = draw(st.sampled_from(SCHEMES))
    L = draw(st.integers(1, 4)) if scheme == "TAS_B" else K
    gains = st.floats(0.0, 1e6)
    noise = st.floats(1e-6, 1e6)
    m_values = draw(st.lists(st.integers(max(K, L), 4096), unique=True, max_size=4))
    return SweepSpec(
        scenario=draw(st.text(st.characters(exclude_categories=("Cc",)), max_size=8)),
        scheme=scheme, K=K, J=J, L=L,
        total_power=draw(gains), sigma2=draw(noise), rho2=draw(noise),
        betas=np.array(draw(st.lists(gains, min_size=K, max_size=K))),
        thetas=np.array(draw(st.lists(gains, min_size=J, max_size=J))),
        weights=np.array(draw(st.lists(gains, min_size=K, max_size=K).filter(any))),
        m_values=tuple(sorted(m_values)), trials=draw(st.integers(1, 10 ** 6)),
        master_seed=draw(st.integers(0, 2 ** 64)),
        quant_bits=draw(st.integers(1, 16)) if scheme == "HADP_B" else None,
        cost_estimator=draw(st.sampled_from(COST_ESTIMATORS)))


def assert_round_trips(spec):
    again = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    for field in dataclasses.fields(SweepSpec):
        a, b = getattr(again, field.name), getattr(spec, field.name)
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    assert again == spec and hash(again) == hash(spec)


class TestSpecSchema:
    @given(sweep_specs())
    def test_dict_round_trip(self, spec):
        assert_round_trips(spec)

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_round_trip(self, config):
        for spec in parse_config(config):
            assert_round_trips(spec)

    def test_weights_default_alike_in_the_constructor_and_from_dict(self):
        spec = tiny_spec()
        fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(SweepSpec)
                  if f.name != "weights"}
        entries = {key: value for key, value in spec.to_dict().items() if key != "weights"}
        assert SweepSpec(**fields) == SweepSpec.from_dict(entries) == spec

    def test_specs_compare_and_hash_by_value(self):
        a, b = (parse_config(CONFIGS / "tas_sparse.cfg") for _ in range(2))
        assert a == b and [hash(s) for s in a] == [hash(s) for s in b]
        assert a[0] != dataclasses.replace(a[0], trials=a[0].trials + 1)
        assert a[0] != a[0].config_for(a[0].m_values[0])


# One bad line of a text config, read beside BASE_CONFIG (in place of its
# line of the same key), and the whole ``error:`` line it gives.
BASE_CONFIG = "preset: sparse\nscheme: TAS_A\nm_values: 16, 32\ntrials: 2\nseed: 1\n"
TEXT_ERRORS = [
    ("trials: lots", "line 5 key 'trials': expected integer, got 'lots'"),
    ("seed: 1.5", "line 5 key 'seed': expected integer, got '1.5'"),
    ("total_power: lots", "line 6 key 'total_power': expected number, got 'lots'"),
    ("rho2: ", "line 6 key 'rho2': expected number, got ''"),
    ("beta: 1.0, x",
     "line 6 key 'beta': expected a number or comma-separated numbers, got '1.0, x'"),
    ("weights: ", "line 6 key 'weights': expected a number or comma-separated numbers, got ''"),
    ("m_values: 16, 3x", "line 5 key 'm_values': expected comma-separated integers or "
                         "'pow2:a..b' with a <= b <= 20, got '16, 3x'"),
    ("m_values: pow2:6..21", "line 5 key 'm_values': expected comma-separated integers or "
                             "'pow2:a..b' with a <= b <= 20, got 'pow2:6..21'"),
    ("m_values: pow2:8..6", "line 5 key 'm_values': expected comma-separated integers or "
                            "'pow2:a..b' with a <= b <= 20, got 'pow2:8..6'"),
    ("m_values: 16.0", "line 5 key 'm_values': expected comma-separated integers or "
                       "'pow2:a..b' with a <= b <= 20, got '16.0'"),
    ("bogus: 3", "line 6 key 'bogus': unknown key"),
    ("seed: 1\nseed: 2", "line 6 key 'seed': duplicate key"),
    ("preset: huge",
     "line 5 key 'preset': unknown preset 'huge', expected one of ['dense', 'sparse']"),
    ("K 16", "line 6: expected 'key: value', got 'K 16'"),
    ("quant_bits: 4", "line 6 key 'quant_bits': quant_bits is required for scheme HADP_B "
                      "and must be absent otherwise"),
    ("K: 1000000000", "line 6 key 'K': K must be between 1 and 1048576, got 1000000000"),
    ("m_values: 8, 16", "line 5 key 'm_values': m must be at least max(L, K) = 16, got 8"),
    ("cost_estimator: median", "line 6 key 'cost_estimator': unknown cost_estimator "
                               "'median', expected one of ('mean_of_ratios', 'ratio_of_means')"),
    ("scheme: TAS_C", "line 5 key 'scheme': unknown scheme 'TAS_C', expected one of "
                      "('TAS_A', 'TAS_B', 'HADP_A', 'HADP_B')"),
    ("sigma2: nan", "line 6 key 'sigma2': sigma2 must be finite and > 0, got nan"),
    ("theta: 0.1, 0.2, 0.3",
     "line 6 key 'theta': thetas must be one value or a length-2 vector, got shape (3,)"),
]

# Changes to tiny_spec's manifest and the whole ``error:`` line each gives.
JSON_ERRORS = [
    ({"K": "16"}, "key 'K': expected an integer, got '16'"),
    ({"total_power": "big"}, "key 'total_power': expected a number, got 'big'"),
    ({"scenario": 3}, "key 'scenario': expected a string, got 3"),
    ({"betas": [1.0, "x"]}, "key 'betas': expected a list of numbers, got [1.0, 'x']"),
    ({"betas": 1.0}, "key 'betas': expected a list of numbers, got 1.0"),
    ({"m_values": [8, 16.0]}, "key 'm_values': expected a list of integers, got [8, 16.0]"),
    ({"m_values": 16}, "key 'm_values': expected a list of integers, got 16"),
    ({"trials": True}, "key 'trials': expected an integer, got True"),
    ({"quant_bits": "4"}, "key 'quant_bits': expected an integer, got '4'"),
    ({"weights": [True]}, "key 'weights': expected a list of numbers, got [True]"),
    ({"scheme": None}, "key 'scheme': expected a string, got None"),
    ({"bogus": 1}, "key 'bogus': unknown key"),
    ({"trials": None}, "key 'trials': expected an integer, got None"),
    ({"seed": -1}, "key 'seed': master_seed must be non-negative"),
    ({"quant_bits": 4}, "key 'quant_bits': quant_bits is required for scheme HADP_B "
                        "and must be absent otherwise"),
    ({"thetas": [0.1, 0.2]},
     "key 'thetas': thetas must be one value or a length-1 vector, got shape (2,)"),
]


def sweep_error(capsys, path) -> str:
    """The stderr of ``mimosec sweep`` of ``path``, which must fail and
    write nothing."""
    assert main(["sweep", str(path), "--out", str(path.parent / "out")]) == 1
    assert not (path.parent / "out").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("line, expected", TEXT_ERRORS, ids=[line for line, _ in TEXT_ERRORS])
def test_text_config_error_lines(tmp_path, capsys, line, expected):
    key = line.split(":")[0]
    path = write(tmp_path, "".join(row for row in BASE_CONFIG.splitlines(keepends=True)
                                   if not row.startswith(key + ":")) + line + "\n")
    assert sweep_error(capsys, path) == f"error: {path} {expected}\n"


@pytest.mark.parametrize("text", ["", "# comments only\n", "---\n\n---\n"],
                         ids=["empty", "comments_only", "separators_only"])
def test_a_config_of_no_sweeps_is_an_error(tmp_path, capsys, text):
    path = write(tmp_path, text)
    assert sweep_error(capsys, path) == f"error: {path}: config defines no sweeps\n"


@pytest.mark.parametrize("changes, expected", JSON_ERRORS,
                         ids=[json.dumps(changes) for changes, _ in JSON_ERRORS])
def test_manifest_error_lines(tmp_path, capsys, changes, expected):
    path = write(tmp_path, manifest_with(**changes), name="bad.manifest.json")
    assert sweep_error(capsys, path) == f"error: {path} {expected}\n"


def test_manifest_missing_key_error_line(tmp_path, capsys):
    entries = {key: value for key, value in tiny_spec().to_dict().items() if key != "trials"}
    path = write(tmp_path, json.dumps({"sweep": entries}), name="bad.manifest.json")
    assert sweep_error(capsys, path) == f"error: {path} key 'trials': missing required key\n"
