"""Command-line interface: subcommands, config files, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from selrtest import (Dataset, Hypothesis, bootstrap_null, cli, const_coef, kernel_by_name,
                      local_el, montecarlo, parse_g_spec, select_bandwidth, selr)
from selrtest.cli import main
from selrtest.dataio import ingest_csv, write_csv


@pytest.fixture
def csv_path(tmp_path, rng):
    n = 60
    u = rng.random(n)
    y = np.sqrt(1 + u**2) * rng.normal(size=n)
    path = tmp_path / "data.csv"
    write_csv(Dataset(u, np.ones((n, 1)), y), str(path))
    return str(path)


@pytest.fixture
def csv_path_p2(tmp_path, rng):
    n = 70
    u = rng.random(n)
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = x[:, 1] * 0.5 + rng.normal(size=n)
    path = tmp_path / "data2.csv"
    write_csv(Dataset(u, x, y), str(path))
    return str(path)


def test_kernel_constants_output(capsys):
    assert main(["kernel-constants", "--kernel", "triweight"]) == 0
    out = capsys.readouterr().out
    assert "r_K: 2.462222784" in out
    assert "c_K: 1.607045174" in out


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_kernel_constants_tabulated(tmp_path, capsys):
    t = np.linspace(-1, 1, 2001)
    k = 0.75 * (1 - t**2)
    table = tmp_path / "kern.txt"
    np.savetxt(table, np.column_stack([t, k]))
    assert main(["kernel-constants", "--tabulated-kernel", str(table)]) == 0
    assert "kernel: tabulated" in capsys.readouterr().out
    k[len(k) // 2] = np.nan  # bad input, not a quadrature failure
    np.savetxt(table, np.column_stack([t, k]))
    assert main(["kernel-constants", "--tabulated-kernel", str(table)]) == 2


def test_test_subcommand_json_report(csv_path, tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["test", "--input", csv_path, "--h", "0.4", "--seed", "1",
         "--omega", "0,1", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["hypothesis"] == "simple_null"
    assert doc["kernel"] == "triweight"
    assert doc["statistic"] >= 0
    assert "created" in doc["metadata"]


def test_test_subcommand_bootstrap_and_const_null(csv_path, tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["test", "--input", csv_path, "--h", "0.45", "--null", "const:0.2",
         "--bootstrap", "5", "--seed", "7", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["B"] == 5
    assert 1 / 6 <= doc["p_bootstrap"] <= 1.0


def test_test_subcommand_composite_fix(csv_path_p2, tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["test", "--input", csv_path_p2, "--h", "0.5", "--fix", "1=0.5",
         "--output", str(report)]
    )
    assert code == 0
    assert json.loads(report.read_text())["hypothesis"] == "composite_null"


def test_test_subcommand_fix_in_any_order(tmp_path, rng):
    # --fix idx=value pins coefficient idx whatever the order of the entries
    n = 150
    u = rng.random(n)
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    path = tmp_path / "data3.csv"
    write_csv(Dataset(u, x, x @ [0.0, 1.0, 3.0] + rng.normal(size=n)), str(path))
    docs = []
    for fix in ("2=3,1=1", "1=1,2=3"):
        report = tmp_path / f"{fix}.json"
        assert main(["test", "--input", str(path), "--h", "0.4", "--fix", fix,
                     "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        docs.append((doc["statistic"], doc["per_point"]))
    assert docs[0] == docs[1]


def test_test_subcommand_gof(csv_path, tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["test", "--input", csv_path, "--h", "0.5", "--gof",
         "--g", "smoothed:1,4:0.4", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["hypothesis"] == "goodness_of_fit"
    assert doc["df"] > 0


def test_exit_codes(tmp_path, csv_path):
    # data error: missing file
    assert main(["test", "--input", str(tmp_path / "no.csv"), "--h", "0.4"]) == 3
    # config error: unknown kernel
    assert main(
        ["test", "--input", csv_path, "--h", "0.4", "--kernel", "gauss"]
    ) == 2
    # config error: malformed omega
    assert main(["test", "--input", csv_path, "--h", "0.4", "--omega", "zzz"]) == 2
    # config error: bad estimating-function spec
    assert main(["test", "--input", csv_path, "--h", "0.4", "--g", "wavelet"]) == 2


@pytest.mark.parametrize("argv", [
    ["bandwidth", "--input", "{csv}", "--grid", "0.3,abc"],
    ["simulate", "--power", "--n", "40", "--reps", "2", "--seed", "1", "--r-grid", "0,abc"],
    ["test", "--input", "{csv}", "--h", "0.4", "--null", "const:1,abc"],
    ["test", "--input", "{csv}", "--h", "0.4", "--fix", "1=abc"],
    ["test", "--input", "{csv}", "--h", "0.4", "--fix", "a=1"],
    ["test", "--input", "{csv}", "--h", "0.4", "--bootstrap", "-2"],
    ["bandwidth", "--input", "{csv}", "--grid", "0.3,0.45", "--bootstrap", "-2"],
    ["simulate", "--power", "--n", "20", "--reps", "5", "--seed", "1", "--r-grid", "0,1",
     "--level", "1.5"],
    ["simulate", "--power", "--n", "20", "--reps", "5", "--seed", "1", "--r-grid", "0,1",
     "--threshold-selr", "3.0"],
    ["simulate", "--power", "--n", "20", "--reps", "5", "--seed", "1", "--r-grid", "0,1",
     "--threshold-f", "0.2"],
    ["simulate", "--table1", "--n", "20", "--reps", "5", "--seed", "1", "--threads", "-2"],
    ["simulate", "--table1", "--n", "20", "--reps", "5", "--seed", "1", "--threads", "0"],
    ["test", "--input", "{csv}", "--h", "nan"],
    ["test", "--input", "{csv}", "--h", "inf"],
    ["bandwidth", "--input", "{csv}", "--grid", "0.3,nan"],
    ["simulate", "--table1", "--n", "20", "--reps", "2", "--seed", "1", "--c0", "nan"],
    ["simulate", "--table1", "--n", "20", "--reps", "2", "--seed", "1", "--c0", "inf"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "smoothed:0.8,2.0:nan"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "smoothed:0.8,nan:0.3"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "symmetric:nan"],
    ["test", "--input", "{csv}", "--h", "0.4", "--null", "const:nan"],
    ["test", "--input", "{csv}", "--h", "0.4", "--null", "const:inf"],
    ["test", "--input", "{csv2}", "--h", "0.4", "--fix", "1=nan"],
    ["test", "--input", "{csv2}", "--h", "0.4", "--fix", "1=inf"],
    ["test", "--input", "{csv}", "--h", "0.4", "--omega", "0.2,inf"],
    ["test", "--input", "{csv}", "--h", "0.4", "--omega=-inf,0.5"],
    ["simulate", "--power", "--n", "20", "--reps", "3", "--seed", "1", "--r-grid", "0,nan"],
    ["simulate", "--power", "--n", "20", "--reps", "3", "--seed", "1", "--r-grid", "0,1",
     "--threshold-selr", "nan", "--threshold-f", "1"],
    ["simulate", "--table1", "--n", "20", "--reps", "0", "--seed", "1"],
    ["simulate", "--table1", "--n", "5", "--reps", "2", "--seed", "1"],
    ["calibrate", "--input", "{csv}", "--h", "0.4", "--bootstrap", "0", "--seed", "1"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "symmetric:a"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "symmetric:"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "smoothed:0.8,x:0.3"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "smoothed:0.8,2.0:w"],
    ["test", "--input", "{csv}", "--h", "0.4", "--g", "smoothed:0.8,2.0:0.3,0.4"],
    ["test", "--input", "{csv}", "--h", "0.4", "--omega", "0.1,0.5,0.9"],
    ["test", "--input", "{csv}", "--h", "0.4", "--null", "const:1,2"],
    ["test", "--input", "{csv}", "--h", "0.4", "--null", "linear:1"],
])
def test_bad_number_in_a_flag_is_a_config_error(csv_path, csv_path_p2, tmp_path, capsys, argv):
    # a non-number in a list-valued flag or a G spec, a negative replicate
    # count (or none for calibrate), a level outside (0, 1), one threshold
    # without the other, fewer than one thread, a bandwidth that is not
    # finite and > 0, a NaN indicator grid point or smoothing width, a null
    # value, pin, omega end, r or threshold that is not finite, the wrong
    # count of omega ends or null values and an unknown null spec is refused
    # (exit 2) with no traceback and no report
    report = tmp_path / "r.json"
    code = main([a.format(csv=csv_path, csv2=csv_path_p2) for a in argv]
                + ["--output", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ")
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["--power", "--n", "20", "--reps", "3", "--r-grid", "0,nan"],
     "simulation r must be finite and >= 0, not nan"),
    (["--table1", "--n", "20", "--reps", "0"], "simulation reps must be >= 1, not 0"),
    (["--table1", "--n", "5", "--reps", "2"], "simulation n must be >= 10, not 5"),
    (["--table1", "--n", "20", "--reps", "2", "--c0", "nan"],
     "simulation c0 must be finite and > 0, not nan"),
], ids=["r", "reps", "n", "c0"])
def test_simulation_config_error_names_field_and_value(capsys, argv, message):
    assert main(["simulate", "--seed", "1"] + argv) == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"


def test_simulate_takes_a_named_kernel_only(monkeypatch, capsys):
    # simulate draws with a named kernel: --tabulated-kernel is no option of
    # it, and an unknown name is refused before any replicate runs
    def fail(*args):
        raise AssertionError("a replicate ran before the kernel was checked")

    monkeypatch.setattr(montecarlo, "_one_replicate", fail)
    argv = ["simulate", "--table1", "--n", "50", "--reps", "2", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tabulated-kernel", "/no/such/file"])
    assert exc.value.code == 2
    assert "--tabulated-kernel" in capsys.readouterr().err
    assert main(argv + ["--kernel", "bogus"]) == 2
    assert capsys.readouterr().err.startswith("error[config]: unknown kernel 'bogus'")


def test_hard_indicator_gof_refused_up_front(csv_path_p2, capsys):
    # the profile fit needs a derivative: a configuration error (exit 2)
    code = main(["test", "--input", csv_path_p2, "--h", "0.3", "--gof",
                 "--g", "symmetric:0.8,2.0", "--omega", "0.1,0.9"])
    assert code == 2
    assert "differentiable" in capsys.readouterr().err


def test_all_windows_skipped_exits_numerical(tmp_path, rng, capsys):
    n = 60
    u = rng.random(n)
    path = tmp_path / "positive.csv"
    write_csv(Dataset(u, np.ones((n, 1)), 1.0 + rng.random(n)), str(path))
    assert main(["test", "--input", str(path), "--h", "0.3"]) == 4
    assert "skipped" in capsys.readouterr().err


def test_report_counts_clamped_and_retained(tmp_path, rng):
    # y > 0 for u < 0.3, so the null a1 = 0 is outside the hull of the
    # windows there and they are skipped
    n = 80
    u = rng.random(n)
    y = np.where(u < 0.3, 1.0 + rng.random(n), rng.normal(size=n))
    path = tmp_path / "shifted.csv"
    write_csv(Dataset(u, np.ones((n, 1)), y), str(path))
    report = tmp_path / "r.json"
    assert main(["test", "--input", str(path), "--h", "0.15", "--output", str(report)]) == 0
    doc = json.loads(report.read_text())
    contribs = [pt["contribution"] for pt in doc["per_point"]]
    assert doc["n_clamped"] == sum(c is not None and c < 0 for c in contribs)
    assert doc["n_skipped"] == contribs.count(None) > 0
    assert 0.0 < doc["retained_frac"] < 1.0
    assert doc["retained_frac"] == pytest.approx(1.0 - doc["n_skipped"] / len(contribs))
    # a testing interval clear of the shifted region keeps every window
    report_all = tmp_path / "all.json"
    assert main(["test", "--input", str(path), "--h", "0.15", "--omega", "0.45,1",
                 "--output", str(report_all)]) == 0
    full = json.loads(report_all.read_text())
    assert full["retained_frac"] == 1.0
    assert full["n_skipped"] == 0


def test_test_subcommand_rejects_threads(csv_path, capsys):
    # --threads belongs to simulate; the test subcommand has no parallel path
    with pytest.raises(SystemExit) as exc:
        main(["test", "--input", csv_path, "--h", "0.4", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_seed_echo_when_drawn(csv_path, capsys, tmp_path):
    report = tmp_path / "r.json"
    code = main(
        ["test", "--input", csv_path, "--h", "0.45", "--bootstrap", "2",
         "--output", str(report)]
    )
    assert code == 0
    assert "pass --seed" in capsys.readouterr().err


def test_drawn_seed_leaves_stdout_report_parseable(csv_path, capsys):
    code = main(["test", "--input", csv_path, "--h", "0.45", "--bootstrap", "2"])
    assert code == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["B"] == 2 and 0.0 < report["p_bootstrap"] <= 1.0
    assert "pass --seed" in err


def test_simulate_table1(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        ["simulate", "--table1", "--n", "40", "--reps", "6", "--seed", "2",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,h,variance,mu,sigma,reps"
    assert lines[1].startswith("40,")


def test_simulate_power_with_plot_data(tmp_path):
    out = tmp_path / "power.csv"
    plot = tmp_path / "power.dat"
    code = main(
        ["simulate", "--power", "--n", "40", "--reps", "8", "--seed", "2",
         "--r-grid", "0,10", "--threshold-selr", "3.0", "--threshold-f", "0.2",
         "--output", str(out), "--plot-data", str(plot)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,h,c1,r,power_selr,power_f"
    assert len(lines) == 3
    plot_lines = plot.read_text().strip().splitlines()
    assert plot_lines[0].startswith("#")
    assert len(plot_lines) == 4


def test_calibrate_subcommand(csv_path, tmp_path):
    report = tmp_path / "cal.json"
    code = main(
        ["calibrate", "--input", csv_path, "--h", "0.45", "--bootstrap", "6",
         "--seed", "4", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["B"] == 6
    assert len(doc["null_sample"]) == 6


@pytest.mark.parametrize("flags, spec, g", [
    (["--fix", "1=1.5"], Hypothesis.composite([const_coef(1.5)], [1]), "identity"),
    (["--gof", "--g", "smoothed:0.8,2.0:0.3"], Hypothesis.goodness_of_fit(),
     "smoothed:0.8,2.0:0.3"),
], ids=["fix", "gof"])
def test_calibrate_any_null_equals_bootstrap_null(csv_path_p2, tmp_path, flags, spec, g):
    report = tmp_path / "cal.json"
    assert main(["calibrate", "--input", csv_path_p2, "--h", "0.5", "--bootstrap", "3",
                 "--seed", "5", "--output", str(report)] + flags) == 0
    doc = json.loads(report.read_text())
    sample, p = bootstrap_null(ingest_csv(csv_path_p2), kernel_by_name("triweight"), 0.5,
                               parse_g_spec(g), spec, B=3, seed=5)
    assert doc["null_sample"] == sample.tolist()
    assert doc["p_bootstrap"] == p
    assert doc["hypothesis"] == spec.kind


def test_calibrate_passes_include_full_term(csv_path, tmp_path, monkeypatch):
    seen = []
    real = cli._calibrated_test

    def spy(*args, **kwargs):
        seen.append(kwargs["include_full_term"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_calibrated_test", spy)
    assert main(["calibrate", "--input", csv_path, "--h", "0.45", "--bootstrap", "3",
                 "--seed", "1", "--include-full-term", "--output", str(tmp_path / "r.json")]) == 0
    assert seen == [True]


def test_bandwidth_composite_null_equals_select_bandwidth(csv_path_p2, tmp_path):
    report = tmp_path / "bw.json"
    assert main(["bandwidth", "--input", csv_path_p2, "--grid", "0.4,0.5", "--fix", "1=1.5",
                 "--bootstrap", "3", "--seed", "2", "--output", str(report)]) == 0
    doc = json.loads(report.read_text())
    sel = select_bandwidth(ingest_csv(csv_path_p2), kernel_by_name("triweight"),
                           parse_g_spec("identity"), Hypothesis.composite([const_coef(1.5)], [1]),
                           [0.4, 0.5], B=3, seed=2)
    assert (doc["h_selected"], doc["statistic"], doc["p_bootstrap"]) == (
        sel.h, sel.statistic, sel.p_bootstrap)
    assert doc["per_h"] == {f"{h:g}": v for h, v in sel.per_h.items()}


@pytest.mark.parametrize("argv, named", [
    (["test", "--gof", "--fix", "1=1.5"], "--gof and --fix"),
    (["test", "--fix", "1=1.5", "--null", "const:9,9"], "--fix and --null"),
    (["calibrate", "--gof", "--null", "const:1,1"], "--gof and --null"),
    (["bandwidth", "--gof", "--fix", "1=1.5"], "--gof and --fix"),
    (["test", "--no-estimated-coefficients"], "--no-estimated-coefficients"),
    (["bandwidth", "--no-estimated-coefficients", "--fix", "1=1.5"],
     "--no-estimated-coefficients"),
    (["test", "--fix", "1=1.5", "--include-full-term"], "--include-full-term"),
    (["calibrate", "--gof", "--include-full-term"], "--include-full-term"),
], ids=["gof-fix", "fix-null", "calibrate-gof-null", "bandwidth-gof-fix", "no-estimated",
        "bandwidth-no-estimated", "fix-full-term", "calibrate-gof-full-term"])
def test_flags_the_chosen_null_ignores_are_refused(csv_path_p2, tmp_path, capsys, argv, named):
    # a flag that would choose a second null, or qualify a null not chosen,
    # is refused rather than dropped
    where = ["--grid", "0.4"] if argv[0] == "bandwidth" else ["--h", "0.4"]
    report = tmp_path / "r.json"
    assert main(argv[:1] + ["--input", csv_path_p2, *where] + argv[1:]
                + ["--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and named in err
    assert not report.exists()


@pytest.mark.parametrize("argv, code, named", [
    (["test", "--input", "{csv}", "--h", "0.4", "--output", "{missing}/r.json"], 2, "--output"),
    (["simulate", "--table1", "--n", "20", "--reps", "2", "--seed", "1",
      "--output", "{missing}/t.csv"], 2, "--output"),
    (["simulate", "--power", "--n", "20", "--reps", "2", "--seed", "1", "--r-grid", "0",
      "--threshold-selr", "3", "--threshold-f", "0.2", "--plot-data", "{missing}/p.dat"],
     2, "--plot-data"),
    (["--config", "{missing}/d.cfg", "test", "--input", "{csv}", "--h", "0.4"], 2, "--config"),
    (["kernel-constants", "--tabulated-kernel", "{missing}/k.txt"], 3, "--tabulated-kernel"),
    (["kernel-constants", "--tabulated-kernel", "{words}"], 3, "--tabulated-kernel"),
    (["kernel-constants", "--tabulated-kernel", "{column}"], 3, "needs two columns (t, K(t))"),
    (["test", "--input", "{tmp}", "--h", "0.4"], 3, "{tmp}"),
], ids=["output", "simulate-output", "plot-data", "config", "kernel-missing", "kernel-text",
        "kernel-one-column", "input-directory"])
def test_path_that_cannot_be_opened(csv_path, tmp_path, capsys, argv, code, named):
    # an input that cannot be read is a data error, a config file or an
    # output that cannot be opened a configuration error: no traceback
    words = tmp_path / "words.txt"
    words.write_text("t k\none two\n")
    column = tmp_path / "column.txt"
    column.write_text("-1\n0\n1\n")
    paths = dict(csv=csv_path, missing=tmp_path / "missing", words=words, column=column,
                 tmp=tmp_path)
    assert main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error[config]: " if code == 2 else "error[data]: ")
    assert named.format(**paths) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["calibrate", "--input", "{csv}", "--h", "0.4", "--bootstrap", "50", "--seed", "1",
      "--output", "{missing}/r.json"], "--output"),
    (["bandwidth", "--input", "{csv}", "--grid", "0.3,0.4", "--output", "{missing}/b.json"],
     "--output"),
    (["simulate", "--power", "--n", "20", "--reps", "2", "--seed", "1", "--r-grid", "0",
      "--plot-data", "{missing}/p.dat"], "--plot-data"),
    # an output path that is itself an existing directory
    (["calibrate", "--input", "{csv}", "--h", "0.4", "--bootstrap", "50", "--seed", "1",
      "--output", "{tmp}"], "--output {tmp}: is a directory"),
    (["simulate", "--power", "--n", "20", "--reps", "2", "--seed", "1", "--r-grid", "0",
      "--plot-data", "{tmp}"], "--plot-data {tmp}: is a directory"),
], ids=["calibrate", "bandwidth", "simulate-plot-data", "calibrate-directory",
        "simulate-plot-data-directory"])
def test_missing_output_directory_refused_before_any_work(csv_path, tmp_path, monkeypatch,
                                                          capsys, argv, named):
    def fail(*args, **kwargs):
        raise AssertionError("work done before the output path was checked")

    for name in ("ingest_csv", "_calibrated_test", "select_bandwidth", "size_power_study"):
        monkeypatch.setattr(cli, name, fail)
    paths = dict(csv=csv_path, missing=tmp_path / "missing", tmp=tmp_path)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and named.format(**paths) in err


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--input", "{csv}", "--h", "0.4", "--bootstrap", "0"], "need B >= 1"),
    (["test", "--input", "{csv}", "--h", "0.4", "--bootstrap", "-1"], "need B >= 0"),
    (["bandwidth", "--input", "{csv}", "--grid", "0.3,0.45", "--bootstrap", "-1"],
     "need B >= 0"),
    (["calibrate", "--input", "{csv}", "--h", "0.4", "--g", "symmetric:a"],
     "bad symmetric grid 'a'"),
], ids=["calibrate-0", "test-negative", "bandwidth-negative", "calibrate-g"])
def test_bad_replicate_count_or_g_refused_before_any_work(csv_path, monkeypatch, capsys, argv,
                                                          message):
    # the library's own check refuses B, and the G parser a malformed
    # number, before the CSV is read, any statistic walks the windows or a
    # seed is drawn and printed
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "ingest_csv", spy("ingest_csv", cli.ingest_csv))
    monkeypatch.setattr(selr, "_statistics", spy("_statistics", selr._statistics))
    assert main([a.format(csv=csv_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {message}") and "seed:" not in err
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--h", "0.4", "--gof", "--g", "symmetric:0.8,2.0"],
     "profile optimization needs a differentiable estimating function"),
    (["calibrate", "--h", "0.4", "--omega", "5,6"],
     "no observation inside the testing interval"),
    (["bandwidth", "--grid", "0.3,0.45,nan"], "bandwidth must be finite and > 0, not nan"),
    (["bandwidth", "--grid", "0.3,0.45", "--gof"], "bandwidth selection needs positive df"),
], ids=["calibrate-no-derivative", "calibrate-empty-omega", "bandwidth-nan",
        "bandwidth-zero-df"])
def test_bootstrap_refusals_come_before_any_window(csv_path, monkeypatch, capsys, argv, message):
    # a G without derivative, an empty testing interval, a bad grid
    # bandwidth or a hypothesis of no dimension is refused before the null
    # fit, the draw or any statistic builds a window
    calls = []

    def spy(name, module):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy("_window_block", local_el)
    spy("_statistics", selr)
    assert main(argv + ["--input", csv_path, "--bootstrap", "5", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error[config]: {message}")
    assert calls == []


def test_csv_with_a_byte_order_mark(csv_path, tmp_path):
    # a file saved as "CSV UTF-8" starts with the UTF-8 byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(csv_path).read_bytes())
    docs = []
    for path in (csv_path, str(bom)):
        report = tmp_path / "r.json"
        assert main(["test", "--input", path, "--h", "0.4", "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        del doc["metadata"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_bandwidth_subcommand(csv_path, tmp_path):
    report = tmp_path / "bw.json"
    code = main(
        ["bandwidth", "--input", csv_path, "--grid", "0.3,0.45",
         "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["h_selected"] in (0.3, 0.45)
    assert set(doc["per_h"]) == {"0.3", "0.45"}


def test_config_file_defaults_flags_win(csv_path, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# defaults\nh = 0.45\nseed = 11\nkernel = biweight\n")
    report = tmp_path / "r.json"
    code = main(
        ["--config", str(cfg), "test", "--input", csv_path,
         "--kernel", "triweight", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["h"] == 0.45  # from the config file
    assert doc["kernel"] == "triweight"  # flag wins

    bad = tmp_path / "bad.cfg"
    bad.write_text("h 0.45\n")
    assert main(
        ["--config", str(bad), "test", "--input", csv_path, "--h", "0.4"]
    ) == 2


@pytest.mark.parametrize("line, key", [
    ("h = abc", "h"),  # fails the option's type
    ("bootstrap = 2.5", "bootstrap"),
    ("scheme = bogus", "scheme"),  # outside the option's choices
    ("gof = ture", "gof"),  # a boolean option takes 1/true/yes/0/false/no only
])
def test_config_file_bad_value_is_a_config_error(csv_path, tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["--config", str(cfg), "test", "--input", csv_path, "--h", "0.4",
                 "--output", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {cfg}: bad value for {key}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("word, on", [
    ("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False),
])
def test_config_file_boolean_words_in_any_case(tmp_path, word, on):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"gof = {word}\n")
    parser = cli.build_parser()
    cli._apply_config(parser, str(cfg))
    assert parser.parse_args(["test", "--input", "d.csv", "--h", "0.4"]).gof is on


@pytest.mark.parametrize("line, argv, message", [
    # a misspelt key names no option of any subcommand
    ("bootstrp = 19", ["test", "--input", "{csv}", "--h", "0.4"], "unknown key 'bootstrp'"),
    # the mode of simulate is one of a mutually exclusive pair: only a flag chooses it
    ("table1 = true", ["simulate", "--power", "--n", "20", "--reps", "2", "--seed", "1"],
     "key 'table1' chooses one of mutually exclusive options"),
], ids=["unknown", "exclusive"])
def test_config_file_key_that_no_option_takes_is_refused(csv_path, tmp_path, capsys, line,
                                                         argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg)] + [a.format(csv=csv_path) for a in argv]
                + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {cfg}: {message}")
    assert not out.exists()
