import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmse_lab
from mmse_lab import ScenarioRunError, run_scenario
from mmse_lab.cli import (
    CSV_HEADER,
    EXIT_BROKEN_PIPE,
    EXIT_ENGINE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    RunConfig,
    cmd_list,
    cmd_run,
    cmd_selftest,
    main,
)
from mmse_lab.scenarios import builtin_scenarios


def make_config(tmp_path, names, **kw):
    defaults = dict(scenario_names=tuple(names), seed=3,
                    output_dir=str(tmp_path))
    defaults.update(kw)
    return RunConfig(**defaults)


# --------------------------------------------------------------------------
# list
# --------------------------------------------------------------------------

def test_list_shows_the_whole_catalog():
    buf = io.StringIO()
    assert cmd_list(stream=buf) == EXIT_OK
    text = buf.getvalue()
    for name in ("example1", "example2", "example3", "example4"):
        assert name in text
    count = int(text.strip().splitlines()[-1].split()[0])
    assert count >= 8


def test_list_filter_narrows_to_matching_rows():
    buf = io.StringIO()
    cmd_list("example", stream=buf)
    assert buf.getvalue().strip().splitlines()[-1].startswith("4 ")


def test_list_unknown_filter_is_empty_but_ok():
    buf = io.StringIO()
    assert cmd_list("zzz-no-such", stream=buf) == EXIT_OK
    assert buf.getvalue().strip().splitlines()[-1].startswith("0 ")


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def test_run_writes_a_report_per_scenario(tmp_path):
    cfg = make_config(tmp_path, ["example1", "example3"])
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=io.StringIO()) == EXIT_OK
    assert (tmp_path / "example1.csv").exists()
    assert (tmp_path / "example3.csv").exists()


def test_run_csv_round_trips_every_float(tmp_path):
    cfg = make_config(tmp_path, ["markov_degraded_family"])
    cmd_run(cfg, stream=io.StringIO(), err_stream=io.StringIO())
    text = (tmp_path / "markov_degraded_family.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER

    report = run_scenario(builtin_scenarios()["markov_degraded_family"],
                          cfg.n_grid(), tol_abs=cfg.tol_abs, seed=cfg.seed)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report.rows)
    for got, want in zip(rows, report.rows):
        assert int(got["n"]) == want.n
        assert float(got["mmse"]) == want.mmse  # lossless repr round trip
        assert float(got["second_moment_y"]) == want.second_moment_y
        assert float(got["limit_mmse"]) == report.limit_value


def test_run_is_deterministic_byte_for_byte(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = make_config(out, ["example2", "example4"], format="json")
        assert cmd_run(cfg, stream=io.StringIO(),
                       err_stream=io.StringIO()) == EXIT_OK
    for name in ("example2.json", "example4.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at n=1024 the measurement support of cor1_additive_fast_x is long
    # enough for a threaded BLAS dot to split a sum across threads
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-c", "from mmse_lab.cli import entry; entry()",
             "run", "--scenarios", "cor1_additive_fast_x", "--n-stop", "1024",
             "--n-spacing", "geometric", "--format", "json", "--seed", "7",
             "--out", str(out)],
            env=env, check=True, capture_output=True)
        reports.append((out / "cor1_additive_fast_x.json").read_bytes())
    assert reports[0] == reports[1]


def test_mmse_second_moment_does_not_depend_on_the_blas_thread_count():
    # the measurement support of cor1_additive_fast_y at n=1024 is long
    # enough for a threaded BLAS dot over it to split the sum across threads;
    # mmse_exact reads the law's one exactly rounded E||X||^2, as the report
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    code = ("from mmse_lab import builtin_scenarios, mmse_exact, run_scenario\n"
            "sc = builtin_scenarios()['cor1_additive_fast_y']\n"
            "print(mmse_exact(sc.realize(1024)).second_moment_x.hex(),\n"
            "      run_scenario(sc, [1024]).rows[0].second_moment_x.hex())\n")
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True)
        values += done.stdout.split()
    assert len(values) == 4 and len(set(values)) == 1, values


def test_module_form_runs_the_cli():
    # `python -m mmse_lab.cli` is the same program as the console script
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "mmse_lab.cli", "list"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    names = [line.split()[0] for line in done.stdout.splitlines()[2:-1:2]]
    assert names == list(builtin_scenarios())


def test_closed_stdout_ends_the_cli_quietly():
    # as in `mmse-lab list | head -1` when head has already exited: the
    # pipe has no reader left, so writing the table fails with EPIPE
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from mmse_lab.cli import entry; entry()",
             "list"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_BROKEN_PIPE


def test_run_json_shape(tmp_path):
    cfg = make_config(tmp_path, ["example3"], format="json")
    cmd_run(cfg, stream=io.StringIO(), err_stream=io.StringIO())
    payload = json.loads((tmp_path / "example3.json").read_text())
    assert set(payload) == {"scenario", "rows", "diagnostics", "verdict"}
    assert payload["scenario"] == "example3"
    assert payload["verdict"]["matches"] is True
    assert {"n", "mmse", "std_err"} <= set(payload["rows"][0])


CATALOG_REFERENCE = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "reference" / "catalog_deep.json")
REFERENCE_TOL = 1e-12


def within_reference(got, want) -> bool:
    """Equal in structure; numbers within REFERENCE_TOL, relative above 1."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return type(got) is type(want) and got == want
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= REFERENCE_TOL * max(1.0, abs(want)))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(within_reference(g, w) for g, w in zip(got, want)))
    return (isinstance(got, dict) and got.keys() == want.keys()
            and all(within_reference(got[k], want[k]) for k in want))


def test_run_matches_the_catalog_reference(tmp_path):
    # every exact field of every report, at n <= 64, against the stored
    # reference; the Monte Carlo rows depend on the seed and are left out
    reference = json.loads(CATALOG_REFERENCE.read_text())["64"]
    assert len(reference) == 10
    assert main(["run", "--scenarios", *reference, "--n-stop", "64",
                 "--format", "json", "--out", str(tmp_path)]) == EXIT_OK
    for name, want in reference.items():
        got = json.loads((tmp_path / f"{name}.json").read_text())
        got["diagnostics"].pop("mc_rows", None)
        assert within_reference(got, want), name


def test_run_tight_tolerance_exits_one_and_names_the_scenario(tmp_path):
    err = io.StringIO()
    cfg = make_config(tmp_path, ["example4"], tol_abs=1e-9)
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=err) == EXIT_VERDICT
    assert "example4" in err.getvalue()


def test_run_unknown_scenario_exits_two(tmp_path):
    err = io.StringIO()
    cfg = make_config(tmp_path, ["no-such-family"])
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=err) == EXIT_USAGE
    assert "no-such-family" in err.getvalue()


@pytest.mark.parametrize("names", [
    ["foo", "foo", "bar"],
    ["foo,example3", "bar,foo"],
], ids=["spaced", "comma"])
def test_main_names_each_unknown_scenario_once(tmp_path, capsys, names):
    code = main(["run", "--scenarios", *names, "--n-stop", "4",
                 "--out", str(tmp_path / "reports")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "unknown scenario(s): foo, bar\n"


def test_run_empty_selection_exits_two(tmp_path):
    cfg = make_config(tmp_path, [])
    assert cmd_run(cfg, stream=io.StringIO(),
                   err_stream=io.StringIO()) == EXIT_USAGE


def test_run_unknown_format_exits_two_before_writing(tmp_path):
    out = tmp_path / "reports"
    cfg = make_config(out, ["example3"], format="xml")
    err = io.StringIO()
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=err) == EXIT_USAGE
    assert "unknown format 'xml'" in err.getvalue()
    assert not out.exists()


@pytest.mark.parametrize("names, repeated", [
    (["example3", "example3"], "example3"),
    (["example1,example3", "example1"], "example1"),
    (["example3,example3"], "example3"),
], ids=["spaced", "mixed", "comma"])
def test_main_refuses_a_scenario_named_twice(tmp_path, capsys, names,
                                             repeated):
    out = tmp_path / "reports"
    code = main(["run", "--scenarios", *names, "--n-stop", "4",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == f"scenario(s) named more than once: {repeated}\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_engine_error_exits_three(tmp_path, monkeypatch):
    import mmse_lab.cli as cli_mod

    catalog = builtin_scenarios()

    def exploding_realize(n):
        raise ScenarioRunError("synthetic engine failure")

    broken = dataclasses.replace(catalog["example3"], realize=exploding_realize)
    monkeypatch.setattr(cli_mod, "builtin_scenarios",
                        lambda: {"example3": broken})
    cfg = make_config(tmp_path, ["example3"])
    err = io.StringIO()
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=err) == EXIT_ENGINE
    assert "engine error" in err.getvalue()


def test_run_refuses_to_write_a_non_finite_json_report(tmp_path, monkeypatch):
    import mmse_lab.cli as cli_mod

    def nan_report(*args, **kwargs):
        report = run_scenario(*args, **kwargs)
        return dataclasses.replace(report, limit_value=float("nan"))

    monkeypatch.setattr(cli_mod, "run_scenario", nan_report)
    out = tmp_path / "reports"
    cfg = make_config(out, ["example1", "example3"], format="json", n_stop=4)
    err = io.StringIO()
    assert cmd_run(cfg, stream=io.StringIO(), err_stream=err) == EXIT_ENGINE
    assert "engine error" in err.getvalue()
    assert list(out.iterdir()) == []


# --------------------------------------------------------------------------
# argument parsing / main
# --------------------------------------------------------------------------

def test_main_runs_space_and_comma_forms(tmp_path):
    base = ["run", "--n-stop", "8", "--seed", "2"]
    code = main(base + ["--scenarios", "example1", "example3",
                        "--out", str(tmp_path / "s")])
    assert code == EXIT_OK
    code = main(base + ["--scenarios", "example1,example3",
                        "--out", str(tmp_path / "c")])
    assert code == EXIT_OK
    for name in ("example1.csv", "example3.csv"):
        assert ((tmp_path / "s" / name).read_bytes()
                == (tmp_path / "c" / name).read_bytes())


def test_main_linear_spacing(tmp_path):
    out = tmp_path / "lin"
    code = main(["run", "--scenarios", "example3", "--n-start", "3",
                 "--n-stop", "6", "--n-spacing", "linear",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "example3.csv").read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [3, 4, 5, 6]


def test_main_rejects_inverted_grid(tmp_path, capsys):
    code = main(["run", "--scenarios", "example3", "--n-start", "9",
                 "--n-stop", "3", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    with pytest.raises(ValueError, match="unknown spacing 'cubic'"):
        make_config(tmp_path, ["example3"], n_spacing="cubic").n_grid()


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf", "1e400"])
def test_main_rejects_a_tolerance_that_is_not_positive(tmp_path, capsys, tol):
    out = tmp_path / "reports"
    code = main(["run", "--scenarios", "example1", "--tol", tol,
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "bad tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/reports"])
def test_main_refuses_an_out_path_that_is_no_directory(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file")
    code = main(["run", "--scenarios", "example1",
                 "--out", str(tmp_path / out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "taken" in err and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "a file"


def test_main_refuses_a_report_path_that_is_a_directory(tmp_path, capsys):
    (tmp_path / "example1.csv").mkdir()
    code = main(["run", "--scenarios", "example1", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "example1.csv" in err
    assert "Traceback" not in err


def test_main_bad_flag_exits_two():
    assert main(["run", "--no-such-flag"]) == EXIT_USAGE


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MMSE_LAB_SEED", "77")
    out_env = tmp_path / "env"
    main(["run", "--scenarios", "example2", "--n-stop", "4",
          "--out", str(out_env)])
    monkeypatch.delenv("MMSE_LAB_SEED")
    out_flag = tmp_path / "flag"
    main(["run", "--scenarios", "example2", "--n-stop", "4", "--seed", "77",
          "--out", str(out_flag)])
    assert ((out_env / "example2.csv").read_bytes()
            == (out_flag / "example2.csv").read_bytes())


def test_seed_env_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("MMSE_LAB_SEED", "not-a-number")
    code = main(["run", "--scenarios", "example3", "--out", str(tmp_path)])
    assert code == EXIT_USAGE


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

def test_selftest_passes_and_is_deterministic():
    a, b = io.StringIO(), io.StringIO()
    assert cmd_selftest(seed=0, stream=a) == EXIT_OK
    assert cmd_selftest(seed=0, stream=b) == EXIT_OK
    assert a.getvalue() == b.getvalue()
    assert "all suites passed" in a.getvalue()


def test_selftest_negative_control_fails(monkeypatch):
    # every conditional mean shifted by 0.05 must break the orthogonality
    # suite: the suite can fail at all
    from mmse_lab import exact
    from mmse_lab.exact import conditional_expectation

    def shifted(joint):
        ce = conditional_expectation(joint)
        return dataclasses.replace(ce, estimates=ce.estimates + 0.05)

    monkeypatch.setattr(exact, "conditional_expectation", shifted)
    buf = io.StringIO()
    code = cmd_selftest(seed=0, stream=buf)
    assert code == EXIT_VERDICT
    assert "FAIL orthogonality" in buf.getvalue()
