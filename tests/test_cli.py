import json
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env
from mmi import cli
from mmi.intensity import IntensityRequest, compute_interferogram, thermal_thermal_ratio
from mmi.spectra import SpectralDistribution
from mmi.states import Coherent, OnePhoton, Thermal, Vacuum

ENV = subprocess_env()


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mmi", *args],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=cwd,
    )


def test_help_screens():
    for args in ([], ["simulate"], ["verify"], ["fit"], ["coherence"]):
        proc = run_cli(*args, "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()


def test_simulate_fock_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "fock.csv"
    proc = run_cli(
        "simulate", "fock", "--wbar-s", "3", "--wbar-lo", "3.15", "--sigma", "1",
        "--grid", "0:6:40", "-o", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_bytes().split(b"\n")
    assert lines[0] == b"tau,ratio"
    assert b"\r" not in out.read_bytes()
    sidecar = json.loads((tmp_path / "fock.json").read_text())
    assert sidecar["config"]["scenario"] == "fock"
    assert sidecar["method"] == "exact"
    assert sidecar["seed"] is None
    assert "timestamp" in sidecar and "version" in sidecar
    assert "quadrature" not in sidecar  # nothing was integrated
    # the zero-delay row is exactly 1
    assert lines[1] == b"0,1"


def test_simulate_fock_quadrature_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "fock.csv"
    proc = run_cli(
        "simulate", "fock", "--wbar-s", "3", "--wbar-lo", "3.15", "--sigma", "1",
        "--grid", "0:6:40", "--method", "quadrature", "-o", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes().split(b"\n")[1] == b"0,1"
    sidecar = json.loads((tmp_path / "fock.json").read_text())
    assert sidecar["method"] == "quadrature"
    counters = sidecar["quadrature"]
    assert set(counters) == {"panels", "evaluations", "max_error"}
    assert counters["evaluations"] >= 15 * counters["panels"] > 0
    assert 0.0 <= counters["max_error"] <= 1e-12


def test_simulate_rejects_infinite_delay(tmp_path):
    for scenario in ("fock", "thermal-vacuum"):
        proc = run_cli("simulate", scenario, "--grid", "0:inf:5", "-o", str(tmp_path / "x.csv"), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        proc = run_cli(
            "simulate", "thermal-vacuum", "--theta", "1", "--d", "3",
            "--grid", "0:5:64", "-o", str(out), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_simulate_equal_temperatures_writes_unity(tmp_path):
    out = tmp_path / "flat.csv"
    proc = run_cli(
        "simulate", "thermal-thermal", "--t1/t0", "1.0", "--grid", "0:5:20",
        "-o", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[1] == "1" for row in rows)


# grids on which every scenario's closed form is valid (ω̄_s = 3σ by default)
BOTH_METHOD_ARGS = [
    ("fock", "tau", ["--grid", "0:6:25"]),
    ("coherent", "tau", ["--grid", "0:6:25"]),
    ("one-photon-vacuum", "tau", ["--grid", "0:6:25"]),
    ("thermal-vacuum", "a", ["--d", "3", "--grid", "0.01:6:50"]),
    ("thermal-vacuum", "a", ["--d", "1", "--grid", "0.01:6:50"]),
    ("thermal-thermal", "a", ["--grid", "0:4:40"]),
]


def test_simulate_thermal_both_methods_agree(tmp_path):
    # --method both on every scenario: its quadrature column is the
    # --method quadrature run, and the exact thermal closed forms agree with it
    for scenario, x_name, extra in BOTH_METHOD_ARGS:
        both = tmp_path / f"{scenario}{extra[1]}-both.csv"
        quad = tmp_path / f"{scenario}{extra[1]}-quadrature.csv"
        assert cli.main(["simulate", scenario, *extra, "--method", "both", "-o", str(both)]) == 0
        assert cli.main(["simulate", scenario, *extra, "--method", "quadrature", "-o", str(quad)]) == 0
        rows = [row.split(",") for row in both.read_text().splitlines()]
        quad_rows = [row.split(",") for row in quad.read_text().splitlines()]
        assert rows[0] == [x_name, "ratio_closed", "ratio_quadrature"]
        assert quad_rows[0] == [x_name, "ratio"]
        assert [row[2] for row in rows[1:]] == [row[1] for row in quad_rows[1:]]
        sidecar = json.loads(both.with_suffix(".json").read_text())
        assert sidecar["method"] == "both"
        assert sidecar["quadrature"] == json.loads(quad.with_suffix(".json").read_text())["quadrature"]
        if scenario.startswith("thermal"):
            data = np.array(rows[1:], dtype=float)
            assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-9


def test_simulate_rejects_bad_combination(tmp_path):
    # the spectral closed forms exist in one dimension only
    proc = run_cli(
        "simulate", "fock", "--d", "3", "--method", "closed_form",
        "--grid", "0:5:10", "-o", str(tmp_path / "x.csv"), cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "closed form" in proc.stderr


def test_simulate_dimension_reaches_every_scenario(tmp_path):
    # --d sets the dimension of every scenario; the sidecar records the one used
    def simulate(scenario, *extra):
        out = tmp_path / f"{scenario}{len(extra)}.csv"
        code = cli.main(["simulate", scenario, "--grid", "0:4:9", *extra, "-o", str(out)])
        return code, out

    f_s, f_lo = SpectralDistribution(3.0, 1.0), SpectralDistribution(3.15, 1.0)
    ports = {"fock": (OnePhoton(f_s), OnePhoton(f_lo)), "coherent": (Coherent(f_s), Coherent(f_lo)),
             "one-photon-vacuum": (OnePhoton(f_s), Vacuum())}
    for scenario, pair in ports.items():
        code1, out1 = simulate(scenario)
        code3, out3 = simulate(scenario, "--d", "3")
        assert code1 == code3 == 0
        assert json.loads(out1.with_suffix(".json").read_text())["config"]["d"] == 1
        assert json.loads(out3.with_suffix(".json").read_text())["config"]["d"] == 3
        ratios = np.loadtxt(out3, delimiter=",", skiprows=1)[:, 1]
        want = compute_interferogram(IntensityRequest(*pair, np.linspace(0.0, 4.0, 9), 3)).ratios
        assert np.allclose(ratios, want, rtol=1e-11, atol=0.0)
        assert out1.read_bytes() != out3.read_bytes()
    # thermal scenarios default to three dimensions
    code, default = simulate("thermal-vacuum")
    code3, explicit = simulate("thermal-vacuum", "--d", "3")
    assert code == code3 == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert json.loads(default.with_suffix(".json").read_text())["config"]["d"] == 3
    code, out = simulate("thermal-thermal")
    assert code == 0 and json.loads(out.with_suffix(".json").read_text())["config"]["d"] == 3
    # the thermal pair admits d = 1 too (a = τθ₀, θ₀ = 1 and --t1/t0 1.01 by default)
    code1, out1 = simulate("thermal-thermal", "--d", "1")
    assert code1 == 0 and json.loads(out1.with_suffix(".json").read_text())["config"]["d"] == 1
    ratios = np.loadtxt(out1, delimiter=",", skiprows=1)[:, 1]
    want = compute_interferogram(IntensityRequest(Thermal(1.01), Thermal(1.0), np.linspace(0.0, 4.0, 9), 1)).ratios
    assert np.allclose(ratios, want, rtol=1e-11, atol=0.0)
    assert out1.read_bytes() != out.read_bytes()


def test_spectral_closed_form_exit_codes(tmp_path, capsys):
    # a closed form that goes negative is a numeric failure (3) that points to
    # --method auto; a port outside the closed form's regime is a usage error (2)
    out = tmp_path / "coh.csv"
    negative = ["simulate", "coherent", "--wbar-s", "6.011", "--wbar-lo", "5.735", "--sigma", "1",
                "--grid", "0:12:400", "-o", str(out)]
    capsys.readouterr()
    assert cli.main([*negative, "--method", "closed_form"]) == 3
    assert "--method auto" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([*negative, "--method", "auto"]) == 0
    narrow = ["simulate", "one-photon-vacuum", "--wbar-s", "1.5", "--method", "closed_form", "-o", str(out)]
    assert cli.main(narrow) == 2
    assert "2 widths" in capsys.readouterr().err


def test_library_warnings_print_as_one_line_each(tmp_path, capsys):
    # a library warning reaches the user as its message, not as a source line of the package
    out = str(tmp_path / "w.csv")
    capsys.readouterr()
    assert cli.main(["simulate", "one-photon-vacuum", "--wbar-s", "2.5", "--method", "closed_form", "-o", out]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: closed form is a wide-pulse approximation; accuracy degrades for signal mean frequency "
        "below 3 widths"
    ]
    assert "UserWarning" not in err and "cli.py" not in err
    fock = ["simulate", "fock", "--wbar-s", "2.5", "--method", "closed_form", "-o", out]
    assert cli.main([*fock, "--wbar-lo", "2.5"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("warning: closed form") for line in err)
    # a command that then fails still prints its warnings, before its error
    assert cli.main([*fock, "--wbar-lo", "1.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: closed form") and err[1].startswith("error: closed form requires")


def test_simulate_rejects_a_zero_lo_width(tmp_path, capsys):
    out = tmp_path / "fock.csv"
    assert cli.main(["simulate", "fock", "--sigma-lo", "0", "-o", str(out)]) == 2
    assert "spectral width must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_dimension_gate_is_the_scenario_table(tmp_path, monkeypatch, capsys):
    # --d passes any integer to the library, whose scenario table decides
    from mmi import intensity

    monkeypatch.setitem(intensity._DIMENSIONS, "thermal-vacuum", (3, 1, 5))
    out = tmp_path / "tv5.csv"
    assert cli.main(["simulate", "thermal-vacuum", "--d", "5", "--grid", "0:4:9", "-o", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["config"]["d"] == 5
    capsys.readouterr()
    assert cli.main(["simulate", "thermal-vacuum", "--d", "2", "-o", str(tmp_path / "tv2.csv")]) == 2
    assert "dimension 2" in capsys.readouterr().err


# what each scenario offers beyond --grid, --method, --d, --out and --help
SCENARIO_FLAGS = {
    "fock": {"--wbar-s", "--wbar-lo", "--sigma", "--sigma-lo"},
    "coherent": {"--wbar-s", "--wbar-lo", "--sigma", "--sigma-lo"},
    "one-photon-vacuum": {"--wbar-s", "--sigma"},
    "thermal-vacuum": {"--theta", "--si"},
    "thermal-thermal": {"--theta0", "--t1/t0", "--si"},
}


def test_simulate_help_lists_only_the_scenarios_flags(capsys):
    for scenario, own in SCENARIO_FLAGS.items():
        assert cli.main(["simulate", scenario, "--help"]) == 0
        listed = set(re.findall(r"--[\w/-]+", capsys.readouterr().out))
        assert listed == own | {"--grid", "--method", "--d", "--out", "--help"}, scenario


@pytest.mark.parametrize("argv", [
    "simulate thermal-thermal --wbar-s 7 --theta 9",
    "simulate thermal-thermal --theta 9",  # not an abbreviation of --theta0
    "simulate fock --theta0 5",
    "simulate fock --si",
    "simulate one-photon-vacuum --wbar-lo 3",
    "simulate thermal-vacuum --theta-ratio 2",
    "simulate thermal-vacuum --t1/t0 2",
    "simulate --grid 0:1:5 fock",
])
def test_simulate_rejects_flags_the_scenario_does_not_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 2
    assert "usage:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_and_coherence_reject_flags_they_do_not_read(tmp_path, capsys):
    data = tmp_path / "tt.csv"
    assert cli.main(["simulate", "thermal-thermal", "--grid", "0:3:40", "-o", str(data)]) == 0
    capsys.readouterr()
    for argv, flags in [
        (["fit", str(data), "--model", "thermal-thermal", "--wbar-lo", "3", "--p1", "4"], ("--wbar-lo", "--p1")),
        (["fit", str(data), "--model", "fock", "--wbar-lo", "3.15", "--p0", "9"], ("--p0",)),
        (["fit", str(data), "--model", "fock", "--wbar-lo", "3.15", "--si"], ("--si",)),
        (["fit", str(data), "--model", "one-photon-vacuum", "--theta0", "2"], ("--theta0",)),
        (["coherence", "--temperature", "5"], ("--temperature",)),
        (["coherence", "--si", "--theta", "7"], ("--theta",)),
    ]:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
    # one-photon-vacuum reads its initial guess as a pair
    assert cli.main(["fit", str(data), "--model", "one-photon-vacuum", "--p0", "3"]) == 2
    assert "--p0 and --p1" in capsys.readouterr().err
    # the fock model has no default LO mean frequency
    assert cli.main(["fit", str(data), "--model", "fock"]) == 2
    assert "--wbar-lo is required for the fock model" in capsys.readouterr().err


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every `mmi` line of README's "Command line" block, in order, exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "mmi"]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_simulate_rejects_malformed_grid(tmp_path):
    proc = run_cli("simulate", "fock", "--grid", "0-6-600", cwd=tmp_path)
    assert proc.returncode == 2


def test_fit_roundtrip_through_files(tmp_path):
    out = tmp_path / "tt.csv"
    proc = run_cli(
        "simulate", "thermal-thermal", "--t1/t0", "1.01", "--theta0", "1.0",
        "--grid", "0:3:200", "-o", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result_path = tmp_path / "fit.json"
    proc = run_cli(
        "fit", str(out), "--model", "thermal-thermal", "--theta0", "1.0",
        "--out", str(result_path), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert abs(result["estimates"]["theta_ratio"] - 1.01) < 1e-6
    assert result["converged"] is True
    assert result["uncertainties"]["theta_ratio"] > 0.0


@pytest.mark.parametrize("simulate, fit_args, truth", [
    (["thermal-thermal", "--theta0", "1.2", "--t1/t0", "0.95", "--grid", "0:3:200"],
     ["thermal-thermal", "--theta0", "1.2"], {"theta_ratio": 0.95}),
    (["one-photon-vacuum", "--wbar-s", "3.2", "--sigma", "0.9", "--method", "closed_form"],
     ["one-photon-vacuum"], {"mean_freq": 3.2, "width": 0.9}),
    (["fock", "--wbar-s", "3", "--wbar-lo", "3.15", "--sigma", "1", "--method", "closed_form"],
     ["fock", "--wbar-lo", "3.15"], {"mean_freq": 3.0, "width": 1.0}),
])
def test_fit_recovers_every_model_from_its_simulate_csv(tmp_path, capsys, simulate, fit_args, truth):
    data = tmp_path / "data.csv"
    assert cli.main(["simulate", *simulate, "-o", str(data)]) == 0
    capsys.readouterr()
    assert cli.main(["fit", str(data), "--model", *fit_args]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["converged"] is True
    assert result["estimates"].keys() == truth.keys()
    for name, value in truth.items():
        assert abs(result["estimates"][name] - value) < 1e-6, name


def test_fit_flat_data_exits_identifiability(tmp_path):
    out = tmp_path / "flat.csv"
    run_cli(
        "simulate", "thermal-thermal", "--t1/t0", "1.0", "--grid", "0:3:50",
        "-o", str(out), cwd=tmp_path,
    )
    proc = run_cli("fit", str(out), "--model", "thermal-thermal", cwd=tmp_path)
    assert proc.returncode == 4
    assert "identifiability" in proc.stderr.lower()


def test_fit_rejects_a_csv_from_another_scenario(tmp_path, capsys):
    # the x column names the unit: a = τθ₀ for thermal CSVs, τ in seconds
    # under --si, τ for spectral ones
    tt, si = tmp_path / "tt.csv", tmp_path / "si.csv"
    assert cli.main(["simulate", "thermal-thermal", "--grid", "0:3:40", "-o", str(tt)]) == 0
    assert cli.main(["simulate", "thermal-vacuum", "--si", "--theta", "2.725", "--grid", "0:1e-11:40",
                     "-o", str(si)]) == 0
    capsys.readouterr()
    for argv, header in [
        (["fit", str(tt), "--model", "one-photon-vacuum"], "'a'"),
        (["fit", str(tt), "--model", "fock", "--wbar-lo", "3.15"], "'a'"),
        (["fit", str(si), "--model", "thermal-thermal"], "'tau'"),
        (["fit", str(tt), "--model", "thermal-thermal", "--si"], "'a'"),
    ]:
        assert cli.main(argv) == 2, argv
        assert header in capsys.readouterr().err


def test_fit_non_finite_cell_exits_usage(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("a,ratio\n0,1\n0.5,nan\n1,0.8\n1.5,0.7\n2,0.6\n")
    assert cli.main(["fit", str(bad), "--model", "thermal-thermal"]) == 2
    assert "finite" in capsys.readouterr().err


def test_fit_malformed_csv_exits_usage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n1,2\n")
    proc = run_cli("fit", str(bad), "--model", "thermal-thermal", cwd=tmp_path)
    assert proc.returncode == 2
    bad.write_text("a,ratio\n1,notanumber\n")
    proc = run_cli("fit", str(bad), "--model", "thermal-thermal", cwd=tmp_path)
    assert proc.returncode == 2


def test_fit_honors_noise_column_as_weights(tmp_path):
    rng = np.random.default_rng(9)
    theta0, ratio_true = 1.0, 1.01
    a0 = np.linspace(0.0, 3.0, 200)
    clean = np.asarray(thermal_thermal_ratio(theta0, ratio_true, a0 / theta0))
    sigma = np.where(a0 < 1.5, 1e-5, 5e-3)
    noisy = clean + rng.normal(0.0, sigma)

    plain = tmp_path / "plain.csv"
    cli.write_csv(plain, {"a": a0, "ratio": noisy})
    weighted = tmp_path / "weighted.csv"
    cli.write_csv(weighted, {"a": a0, "ratio": noisy, "noise": sigma})

    res_plain = json.loads(run_cli("fit", str(plain), "--model", "thermal-thermal", cwd=tmp_path).stdout)
    res_weighted = json.loads(run_cli("fit", str(weighted), "--model", "thermal-thermal", cwd=tmp_path).stdout)
    assert res_weighted["weighted"] is True
    assert res_plain["weighted"] is False
    assert res_plain["estimates"]["theta_ratio"] != res_weighted["estimates"]["theta_ratio"]


def test_fit_zero_noise_exits_usage(tmp_path, capsys):
    data = tmp_path / "noise.csv"
    a0 = np.linspace(0.0, 3.0, 40)
    noise = np.where(a0 < 1.0, 1e-3, 0.0)
    cli.write_csv(data, {"a": a0, "ratio": thermal_thermal_ratio(1.0, 1.01, a0), "noise": noise})
    assert cli.main(["fit", str(data), "--model", "thermal-thermal"]) == 2
    assert "noise levels must be positive" in capsys.readouterr().err


def test_verify_quick_passes():
    proc = run_cli("verify", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert "[PASS] spectral exact-vs-quadrature" in proc.stdout
    assert "monte-carlo" not in proc.stdout  # deterministic checks only


def test_verify_out_writes_a_json_report(tmp_path):
    out = tmp_path / "verify.json"
    proc = run_cli("verify", "--quick", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["quick"] is True
    assert report["checks"] and all(check["passed"] is True for check in report["checks"])


def test_verify_failure_exits_one_and_names_the_check(tmp_path, monkeypatch, capsys):
    from mmi import verify

    checks = [verify._record("a passing check", 1e-14, 1e-12, 0.01),
              verify._record("a failing check", 2e-3, 1e-6, 0.02)]
    monkeypatch.setattr(verify, "run_verification", lambda **kwargs: checks)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] a failing check" in captured.out and "all scenarios PASS" not in captured.out
    assert "verification FAILED for: a failing check" in captured.err
    assert [check["passed"] for check in json.loads(out.read_text())["checks"]] == [True, False]


@pytest.mark.parametrize("flag", ["--seed", "--samples"])
def test_verify_takes_no_seed_or_sample_count(flag, capsys):
    assert cli.main(["verify", flag, "0"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_quick_imports_no_test_extras():
    # scipy, mpmath and hypothesis back tests only; the package never loads them.
    # concurrent.futures is imported nowhere: the workers are plain threads.
    code = (
        "import sys, mmi\n"
        "from mmi import cli\n"
        "assert cli.main(['verify', '--quick']) == 0\n"
        "print(sorted({'scipy', 'mpmath', 'hypothesis', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert "[PASS] thermal-vacuum d = 1 dual path" in proc.stdout


def test_light_commands_do_not_import_the_verifier():
    # the oracles serve verify alone; simulate, fit and coherence need not compile them
    code = (
        "import sys\n"
        "from mmi import cli\n"
        "assert cli.main(['coherence']) == 0\n"
        "print(sorted({'mmi.oracle', 'mmi.verify'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_out_records_each_check_time(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 25
    assert all(isinstance(check["seconds"], float) and check["seconds"] >= 0.0 for check in checks)
    assert next(c for c in checks if c["name"] == "fock plateau")["seconds"] > 0.0


def test_simulate_at_extreme_delays(tmp_path, capsys):
    # the exact path and the closed forms reach their plateau quietly; quadrature refuses
    # a phase x·τ past its reach, which is a numeric failure
    out = str(tmp_path / "far.csv")
    assert cli.main(["simulate", "fock", "--grid", "0:1.7e308:3", "-o", out]) == 0
    assert cli.main(["simulate", "thermal-thermal", "--method", "closed_form", "--grid=-1.7e308:0:3", "-o", out]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["simulate", "one-photon-vacuum", "--d", "3", "--grid", "0:1e8:2", "-o", out]) == 0
    assert abs(np.loadtxt(out, delimiter=",", skiprows=1)[-1, 1] - 0.5) <= 1e-12
    for scenario in ("thermal-vacuum", "fock"):
        assert cli.main(["simulate", scenario, "--method", "quadrature", "--grid", "0:1e20:3", "-o", out]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: delay beyond the quadrature's reach")


def test_simulate_rejects_a_grid_whose_span_overflows(tmp_path, capsys):
    # finite bounds 3.4e308 apart: np.linspace would warn twice and hand on non-finite delays
    out = str(tmp_path / "span.csv")
    capsys.readouterr()
    assert cli.main(["simulate", "fock", "--grid=-1.7e308:1.7e308:3", "-o", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: grid span overflows the floating-point range, got '-1.7e308:1.7e308:3'"
    ]
    assert not list(tmp_path.iterdir())


def test_thermal_quadrature_past_the_float_range_is_a_numeric_failure(tmp_path, capsys):
    out = str(tmp_path / "far_quad.csv")
    capsys.readouterr()
    argv = ["simulate", "thermal-vacuum", "--si", "--method", "quadrature", "--grid", "0:1e300:3", "-o", out]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: oscillation phase beyond the floating-point range")


def test_simulate_grid_with_a_negative_start(tmp_path):
    out = tmp_path / "neg.csv"
    proc = run_cli("simulate", "thermal-vacuum", "--grid=-3:6:31", "-o", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "a,ratio" and len(lines) == 32
    assert lines[1].startswith("-3,")


def test_coherence_reports_calibrated_value(tmp_path):
    out = tmp_path / "coh.json"
    proc = run_cli("coherence", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert 1.4 <= payload["a_c"] <= 1.6
    assert payload["epsilon"] == pytest.approx(0.04078149)


def test_coherence_rejects_non_finite_temperature(capsys):
    for theta in ("nan", "inf"):
        assert cli.main(["coherence", "--theta", theta]) == 2
        assert "temperature must be positive and finite" in capsys.readouterr().err


def test_coherence_si_units(tmp_path):
    proc = run_cli("coherence", "--si", "--temperature", "2.725", cwd=tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # tau_c = a_c hbar / (k_B T): ~4.2 ps at 2.725 K; l_c = c tau_c ~ 1.26 mm
    assert payload["tau_c_seconds"] == pytest.approx(
        payload["a_c"] * 1.054571817e-34 / (1.380649e-23 * 2.725), rel=1e-12
    )
    assert payload["coherence_length_m"] == pytest.approx(
        payload["tau_c_seconds"] * 299792458.0, rel=1e-12
    )
    assert 1e-3 < payload["coherence_length_m"] < 2e-3


def test_csv_values_carry_twelve_significant_digits(tmp_path):
    out = tmp_path / "digits.csv"
    run_cli(
        "simulate", "thermal-vacuum", "--grid", "0.37:0.37:1", "-o", str(out), cwd=tmp_path
    )
    row = out.read_text().strip().splitlines()[1]
    a_str, ratio_str = row.split(",")
    assert len(ratio_str.replace(".", "").replace("-", "").lstrip("0")) >= 11


# What `mmi fit` reads: a file and the columns its reader returns, each cell as
# Python's float parses it, or None where the reader must refuse the file.
READER_CORPUS = {
    "plain": ("tau,ratio\n0,1\n0.5,0.9\n", ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "a column": ("a,ratio\n0,1\n1.5,0.95\n", ("a", ["0", "1.5"], ["1", "0.95"], None)),
    "crlf": ("tau,ratio\r\n0,1\r\n0.5,0.9\r\n", ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "quoted cells": ('tau,ratio\n"0","1"\n"0.5","0.9"\n', ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "quoted header": ('"tau","ratio"\n0,1\n0.5,0.9\n', ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "blank lines": ("tau,ratio\n\n0,1\n\n0.5,0.9\n\n", ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "spaces around cells": (" tau , ratio \n 0 , 1 \n0.5,\t0.9\n", ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "noise column": ("a,ratio,noise\n0,1,1e-3\n1,0.9,2e-3\n", ("a", ["0", "1"], ["1", "0.9"], ["1e-3", "2e-3"])),
    "nan and inf": ("tau,ratio\n0,nan\n1,inf\n2,-inf\n", ("tau", ["0", "1", "2"], ["nan", "inf", "-inf"], None)),
    "no final newline": ("tau,ratio\n0,1\n0.5,0.9", ("tau", ["0", "0.5"], ["1", "0.9"], None)),
    "number forms": ("tau,ratio\n1e-3,+1.5E0\n.5,-0\n", ("tau", ["1e-3", ".5"], ["+1.5E0", "-0"], None)),
    "digit separator": ("tau,ratio\n1_0,1\n", None),  # Python's float reads 10; numpy's parser refuses it
    "whitespace-only line": ("tau,ratio\n0,1\n   \n0.5,0.9\n", None),
    "hash line": ("tau,ratio\n# comment\n0,1\n", None),
    "hash after a cell": ("tau,ratio\n0,1 # note\n", None),
    "trailing comma": ("tau,ratio\n0,1,\n", None),
    "empty cell": ("tau,ratio\n0,\n", None),
    "ragged rows": ("tau,ratio\n0,1\n0.5\n", None),
    "more cells than header": ("tau,ratio\n0,1,2\n0.5,0.9,3\n", None),
    "header only": ("tau,ratio\n", None),
    "blank body": ("tau,ratio\n\n\r\n", None),
    "empty file": ("", None),
    "comma inside a quoted name": ('"tau,ratio"\n0,1\n', None),
    "semicolons": ("tau;ratio\n0;1\n", None),
    "byte order mark": ("\ufefftau,ratio\n0,1\n", None),
    "hex": ("tau,ratio\n0x1,1\n", None),
    "foreign header": ("time,value\n1,2\n", None),
    "unsupported column": ("tau,ratio,weight\n0,1,1\n", None),
}


@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_read_interferogram_csv_corpus(tmp_path, name):
    text, want = READER_CORPUS[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    # no warning either: an empty body must be refused before numpy sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(ValueError, match=re.escape(str(path))):
                cli.read_interferogram_csv(path)
            return
        x_name, x, ratio, noise = cli.read_interferogram_csv(path)
    assert x_name == want[0]
    np.testing.assert_array_equal(x, [float(v) for v in want[1]])
    np.testing.assert_array_equal(ratio, [float(v) for v in want[2]])
    if want[3] is None:
        assert noise is None
    else:
        np.testing.assert_array_equal(noise, [float(v) for v in want[3]])
