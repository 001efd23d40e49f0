import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selrec.cli import main
from selrec.config import ExperimentConfig
from selrec.solvers import SolverError, integrate_ode, least_squares_slope, recursive_solve

BASE = {
    "n": 2,
    "i_star": 1,
    "s": 0.8,
    "rho": [0.0, 0.6],
    "initial": {"vector": [0.35, 0.15, 0.05, 0.45]},
    "t_max": 0.75,
    "grid_steps": 256,
    "quad_tol": 1e-7,
    "seed": 11,
    "replicates": 3000,
    "dual_flavor": "all",
    "z_threshold": 4.5,
    "agreement_tol": 1e-5,
    "moran_population_sizes": [50, 200],
    "moran_replicates": 4,
}


def write_config(tmp_path, name="exp.json", **overrides):
    raw = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def record_solver_calls(monkeypatch):
    """Names of the forward solvers the CLI calls, in call order."""
    import selrec.cli

    calls = []
    for name in ("integrate_ode", "ld_decay_residuals", "recursive_solve",
                 "semigroup_solve", "semigroup_path", "lln_convergence"):
        def wrapper(*args, _real=getattr(selrec.cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(selrec.cli, name, wrapper)
    return calls


def test_solve_ode_outputs(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "ode"]) == 0
    csv = (out / "solve_ode.csv").read_text().splitlines()
    assert csv[0].startswith("# selrec")
    assert csv[1].startswith("# sites")
    meta = json.loads((out / "solve_meta.json").read_text())
    assert "config_hash" in meta and "version" in meta


def test_solve_all_methods_agree(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 0
    meta = json.loads((out / "solve_meta.json").read_text())
    assert meta["max_pairwise_l1"] <= BASE["agreement_tol"]
    for name in ("solve_ode.csv", "solve_recursion.csv", "solve_semigroup.csv"):
        assert (out / name).exists()


def _full_grid_lines(cfgp):
    """Body lines (column header and rows) of the ODE and recursion
    trajectories on the whole grid, as Trajectory.write_csv writes them."""
    exp = ExperimentConfig.from_file(cfgp)
    lines = {}
    for name, solve in (("ode", integrate_ode), ("recursion", recursive_solve)):
        fh = io.StringIO()
        solve(exp.cfg, exp.omega0, exp.settings).write_csv(fh)
        lines[name] = fh.getvalue().splitlines()
    return exp.settings.grid(), lines


def _solve_all(cfgp, out):
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 0
    return {name: (out / f"solve_{name}.csv").read_text().splitlines()
            for name in ("ode", "recursion", "semigroup")}


def assert_rows_near(lines, expect):
    """CSV rows of the recursion against the same rows of its whole-grid
    walk: equal times, and at most 1e-13 apart in l1 per row, since the
    recursion builds full vectors at the asked rows only and sums in another
    order there."""
    got, want = (np.array([[float(x) for x in line.split(",")] for line in block])
                 for block in (lines, expect))
    assert got.shape == want.shape and np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1:] - want[:, 1:]).sum(axis=1).max() <= 1e-13


def test_solve_writes_the_comparison_rows_of_the_full_grid(tmp_path):
    cfgp = write_config(tmp_path)
    csvs = _solve_all(cfgp, tmp_path / "run")
    grid, full = _full_grid_lines(cfgp)
    steps = BASE["grid_steps"]
    rows = [0, steps // 4, steps // 2, 3 * steps // 4, steps]
    for name, lines in csvs.items():
        assert lines[0].startswith("# selrec") and lines[1].startswith("# sites")
        assert len(lines) == 3 + len(rows)
        assert [float(r.split(",")[0]) for r in lines[3:]] == [grid[j] for j in rows]
    assert csvs["ode"][2:] == [full["ode"][0]] + [full["ode"][1 + j] for j in rows]
    assert csvs["recursion"][2] == full["recursion"][0]
    assert_rows_near(csvs["recursion"][3:], [full["recursion"][1 + j] for j in rows])


def test_solve_at_every_grid_time_writes_the_full_grid(tmp_path):
    cfgp = write_config(tmp_path)
    grid, full = _full_grid_lines(cfgp)
    cfgp = write_config(tmp_path, output_times=grid.tolist())
    out = tmp_path / "run"
    csvs = _solve_all(cfgp, out)
    for name in ("ode", "recursion"):
        text = (out / f"solve_{name}.csv").read_text()
        header = "".join(line + "\n" for line in csvs[name][:2])
        assert text == header + "".join(line + "\n" for line in full[name])
        assert len(csvs[name]) == 3 + BASE["grid_steps"] + 1
    assert len(csvs["semigroup"]) == 3 + BASE["grid_steps"] + 1


def test_solve_writes_output_times_in_their_order(tmp_path):
    times = [0.375, 0.09375]
    cfgp = write_config(tmp_path, output_times=times)
    out = tmp_path / "run"
    csvs = _solve_all(cfgp, out)
    grid, full = _full_grid_lines(cfgp)
    rows = [int(np.argmin(np.abs(grid - t))) for t in times]
    for name, lines in csvs.items():
        assert [float(r.split(",")[0]) for r in lines[3:]] == times
    assert csvs["ode"][3:] == [full["ode"][1 + j] for j in rows]
    assert_rows_near(csvs["recursion"][3:], [full["recursion"][1 + j] for j in rows])
    meta = json.loads((out / "solve_meta.json").read_text())
    assert [row["t"] for row in meta["pairwise_l1"]] == times


def test_failing_solver_leaves_no_solve_output(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("recursion failed on purpose")

    monkeypatch.setattr("selrec.cli.recursive_solve", fail)
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 2
    assert "recursion failed on purpose" in capsys.readouterr().err
    assert not list(out.glob("solve_*"))


@pytest.mark.parametrize("command", ["ld", "verify"])
def test_failing_recursion_leaves_no_output(tmp_path, monkeypatch, capsys, command):
    def fail(*args, **kwargs):
        raise SolverError("recursion failed on purpose")

    monkeypatch.setattr("selrec.cli.ld_decay_residuals", fail)
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
    assert "recursion failed on purpose" in capsys.readouterr().err
    assert not out.exists()


# README's table of subcommands and the files each writes
OUTPUTS = {
    ("solve", "--method", "all"): {"solve_ode.csv", "solve_recursion.csv",
                                   "solve_semigroup.csv", "solve_meta.json"},
    ("dual",): {"dual_estimates.json"},
    ("moran",): {"moran_lln.json"},
    ("asymptotics",): {"asymptotics_convergence.csv", "asymptotics_limit.json"},
    ("ld",): {"ld_norms.csv", "ld_rates.json"},
    ("verify",): {"verify_report.json"},
}


def test_every_command_stamps_its_files_and_repeats_them(tmp_path):
    from selrec import __version__

    cfgp = Path(__file__).resolve().parent.parent / "configs" / "example.json"
    config_hash = ExperimentConfig.from_file(cfgp).config_hash
    for argv, names in OUTPUTS.items():
        contents = []
        for run in ("first", "again"):
            out = tmp_path / argv[0] / run
            assert main([*argv, "--config", str(cfgp), "--out", str(out)]) == 0
            assert {p.name for p in out.iterdir()} == names
            files = {}
            for name in names:
                data = (out / name).read_bytes()
                if name.endswith(".csv"):
                    assert data.startswith(f"# selrec {__version__} config {config_hash}\n".encode())
                else:
                    payload = json.loads(data)
                    assert (payload["config_hash"], payload["version"]) == (config_hash, __version__)
                    # solve's solver times are the one field that varies between runs
                    if "runtimes_seconds" in payload:
                        data = json.dumps({**payload, "runtimes_seconds": None})
                files[name] = data
            contents.append(files)
        assert contents[0] == contents[1], argv


def test_config_hash_is_the_sha256_of_the_canonical_json_taken_once(tmp_path, monkeypatch):
    # the stamp is hashlib's SHA-256 of the sorted, compact JSON of the
    # config, and solve --method all (three CSVs and solve_meta.json)
    # serialises and hashes the config, its 2^n initial vector included, once
    import hashlib

    import selrec.config

    weights = np.random.default_rng(25).random(1 << 10)
    vector = write_config(tmp_path, n=10, i_star=1, rho=[0.1 * k for k in range(10)],
                          initial={"vector": (weights / weights.sum()).tolist()},
                          grid_steps=64, quad_tol=1e-3)
    example = Path(__file__).resolve().parent.parent / "configs" / "example.json"
    digests = []

    def counted(data, _real=selrec.config._sha256):
        digests.append(data)
        return _real(data)

    monkeypatch.setattr(selrec.config, "_sha256", counted)
    for cfgp in (example, vector):
        raw = json.loads(cfgp.read_text())
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
        config_hash = ExperimentConfig.from_file(cfgp).config_hash
        assert config_hash == hashlib.sha256(canon).hexdigest()
        digests.clear()
        out = tmp_path / cfgp.stem
        assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 0
        assert len(list(out.iterdir())) == 4 and digests == [canon]
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["config_hash"] == config_hash


def test_subnormal_class_mass(tmp_path, capsys):
    # configs/example.json started from two classes, of masses 1 and 1e-310:
    # 1 / m overflows in the conditional of the light class.  Index 0 is fit
    # (site 2 of type 0), index 2 unfit
    example = json.loads((Path(__file__).resolve().parent.parent / "configs" / "example.json").read_text())

    def config(name, fit, unfit):
        vector = [0.0] * 8
        vector[0], vector[2] = fit, unfit
        cfgp = tmp_path / f"{name}.json"
        cfgp.write_text(json.dumps({**example, "initial": {"vector": vector}, "replicates": 2000}))
        return cfgp

    # a light unfit class: every command runs, and the fit class is the limit
    cfgp = config("light_unfit", 1.0, 1e-310)
    for command in ("solve", "dual", "ld", "asymptotics", "moran"):
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / command)]) == 0, command
    limit = json.loads((tmp_path / "asymptotics" / "asymptotics_limit.json").read_text())
    assert limit["limit"]["values"] == [1.0] + [0.0] * 7
    assert limit["final_distance"] < 1e-3
    # verify fails ld_decay_identity alone, whose two sides are rounding dust
    assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "verify")]) == 3
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["ld_decay_identity"]

    # a light fit class is lost in the unfit mass 1 - f0 = 1.0, which would
    # keep the fit class at 0 for all t: every command refuses the start
    cfgp = config("light_fit", 1e-310, 1.0)
    capsys.readouterr()
    for command in ("solve", "dual", "ld", "asymptotics", "moran", "verify"):
        out = tmp_path / f"refused_{command}"
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 1, command
        assert "fit fraction 1e-310 is lost" in capsys.readouterr().err
        assert not out.exists()


def test_moran_one_type_start_writes_a_null_slope(tmp_path):
    # every individual carries the one type, which the solution keeps, so
    # every distance is 0 and a log-log slope has nothing to fit: JSON null,
    # not NaN
    cfgp = write_config(tmp_path, initial={"vector": [0.0, 0.0, 1.0, 0.0]})
    out = tmp_path / "run"
    assert main(["moran", "--config", str(cfgp), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"moran_lln.json holds {name}")

    payload = json.loads((out / "moran_lln.json").read_text(), parse_constant=refuse)
    assert payload["mean_distance"] == [0.0, 0.0] and payload["slope"] is None


def test_non_finite_json_number_exits_two_writing_nothing(tmp_path, monkeypatch, capsys):
    # a NaN planted in asymptotics' final distance: JSON has no token for
    # it, so the run is a numerical failure before --out is made
    monkeypatch.setattr("selrec.cli.l1_distance", lambda *args: float("nan"))
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["asymptotics", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "asymptotics_limit.json holds a non-finite number" in err, err
    assert not out.exists()


def test_empty_output_times_refused(tmp_path, capsys):
    cfgp = write_config(tmp_path, output_times=[])
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 1
    assert "null" in capsys.readouterr().err
    assert not out.exists()


def test_dual_estimates_within_threshold(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["dual", "--config", str(cfgp), "--out", str(out)]) == 0
    payload = json.loads((out / "dual_estimates.json").read_text())
    assert set(payload["flavors"]) == {"counts", "partition", "runtimes"}
    for entry in payload["flavors"].values():
        assert entry["max_abs_z"] < BASE["z_threshold"]
    assert payload["max_abs_z"] < BASE["z_threshold"]


def test_moran_report(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["moran", "--config", str(cfgp), "--out", str(out)]) == 0
    payload = json.loads((out / "moran_lln.json").read_text())
    assert payload["population_sizes"] == [50, 200]
    assert len(payload["mean_distance"]) == 2
    # events summed over replicates: Poisson with mean R * N * (1 + s + sum rho) * t
    for N, events in zip(payload["population_sizes"], payload["events"]):
        lam = BASE["moran_replicates"] * N * (1 + BASE["s"] + sum(BASE["rho"])) * BASE["t_max"]
        assert isinstance(events, int) and abs(events - lam) < 5 * lam ** 0.5
    again = tmp_path / "again"
    assert main(["moran", "--config", str(cfgp), "--out", str(again)]) == 0
    assert (again / "moran_lln.json").read_bytes() == (out / "moran_lln.json").read_bytes()


def test_asymptotics_outputs(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["asymptotics", "--config", str(cfgp), "--out", str(out)]) == 0
    payload = json.loads((out / "asymptotics_limit.json").read_text())
    assert payload["final_distance"] < 1e-3
    assert payload["horizon"] >= BASE["t_max"]
    assert (out / "asymptotics_convergence.csv").exists()


def test_asymptotics_needs_positive_rates(tmp_path):
    cfgp = write_config(tmp_path, rho=[0.0, 0.0])
    out = tmp_path / "run"
    assert main(["asymptotics", "--config", str(cfgp), "--out", str(out)]) == 1


def test_fitted_slopes_need_no_polyfit(tmp_path, monkeypatch):
    # ld's fitted rates and moran's log-log slope come from the closed-form
    # least-squares slope, not from np.polyfit and its LAPACK buffers
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", refuse)
    cfgp = write_config(tmp_path)
    assert main(["ld", "--config", str(cfgp), "--out", str(tmp_path / "ld")]) == 0
    levels = json.loads((tmp_path / "ld" / "ld_rates.json").read_text())["levels"]
    assert levels and all(row["fitted_rate"] is not None for row in levels)
    assert main(["moran", "--config", str(cfgp), "--out", str(tmp_path / "moran")]) == 0
    assert json.loads((tmp_path / "moran" / "moran_lln.json").read_text())["slope"] is not None


def test_least_squares_slope_matches_polyfit():
    cases = [
        ([0.0, 1.0], [2.0, -3.0]),
        ([1.0, 2.0, 4.0, 8.0], [0.3, 0.1, -0.2, -0.9]),
        (np.log([10_000, 100_000]), np.log([0.031, 0.0121])),
        (np.linspace(0.0, 1.0, 513), np.exp(-0.6 * np.linspace(0.0, 1.0, 513)) + 0.01),
    ]
    for x, y in cases:
        x, y = np.asarray(x), np.asarray(y)
        expect = np.polyfit(x, y, 1)[0]
        assert abs(least_squares_slope(x, y) - expect) <= 1e-12 * abs(expect)


def test_ld_rates_match_nominal(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["ld", "--config", str(cfgp), "--out", str(out)]) == 0
    payload = json.loads((out / "ld_rates.json").read_text())
    by_site = {lvl["site"]: lvl for lvl in payload["levels"]}
    assert abs(by_site[2]["fitted_rate"] - 0.6) < 1e-3
    assert (out / "ld_norms.csv").exists()


def test_verify_passes_and_is_deterministic(tmp_path):
    cfgp = write_config(tmp_path)
    outs = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / run
        code = main([
            "verify", "--config", str(cfgp), "--out", str(out), "--threads", threads,
        ])
        assert code == 0
        outs.append((out / "verify_report.json").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]
    report = json.loads(outs[0])
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_honours_replicates_flag(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfgp), "--out", str(out),
                 "--replicates", "700"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    mc = [c for c in report["checks"] if "replicates" in c]
    assert len(mc) == 6
    assert all(c["replicates"] == 700 for c in mc)


def test_verify_solves_one_ode(tmp_path, monkeypatch):
    # the marginal check solves each subset in closed form and compares it
    # with the projection of the one shared ODE solution
    import selrec.cli
    import selrec.solvers

    real = selrec.solvers.integrate_ode
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(selrec.solvers, "integrate_ode", counted)
    monkeypatch.setattr(selrec.cli, "integrate_ode", counted)
    cfgp = write_config(
        tmp_path, n=4, i_star=2, rho=[0.5, 0.0, 0.7, 0.3],
        initial={"vector": [(k + 1) / 136 for k in range(16)]}, replicates=500,
    )
    assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    assert calls == [4]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["marginal_consistency"]["passed"]


@pytest.mark.parametrize("t_max, solves", [(0.75, 1), (2.0, 2)])
def test_verify_shares_one_closed_form_up_to_time_one(tmp_path, monkeypatch, t_max, solves):
    # the solver agreement reads the closed form at t_max and the Monte
    # Carlo checks at min(1, t_max): one call serves both when they coincide
    calls = record_solver_calls(monkeypatch)
    cfgp = write_config(tmp_path, t_max=t_max, grid_steps=1024, replicates=500)
    assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 0
    assert calls.count("semigroup_solve") == solves


def test_marginal_check_computes_each_weight_once(monkeypatch):
    # a subset model pools the rates from each of its sites to its neighbour
    # towards the selected site, so an arm of L sites gives L(L+1)/2 weight
    # pairs: 6 + 10 here, where one closed form per subset model takes 7
    # quadratures on each of 2^6 subsets
    import selrec.cli
    import selrec.solvers
    from selrec.measure import Measure, l1_distance
    from selrec.solvers import semigroup_solve

    exp = ExperimentConfig.from_dict({
        **BASE, "n": 8, "i_star": 4, "rho": [0.3, 0.9, 0.5, 0.0, 0.7, 0.2, 1.1, 0.4],
        "initial": {"vector": np.random.default_rng(8).dirichlet(np.ones(256)).tolist()},
        "grid_steps": 128, "quad_tol": 1e-5,
    })
    t = exp.settings.t_max
    ode = integrate_ode(exp.cfg, exp.omega0, exp.settings, (t,))
    real = selrec.solvers._started_mass_pgf
    calls = []
    monkeypatch.setattr(selrec.solvers, "_started_mass_pgf",
                        lambda *args: calls.append(args) or real(*args))
    got = selrec.cli._check_marginals(exp, ode)
    assert len(calls) == 16
    cfg, worst = exp.cfg, 0.0
    others = [i for i in cfg.sites if i != cfg.i_star]
    for mask in range(2 ** len(others)):
        subset = [cfg.i_star] + [a for j, a in enumerate(others) if (mask >> j) & 1]
        model = cfg.marginal(subset)
        sub = semigroup_solve(model, Measure(model.sites, exp.omega0.project(subset).values), t)
        proj = ode.final().project(subset)
        worst = max(worst, l1_distance(sub, Measure(model.sites, proj.values)))
    assert len(calls) == 16 + 448
    assert got["max_l1"] == worst


@pytest.mark.parametrize("command", ["dual", "asymptotics"])
def test_closed_form_commands_run_no_ode(tmp_path, monkeypatch, command):
    # dual's z reference and the asymptotics distance curve both come from
    # semigroup_solve; neither command integrates or sets up an ODE
    import selrec.cli
    import selrec.solvers

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    cfgp = write_config(tmp_path)
    monkeypatch.setattr(selrec.solvers, "integrate_ode", counted(selrec.solvers.integrate_ode))
    monkeypatch.setattr(selrec.cli, "integrate_ode", counted(selrec.cli.integrate_ode))
    monkeypatch.setattr(selrec.cli, "SolverSettings", counted(selrec.cli.SolverSettings))
    assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 0
    assert calls == []


def test_dual_reference_is_the_closed_form(tmp_path):
    from selrec.config import ExperimentConfig
    from selrec.solvers import semigroup_solve

    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["dual", "--config", str(cfgp), "--out", str(out)]) == 0
    payload = json.loads((out / "dual_estimates.json").read_text())
    exp = ExperimentConfig.from_file(cfgp)
    expect = semigroup_solve(exp.cfg, exp.omega0, exp.settings.t_max).to_dict()
    assert payload["reference"] == expect


def test_asymptotics_csv_holds_numbers(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["asymptotics", "--config", str(cfgp), "--out", str(out)]) == 0
    lines = (out / "asymptotics_convergence.csv").read_text().splitlines()
    assert lines[0].startswith("# selrec")
    assert lines[1] == "t,l1_to_limit"
    rows = lines[2:]
    assert len(rows) == BASE["grid_steps"] + 1
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 2
        t, d = (float(x) for x in fields)
        assert t >= 0.0 and d >= 0.0


EXAMPLE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "example.json").read_text()
)


ONE_SITE = {"n": 1, "i_star": 1, "rho": [0.0], "initial": {"vector": [0.4, 0.6]}}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "argv, overrides, code, message",
    [
        (["ld"], {"t_max": 0.0}, 0, ""),
        (["solve", "--method", "ode"], {"t_max": 20.0, "grid_steps": 2}, 0, ""),
        (["asymptotics"], {"grid_steps": 2}, 0, ""),
        (["verify"], {"grid_steps": 2}, 2, "increase grid_steps"),
        (["ld"], {"grid_steps": 256}, 0, ""),
        (["solve", "--method", "recursion"], {"grid_steps": 256}, 0, ""),
        (["dual", "--replicates", "0"], {}, 1, "--replicates must be >= 1, got 0"),
        (["verify"], {"replicates": 0}, 1, "replicates must be >= 1, got 0"),
        (["moran", "--replicates", "1"], {}, 1, "--replicates must be >= 2, got 1"),
        (["moran"], {"moran_replicates": 1}, 1, "moran_replicates must be >= 2, got 1"),
        (["dual"], {"seed": -1}, 1, "seed must be >= 0, got -1"),
        (["verify", "--seed", "-2"], {}, 1, "--seed must be >= 0, got -2"),
        (["moran", "--seed", "-3"], {}, 1, "--seed must be >= 0, got -3"),
        *(
            (argv, overrides, 0, "")
            for overrides in (ONE_SITE, {"rho": [0.0, 0.0, 0.0]})
            for argv in (["ld"], ["verify"], ["solve", "--method", "all"])
        ),
        (["solve", "--method", "all"], {"n": 3.9}, 1, "n must be an integer, got 3.9"),
        (["solve", "--method", "ode"], {"grid_steps": 100.7}, 1,
         "grid_steps must be an integer, got 100.7"),
        (["verify"], {"replicates": 2.5}, 1, "replicates must be an integer, got 2.5"),
        (["dual"], {"seed": True}, 1, "seed must be an integer, got True"),
        (["ld"], {"i_star": 2.6}, 1, "i_star must be an integer, got 2.6"),
        (["moran"], {"moran_population_sizes": [100.5, 1000]}, 1,
         "moran_population_sizes must be an integer, got 100.5"),
        *(
            (argv, {"s": NAN}, 1, "selection strength s must be finite")
            for argv in (["solve", "--method", "all"], ["verify"], ["dual"])
        ),
        (["dual"], {"t_max": INF}, 1, "t_max must be finite"),
        (["verify"], {"z_threshold": NAN}, 1, "z_threshold must be a finite number"),
        (["dual"], {"z_threshold": NAN}, 1, "z_threshold must be a finite number"),
        (["ld"], {"initial": {"vector": [NAN, *EXAMPLE["initial"]["vector"][1:]]}}, 1,
         "initial vector mass nan"),
        (["asymptotics"], {"rho": [INF, 0.0, 0.5]}, 1, "crossover rates rho must be finite"),
        (["verify"], {"agreement_tol": NAN}, 1, "agreement_tol must be a finite number"),
        (["solve", "--method", "all"], {"output_times": [NAN]}, 1,
         "output_times must lie in [0, t_max]"),
        (["solve", "--seed", "-5"], {}, 1, "unrecognized arguments: --seed -5"),
        (["asymptotics", "--replicates", "0"], {}, 1, "unrecognized arguments: --replicates 0"),
        (["ld", "--seed", "3"], {}, 1, "unrecognized arguments: --seed 3"),
    ],
    ids=["ld-t_max-0", "solve-ode-t_max-20-grid-2", "asymptotics-grid-2", "verify-grid-2",
         "ld-grid-256", "solve-recursion-grid-256",
         "dual-replicates-flag-0", "verify-replicates-0", "moran-replicates-flag-1",
         "moran-replicates-1", "dual-seed-negative", "verify-seed-flag-negative",
         "moran-seed-flag-negative",
         "ld-n-1", "verify-n-1", "solve-all-n-1",
         "ld-rates-0", "verify-rates-0", "solve-all-rates-0",
         "solve-all-n-fraction", "solve-ode-grid-fraction", "verify-replicates-fraction",
         "dual-seed-boolean", "ld-i_star-fraction", "moran-population-fraction",
         "solve-all-s-nan", "verify-s-nan", "dual-s-nan", "dual-t_max-infinite",
         "verify-z-nan", "dual-z-nan", "ld-initial-nan", "asymptotics-rho-infinite",
         "verify-agreement-nan", "solve-all-output-time-nan",
         "solve-seed-flag", "asymptotics-replicates-flag", "ld-seed-flag"],
)
def test_edge_configs_exit_codes(tmp_path, capsys, monkeypatch, argv, overrides, code,
                                 message):
    # the example model at edge settings: ld fits no rate at t_max 0, the
    # ODE halves its step until it meets the closed form, asymptotics needs
    # no ODE, and the recursion refuses a 2-step grid, whose end point is
    # 0.014 in l1 from the closed form, but not a 256-step one (8.6e-7).
    # With one site the recursion has no level above the selection flow and
    # ld no residual; with every rate 0 each level repeats the one below.
    # A replicate count or seed out of range, from a flag or the config, an
    # integer field holding a fraction or a boolean, a real field holding
    # NaN or Infinity, and --seed or --replicates on a command without Monte
    # Carlo are refused before any solver runs.
    cfgp = tmp_path / "edge.json"
    cfgp.write_text(json.dumps({**EXAMPLE, **overrides}))
    out = tmp_path / "run"
    calls = record_solver_calls(monkeypatch)
    try:
        got = main([*argv, "--config", str(cfgp), "--out", str(out)])
    except SystemExit as exc:  # argparse refuses the arguments
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err
    if code == 1:
        assert calls == []


def test_ld_without_levels_writes_the_time_column_only(tmp_path):
    cfgp = tmp_path / "one.json"
    cfgp.write_text(json.dumps({**EXAMPLE, **ONE_SITE}))
    out = tmp_path / "run"
    assert main(["ld", "--config", str(cfgp), "--out", str(out)]) == 0
    lines = (out / "ld_norms.csv").read_text().splitlines()
    assert lines[1] == "t"
    assert len(lines) == 2 + EXAMPLE["grid_steps"] + 1
    assert json.loads((out / "ld_rates.json").read_text())["levels"] == []


def test_ld_at_time_zero_writes_null_rates(tmp_path):
    # every grid time is 0, so no decay rate can be fitted
    cfgp = tmp_path / "edge.json"
    cfgp.write_text(json.dumps({**EXAMPLE, "t_max": 0.0}))
    out = tmp_path / "run"
    assert main(["ld", "--config", str(cfgp), "--out", str(out)]) == 0
    levels = json.loads((out / "ld_rates.json").read_text())["levels"]
    assert len(levels) == EXAMPLE["n"] - 1
    assert all(row["fitted_rate"] is None for row in levels)


def test_dual_refuses_overflowing_line_counts(tmp_path, capsys, monkeypatch):
    # s*t = 32 would push the sampled line counts towards 2^63; verify's
    # Monte Carlo runs at min(1, t_max), so it needs s = 40 for s*t = 40
    calls = record_solver_calls(monkeypatch)
    for command, overrides in (("dual", {"s": 4.0, "t_max": 8.0}),
                               ("verify", {"s": 40.0, "t_max": 1.0})):
        cfgp = write_config(tmp_path, **overrides)
        out = tmp_path / command
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 1, command
        assert "must stay below exp(30)" in capsys.readouterr().err, command
        assert calls == [], command
        assert not out.exists()


def test_partition_flavor_reuses_the_counts_draws(tmp_path, monkeypatch):
    # the partition picture is the count picture under encode, so each
    # command draws the line counts once per seed; with replicates <= BLOCK
    # one Monte Carlo run is one call of the block sampler
    import selrec.duals

    real = selrec.duals.ypir_block_simulate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(selrec.duals, "ypir_block_simulate", counted)
    cfgp = write_config(tmp_path, replicates=selrec.duals.BLOCK)
    assert main(["dual", "--config", str(cfgp), "--out", str(tmp_path / "dual")]) == 0
    assert len(calls) == 1
    flavors = json.loads((tmp_path / "dual" / "dual_estimates.json").read_text())["flavors"]
    assert flavors["partition"] == flavors["counts"]
    calls.clear()
    assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "verify")]) == 0
    assert len(calls) == 2
    checks = json.loads((tmp_path / "verify" / "verify_report.json").read_text())["checks"]
    z = {c["name"]: c["max_abs_z"] for c in checks if "max_abs_z" in c}
    assert list(z) == [f"{kind}_mc_{f}" for kind in ("duality", "solution")
                       for f in ("counts", "partition", "runtimes")]
    assert z["solution_mc_partition"] == z["solution_mc_counts"]
    assert z["duality_mc_partition"] == pytest.approx(z["duality_mc_counts"], rel=1e-9)


def test_off_grid_output_times_refused_before_solving(tmp_path, capsys):
    cfgp = write_config(tmp_path, t_max=1.0, grid_steps=512, output_times=[0.3, 1.0])
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out), "--method", "all"]) == 1
    assert "0.3" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_missing_config_exits_one(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path), "--method", "ode"]) == 1


def test_unknown_field_exits_one(tmp_path):
    cfgp = write_config(tmp_path, extra_field=1)
    assert main(["solve", "--config", str(cfgp), "--out", str(tmp_path),
                 "--method", "ode"]) == 1


def test_invalid_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path),
                 "--method", "ode"]) == 1


def test_missing_argument_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_coarse_grid_exits_two(tmp_path):
    cfgp = write_config(tmp_path, t_max=5.0, grid_steps=8, quad_tol=1e-10)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgp), "--out", str(out),
                 "--method", "recursion"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["solve", "--method", "ode"], ["solve", "--method", "recursion"], ["ld"]],
    ids=["verify", "solve-ode", "solve-recursion", "ld"],
)
def test_planted_closed_form_defect_exits_two(tmp_path, capsys, monkeypatch, argv):
    # one site's rate 1 % high in the closed form only: the ODE converges
    # away from it and the recursion ends away from it, so each command
    # exits 2 naming the l1 distance, after two RK4 runs at most
    import time

    from test_solvers import off_rate_closed_form

    off_rate_closed_form(monkeypatch)
    cfgp = tmp_path / "example.json"
    cfgp.write_text(json.dumps(EXAMPLE))
    out = tmp_path / "run"
    tic = time.perf_counter()
    assert main([*argv, "--config", str(cfgp), "--out", str(out)]) == 2
    assert time.perf_counter() - tic < 10.0
    err = capsys.readouterr().err
    assert "in l1" in err and "from the closed form" in err, err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_refused_before_any_solver(tmp_path, capsys, monkeypatch, under):
    cfgp = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "run" if under else blocker
    calls = record_solver_calls(monkeypatch)
    assert main(["solve", "--config", str(cfgp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--out {out}: {blocker} is not a directory" in err
    assert "Traceback" not in err
    assert calls == []
    assert blocker.read_text() == "not a directory\n"


def test_failed_write_exits_one_naming_the_path(tmp_path, capsys):
    # a directory where an output file goes passes the --out check, and
    # opening it for writing fails after the solve
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    (out / "solve_meta.json").mkdir(parents=True)
    assert main(["solve", "--config", str(cfgp), "--out", str(out),
                 "--method", "semigroup"]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {out / 'solve_meta.json'}" in err
    assert "Traceback" not in err


def test_module_entrypoint(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "selrec.cli", "solve", "--config", str(cfgp),
         "--out", str(out), "--method", "semigroup"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (out / "solve_semigroup.csv").exists()
    version = subprocess.run(
        [sys.executable, "-m", "selrec.cli", "--version"],
        capture_output=True, text=True,
    )
    assert version.returncode == 0
    assert version.stdout.startswith("selrec")


REQUIRED_ONLY = {key: BASE[key] for key in ("n", "i_star", "s", "rho", "initial")}


def test_required_keys_alone_solve_and_verify(tmp_path):
    # every other field takes its default (t_max 1, grid 512, quad_tol 1e-7,
    # seed 0, 10,000 replicates, z_threshold 4), which the recursion's
    # check against the closed form and the Monte Carlo checks must accept
    cfgp = tmp_path / "required.json"
    cfgp.write_text(json.dumps(REQUIRED_ONLY))
    assert main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "solve"),
                 "--method", "all"]) == 0
    assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "verify")]) == 0


_BOUNDARY = """
import json, sys
import selrec, selrec.cli
from selrec.config import ExperimentConfig

cfg_path, out = sys.argv[1], sys.argv[2]
exp = ExperimentConfig.from_file(cfg_path)
seen = {}
for argv in (["solve", "--method", "all"], ["ld"]):
    assert selrec.cli.main([*argv, "--config", cfg_path, "--out", out]) == 0
seen["random_after_solve_ld"] = "numpy.random" in sys.modules
for argv in (["moran"], ["dual"], ["verify"]):
    assert selrec.cli.main([*argv, "--config", cfg_path, "--out", out]) == 0
selrec.semigroup_solve(exp.cfg, exp.omega0, exp.settings.t_max)
for m0 in (0, 2):
    selrec.ypir_pgf(exp.cfg, 2, m0, exp.settings.t_max, 0.5)
    selrec.ypir_semigroup(exp.cfg, 2, m0, exp.settings.t_max)
seen["scipy_before_asymptotics"] = sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")
assert selrec.cli.main(["asymptotics", "--config", cfg_path, "--out", out]) == 0
seen["scipy_special"] = "scipy.special" in sys.modules
seen["openssl"] = sorted(name for name in ("_hashlib", "hmac") if name in sys.modules)
import hashlib
canon = json.dumps(json.load(open(cfg_path)), sort_keys=True, separators=(",", ":")).encode()
stamps = {json.load(open(f"{out}/{name}"))["config_hash"]
          for name in ("solve_meta.json", "ld_rates.json", "dual_estimates.json")}
seen["stamps_are_sha256"] = stamps == {hashlib.sha256(canon).hexdigest()}
import secrets
import numpy as np
seen["secrets_token"] = len(secrets.token_hex(8))
seen["unseeded_draw"] = 0.0 <= float(np.random.default_rng().random()) < 1.0
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def boundary(tmp_path_factory):
    """What one fresh interpreter loads while it runs all six commands."""
    tmp_path = tmp_path_factory.mktemp("boundary")
    cfgp = write_config(tmp_path, replicates=200, moran_population_sizes=[20, 40],
                        moran_replicates=2)
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDARY, str(cfgp), str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_only_commands_never_load_scipy(boundary):
    assert boundary["scipy_before_asymptotics"] == []
    # the control: the stationary law's hyp2f1 does load scipy
    assert boundary["scipy_special"]


def test_no_command_loads_openssl(boundary):
    # the config hash is the interpreter's built-in SHA-256, and rng imports
    # numpy.random without secrets' hmac: hashlib would map OpenSSL's
    # libcrypto for either alone.  solve and ld load no numpy.random at all.
    # Every stamp is hashlib's digest, and afterwards the real secrets
    # imports and an unseeded generator draws OS entropy
    assert boundary["openssl"] == []
    assert not boundary["random_after_solve_ld"]
    assert boundary["stamps_are_sha256"]
    assert boundary["secrets_token"] == 16
    assert boundary["unseeded_draw"]


def test_verify_duality_holds_on_product_initial_measure(tmp_path):
    # selection acts on one site and recombination keeps product measures,
    # so the run-time duality values are exact and their z-scores measure
    # the forward reference alone.  The exit code is not asserted:
    # ld_decay_identity still fails on this input (ROADMAP item 7).
    cfgp = tmp_path / "product.json"
    cfgp.write_text(json.dumps({
        "n": 2, "i_star": 1, "s": 0.8, "rho": [0.0, 0.6],
        "initial": {"product": [[0.5, 0.5], [0.3, 0.7]]},
    }))
    main(["verify", "--config", str(cfgp), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["duality_mc_runtimes"]["passed"]


_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "selrec.cli", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_dual_memory_bounded_at_twelve_sites(tmp_path):
    # rows are reduced a block at a time and nothing is cached per started
    # set: the parent of this design peaked at 1527 MB on such a run
    from selrec.duals import BLOCK

    rng = np.random.default_rng(12)
    n, i_star = 12, 7
    rho = rng.uniform(0.1, 1.0, n)
    rho[i_star - 1] = 0.0
    initial = rng.random(2 ** n)
    cfgp = write_config(
        tmp_path, n=n, i_star=i_star, rho=rho.tolist(),
        initial={"vector": (initial / initial.sum()).tolist()}, t_max=1.0,
        grid_steps=64, quad_tol=1e-5, replicates=2 * BLOCK + 1, dual_flavor="counts",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "dual", "--config", str(cfgp),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
    )
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    assert code == 0
    assert peak_kb < 600 * 1024


def test_dual_runs_at_sixteen_sites_in_one_gigabyte(tmp_path):
    # a block of rows would be 4096 x 2^16 x 8 B = 2.1 GB; chunks of 1 MB
    # fit under a 1 GB address-space cap
    rng = np.random.default_rng(16)
    n, i_star = 16, 8
    rho = rng.uniform(0.1, 1.0, n)
    rho[i_star - 1] = 0.0
    initial = rng.random(2 ** n)
    cfgp = write_config(
        tmp_path, n=n, i_star=i_star, rho=rho.tolist(),
        initial={"vector": (initial / initial.sum()).tolist()}, t_max=1.0,
        grid_steps=64, quad_tol=1e-5, replicates=4096, dual_flavor="counts",
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-m", "selrec.cli", "dual", "--config", str(cfgp),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((tmp_path / "run" / "dual_estimates.json").read_text())
    assert report["replicates"] == 4096
    assert report["max_abs_z"] <= report["z_threshold"]
    estimate = np.array(report["flavors"]["counts"]["estimate"]["values"])
    assert estimate.shape == (2 ** n,)
    assert np.all(estimate >= 0.0) and abs(estimate.sum() - 1.0) < 1e-12


def _twelve_site_peak_kb(tmp_path, argv, grid_steps):
    """Exit code and peak RSS (kB) of one CLI child on a fixed 12-site
    model with the given grid."""
    rng = np.random.default_rng(1212)
    n, i_star = 12, 7
    rho = rng.uniform(0.05, 0.4, n)
    rho[i_star - 1] = 0.0
    initial = rng.random(2 ** n) + 1e-3
    cfgp = write_config(
        tmp_path, n=n, i_star=i_star, rho=rho.tolist(),
        initial={"vector": (initial / initial.sum()).tolist()}, t_max=1.0,
        grid_steps=grid_steps, quad_tol=1e-5, agreement_tol=1e-4,
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv,
         "--config", str(cfgp), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
    )
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    return code, peak_kb


def test_solve_memory_bounded_at_twelve_sites(tmp_path):
    # the recursion holds the asked rows and a few row blocks, the ODE one
    # trajectory: with the whole level list kept, such a run peaked at
    # about 94 MB
    code, peak_kb = _twelve_site_peak_kb(tmp_path, ["solve", "--method", "all"], 128)
    assert code == 0
    assert peak_kb < 75 * 1024


def test_ld_memory_bounded_at_twelve_sites(tmp_path):
    # the level residuals are taken one row block at a time, so no level
    # of 513 x 4096 floats (17 MB) is ever held whole: with the whole
    # level list kept, such a run peaked at about 320 MB
    code, peak_kb = _twelve_site_peak_kb(tmp_path, ["ld"], 512)
    assert code == 0
    assert peak_kb < 150 * 1024
