import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings as hyp_settings
from hypothesis import strategies as st

from eolstop import ConfigError, ExperimentConfig
from eolstop.cli import main

TINY = {
    "schema_version": 1,
    "intensity": {"kind": "convex", "horizon": 8, "total_demand": 24.0},
    "costs": {"c_bar": 100.0, "c1": 1.0, "c2_bar": 200.0, "c3_bar": 200.0,
              "gamma": 0.01, "c4": 25.0, "delta": 0.005},
    "setup_costs": [0.0, 200.0],
    "x0": [0, 4],
    "models": ["D/inf/F", "D/1/Z"],
    "x_max": 60,
    "paths": 400,
    "seed": 11,
}


def write_cfg(tmp_path, **overrides):
    raw = {**TINY, **overrides}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(raw))
    return f


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_json(write_cfg(tmp_path))
        assert cfg.models == ("D/inf/F", "D/1/Z")
        assert ExperimentConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_json(write_cfg(tmp_path, typo_field=1))

    def test_missing_schema_version(self, tmp_path):
        raw = {k: v for k, v in TINY.items() if k != "schema_version"}
        f = tmp_path / "c.json"
        f.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_json(f)

    def test_empty_model_list(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            ExperimentConfig.from_json(write_cfg(tmp_path, models=[]))

    def test_bad_model_label(self, tmp_path):
        with pytest.raises(Exception):
            ExperimentConfig.from_json(write_cfg(tmp_path, models=["D/inf/Z"]))

    def test_costs_field_completeness(self, tmp_path):
        costs = dict(TINY["costs"])
        del costs["gamma"]
        with pytest.raises(ConfigError, match="gamma"):
            ExperimentConfig.from_json(write_cfg(tmp_path, costs=costs))

    def test_x0_within_cap(self, tmp_path):
        with pytest.raises(ConfigError, match="x_max"):
            ExperimentConfig.from_json(write_cfg(tmp_path, x0=[0, 100], x_max=50))

    def test_custom_rates_file(self, tmp_path):
        rates = tmp_path / "rates.txt"
        rates.write_text("2.0\n1.0\n0.5\n")
        f = write_cfg(tmp_path, intensity={"kind": "custom", "rates_file": str(rates)},
                      x0=[0], x_max=30)
        cfg = ExperimentConfig.from_json(f)
        model = cfg.build_model()
        assert model.horizon == 3
        assert np.allclose(model.rates, [2.0, 1.0, 0.5])


def _regions_csv_oracle(path, policy):
    """The former row-by-row ``csv.writer`` loop, kept as the byte oracle."""
    names = {0: "continue", 1: "stop", 2: "order"}
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "action", "order_up_to"])
        for t in range(policy.horizon + 1):
            act = policy.action[t, :, policy.z0]
            tgt = policy.target[t, :, policy.z0]
            for x in range(policy.x_max + 1):
                w.writerow([t, x, names[int(act[x])], int(tgt[x]) if act[x] == 2 else ""])


# seed 253's D/1/Z policy orders up to 5 and up to 9 in one epoch
@pytest.mark.parametrize("seed,label", [(3, "D/inf/F"), (7, "D/2/F"), (253, "D/1/Z")])
def test_regions_writer_matches_csv_writer(tmp_path, seed, label):
    from conftest import small_instance

    from eolstop import LostSalesConvention, ModelSpec, build_kernel_table, solve
    from eolstop.cli import _write_regions_csv

    params, model, x0, x_max = small_instance(seed)
    kt = build_kernel_table(params, model, LostSalesConvention.ARRIVAL, x_max=x_max)
    policy = solve(ModelSpec.parse(label), kt, x0).policy
    assert (policy.action[:, :, policy.z0] == 2).any()  # some rows carry a target
    _regions_csv_oracle(tmp_path / "want.csv", policy)
    _write_regions_csv(tmp_path / "got.csv", policy)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# (T, x_max, Z, z0) of a random policy, and the actions it draws from
REGION_POLICIES = {
    "budget-z0": (6, 40, 3, 2, [0, 1, 2]),
    "tiny-x_max": (5, 1, 1, 0, [0, 1, 2]),
    "no-order": (6, 30, 1, 0, [0, 1]),
    "all-order": (6, 30, 2, 1, [1, 2]),  # every row that does not stop orders
}


@pytest.mark.parametrize("case", sorted(REGION_POLICIES))
def test_regions_writer_on_random_policies(tmp_path, case):
    from eolstop import ModelSpec
    from eolstop.cli import _write_regions_csv
    from eolstop.solver import PolicyTable

    T, x_max, Z, z0, actions = REGION_POLICIES[case]
    rng = np.random.default_rng(len(case))
    action = rng.choice(actions, size=(T + 1, x_max + 1, Z)).astype(np.int8)
    target = np.where(action == 2, rng.integers(1, 20_000, size=action.shape), -1)
    policy = PolicyTable(spec=ModelSpec.parse("D/inf/F" if Z == 1 else f"D/{Z - 1}/F"),
                         x_max=x_max, horizon=T, action=action,
                         target=target.astype(np.int32), z0=z0)
    _regions_csv_oracle(tmp_path / "want.csv", policy)
    _write_regions_csv(tmp_path / "got.csv", policy)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("x_max", [9, 10, 99, 100, 1000])
def test_regions_writer_at_digit_boundaries(tmp_path, x_max):
    # x and t change their width at 10, 100 and 1000; each ORDER run of
    # length 3 or more changes its target within, so a block cut at action
    # changes alone writes one target where the oracle writes two
    from eolstop import ModelSpec
    from eolstop.cli import _write_regions_csv
    from eolstop.solver import PolicyTable

    T, Z, rng = 12, 2, np.random.default_rng(x_max)
    action = np.repeat(rng.integers(0, 3, size=(T + 1, x_max // 3 + 1, Z)), 3, axis=1)
    action = action[:, :x_max + 1].astype(np.int8)
    target = np.where(action == 2, x_max + np.arange(x_max + 1)[:, None] // 2, -1)
    policy = PolicyTable(spec=ModelSpec.parse("D/1/F"), x_max=x_max, horizon=T, action=action,
                         target=target.astype(np.int32), z0=1)
    _regions_csv_oracle(tmp_path / "want.csv", policy)
    _write_regions_csv(tmp_path / "got.csv", policy)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCli:
    def test_compare_writes_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(cfg), "--out", str(out),
                   "D/1/Z", "D/inf/F"])
        assert rc == 0
        grid = out / "compare_D1Z_vs_DinfF.csv"
        assert grid.exists()
        rows = list(csv.reader(grid.read_text().splitlines()))
        assert rows[0] == ["K\\x0", "0", "4"]
        assert len(rows) == 3
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.all(vals >= -1e-9)  # restricting flexibility can't be cheaper
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "compare" and manifest["config_digest"]

    def test_compare_same_model_is_zero(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o2"
        assert main(["compare", "--config", str(cfg), "--out", str(out),
                     "D/inf/F", "D/inf/F"]) == 0
        rows = list(csv.reader((out / "compare_DinfF_vs_DinfF.csv").read_text().splitlines()))
        vals = [float(v) for r in rows[1:] for v in r[1:]]
        assert all(v == 0.0 for v in vals)

    def test_solve_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o3"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "values.csv").exists()
        assert (out / "regions_DinfF_K0.csv").exists()
        assert (out / "taudist_D1Z_K200_x4.csv").exists()
        with (out / "values.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # models x K x x0

    def test_solve_static_model_sweeps_once_per_K(self, tmp_path, monkeypatch):
        # values.csv holds each x0 at its own best switch epoch, and the
        # regions follow the epoch chosen for the first x0
        from eolstop import ModelSpec, kernels_with_K, solve, static_switch_values
        from eolstop import solver

        sweeps = []
        real = solver._best_epoch
        monkeypatch.setattr(solver, "_best_epoch",
                            lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
        Ks, x0s = [200.0, 2000.0], [9, 0, 20]  # at K=2000 the best epochs are 1, 0, 3
        cfg = write_cfg(tmp_path, models=["S/1/Z"], setup_costs=Ks, x0=x0s)
        out = tmp_path / "o5"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(sweeps) == 1  # one per S label; solve reads the first x0 only
        with (out / "values.csv").open() as fh:
            got = {(float(r["K"]), int(r["x0"])): float(r["total_cost"])
                   for r in csv.DictReader(fh)}
        spec, base = ModelSpec.parse("S/1/Z"), ExperimentConfig.from_json(cfg).build_kernels()
        names = {0: "continue", 1: "stop", 2: "order"}
        for K in Ks:
            kt = kernels_with_K(base, K)
            best, epochs = static_switch_values(spec, kt)
            assert all(got[(K, x0)] == float(best[x0]) for x0 in x0s)
            pol = solve(spec, kt, x0s[0]).policy
            assert pol.switch_epoch == epochs[x0s[0]]
            with (out / f"regions_S1Z_K{K:g}.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert [r["action"] for r in rows] == [
                names[int(a)] for a in pol.action[:, :, pol.z0].ravel()]
            assert all(r["action"] == "stop" for r in rows if int(r["t"]) >= pol.switch_epoch)

    def test_taudist_masses(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o4"
        assert main(["taudist", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "taudist_DinfF_K0_x0.csv").read_text().splitlines()))[1:]
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bounds_and_simulate(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o5"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "bounds.csv").exists()
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--paths", "300"]) == 0
        rows = list(csv.reader((out / "simulate.csv").read_text().splitlines()))
        assert len(rows) == 1 + 2 * 2 * 2
        # the manifest keeps one entry per cell, with SE and z unrounded
        cells = json.loads((out / "manifest.json").read_text())["simulate"]
        assert [[c["label"], str(c["K"]), str(c["x0"]), f"{c['mc_se']:.4f}", f"{c['z']:.3f}"]
                for c in cells] == [[r[0], r[1], r[2], r[5], r[6]] for r in rows[1:]]
        assert all((c["paths"], c["seed"]) == (300, TINY["seed"]) for c in cells)

    def test_bounds_on_a_step_that_does_not_divide_T(self, tmp_path):
        # T=8 and tau_step 0.07: bounds, argmin and its cost all come from
        # the one grid of 114 steps, and the cost is the point function's
        from eolstop import switch_cost

        cfg = write_cfg(tmp_path, x0=[0, 4, 10, 20], tau_step=0.07)
        out = tmp_path / "o8"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "bounds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        ec = ExperimentConfig.from_json(cfg)
        params, model = ec.build_params(ec.setup_costs[0]), ec.build_model()
        grid = np.linspace(0.0, 8.0, 115)
        on_grid = {f"{g:.4f}": g for g in grid}
        assert [int(r["x"]) for r in rows] == [0, 4, 10, 20]
        for r in rows:
            lb, tau, ub = (on_grid[r[k]] for k in ("tau_lb", "tau_argmin", "tau_ub"))
            assert lb <= tau <= ub
            assert r["cost_at_argmin"] == f"{switch_cost(params, model, int(r['x']), tau):.4f}"
        assert any(0.0 < on_grid[r["tau_ub"]] < 8.0 for r in rows)  # some bound is informative

    def test_bounds_on_a_step_above_the_horizon(self, tmp_path):
        # T=8 and tau_step 20: the grid is {0, 8}, and bounds and argmin lie on it
        cfg = write_cfg(tmp_path, x0=[0, 4, 10, 20], tau_step=20.0)
        out = tmp_path / "o9"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "bounds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for r in rows:
            lb, tau, ub = (float(r[k]) for k in ("tau_lb", "tau_argmin", "tau_ub"))
            assert {lb, tau, ub} <= {0.0, 8.0} and lb <= tau <= ub

    def test_sweep_single_setting(self, tmp_path):
        cfg = write_cfg(tmp_path, x0=[0], setup_costs=[0.0], x_max=1200)
        out = tmp_path / "o6"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--settings", "1", "D/1/Z", "D/inf/F"])
        assert rc == 0
        rows = list(csv.reader((out / "sweep_D1Z_vs_DinfF.csv").read_text().splitlines()))
        header, row = rows[0], rows[1]
        rec = dict(zip(header, row))
        assert rec["max_setting"] == rec["min_setting"] == "1"
        assert float(rec["max_pct"]) == pytest.approx(float(rec["min_pct"]))
        assert float(rec["max_pct"]) == pytest.approx(12.12, abs=0.05)

    def test_settings_list(self, capsys):
        assert main(["settings", "list"]) == 0
        out = capsys.readouterr().out
        assert "125" in out and "constant" in out

    @pytest.mark.parametrize("overrides", [
        {"models": []},
        {"models": 5},
        {"costs": [1.0]},
        {"costs": {**TINY["costs"], "c1": float("nan")}},
        {"costs": {**TINY["costs"], "c4": float("inf")}},
        {"setup_costs": [float("nan")]},
        {"setup_costs": [0.0, float("nan")]},
        {"x0": [1.7]},
        {"x0": []},
        {"x0": ["a"]},
        {"x_max": "many"},
        {"models": ["D/inf/Z"]},
        {"convention": "foo"},
        {"intensity": {**TINY["intensity"], "horizon": 10.5}},
        {"x_max": 10**9},
        {"models": ["D/100000000/F"]},
        {"seed": -1},
        {"seed": 1.7},
        {"paths": 2.5},
        {"x_max": 40.5},
        {"paths": 10**13},
        {"tau_step": 1e-12},
        {"intensity": {"kind": "custom", "rates": [3, 3, 2, 1], "horizon": 100,
                       "total_demand": 5000}},
        {"setup_costs": [1000, 1000]},
        {"x0": [0, 0]},
        {"models": ["D/1/Z", "d/1/z"]},
    ], ids=["models-empty", "models-number", "costs-list", "c1-nan", "c4-inf", "K-nan",
            "second-K-nan", "x0-fractional", "x0-empty", "x0-string", "x_max-string",
            "model-label", "convention", "horizon-10.5", "x_max-huge", "budget-huge",
            "seed-negative", "seed-fractional", "paths-fractional", "x_max-fractional",
            "paths-huge", "tau_step-tiny", "custom-with-named-keys", "K-repeated",
            "x0-repeated", "model-repeated"])
    def test_validation_error_exit_code(self, tmp_path, monkeypatch, overrides):
        # each is a config error: exit 2 before anything is solved or written,
        # so no kernel table (the first large allocation) is ever built
        import eolstop.config

        def no_build(*a, **kw):
            raise AssertionError("a kernel table was built for an invalid config")

        monkeypatch.setattr(eolstop.config, "build_kernel_table", no_build)
        out = tmp_path / "x"
        assert main(["solve", "--config", str(write_cfg(tmp_path, **overrides)),
                     "--out", str(out)]) == 2
        assert not (out / "values.csv").exists()

    def test_custom_intensity_from_another_directory(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "rates.txt").write_text("3.0\n2.0\n2.0\n1.0\n")
        cfg = write_cfg(cfg_dir, intensity={"kind": "custom", "rates_file": "rates.txt"},
                        x0=[0, 2], x_max=40)
        runs = {}
        for cwd in (cfg_dir, tmp_path):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"out_{cwd.name}"
            # --xmax sends the config through the CLI's override round trip too
            assert main(["solve", "--config", str(cfg.relative_to(cwd)),
                         "--out", str(out), "--xmax", "45"]) == 0
            runs[cwd] = (out / "values.csv").read_bytes()
        assert runs[cfg_dir] == runs[tmp_path]

    def test_stale_backend_variable_is_ignored(self, tmp_path, monkeypatch):
        # numpy is the only numeric path, so a leftover selector variable changes nothing
        import eolstop

        monkeypatch.setenv("EOLSTOP_BACKEND", "numba")
        assert eolstop.active_backend() == "numpy"
        assert main(["solve", "--config", str(write_cfg(tmp_path)),
                     "--out", str(tmp_path / "o")]) == 0

    def test_numerical_error_exit_code(self, tmp_path):
        # cap far below what the optimal order-up-to needs; no stopping escape
        cfg = write_cfg(tmp_path, x_max=3, x0=[0], models=["T/inf/F"],
                        intensity={"kind": "constant", "horizon": 6, "total_demand": 30.0},
                        costs={**TINY["costs"], "c2_bar": 5000.0})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 3

    def test_report_emission_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["compare", "--config", str(cfg), "--out", str(out),
                         "D/1/Z", "D/inf/F"]) == 0
            outs.append((out / "compare_D1Z_vs_DinfF.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_convention_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o7"
        rc = main(["compare", "--config", str(cfg), "--out", str(out),
                   "--convention", "paper", "D/1/Z", "D/inf/F"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["convention"] == "paper"


# Reports of the TINY config plus a static, finite-budget model, pinned by
# sha256 so that a change to the CLI's plumbing cannot move a byte of them.
PINNED_CFG = {**TINY, "models": [*TINY["models"], "S/2/F"]}
PINNED_RUNS = {
    "solve": [],
    "regions": [],
    "taudist": [],
    "bounds": [],
    "compare": ["S/2/F", "D/inf/F"],
    "sweep": ["--settings", "1", "--xmax", "500", "D/1/Z", "D/inf/F"],
}
# command -> (sha256 of "name sha256\n" over its sorted CSVs, sha256 of stdout)
PINNED_SHA256 = {
    "bounds": ("fa6383649fc555db44a86ee227164cb7bf1f0aa20056d22c4484b790b973c6b5",
              "42069fe184594eb6b51f64e5cb00e8eec6ffece331b6a07d93c292f1e05f98e3"),
    "compare": ("134ccec65e82f41533b07d2d10bf636d7c4071d4adb235e3ad100d68080541ba",
               "a2b00daaf232088de33bbecd17202872a0b981d6e305aad941cdd3c8e23bab79"),
    "regions": ("98922f9aa5a9622b6806d1043e5bdba97b72b30d4e57a7d40cc2751233741389",
               "1ad3667e80bea725ff078740af9d4e61ed49f6a01d0b68600e0d873abcdbddc6"),
    "solve": ("7f28244f454816af926e64b8ec984b1d768de81d7eb358d7e5de5ebe87929f7b",
             "538ad5a1c0d8e88e08cae6d0a09a6694152d1cc5446d08a0288fd730b36b6f09"),
    "sweep": ("62a8019a052c417f817d57c274c9c960e2f4e9c220e353073c7afb9c76ae7ef4",
             "4b08283042434d603513d28496ce3edae4f51c29967b18a21a7098e3b46fa090"),
    "taudist": ("605f05d0598817029ad5643fb1fba71429a99b8ea65633c144538a8454265f08",
               "30beac7ba58ca7f3e22681c724c6e700d3d5d601a08a61a54fdff7e8a242e86d"),
}


def _report_digests(out: Path, stdout: str):
    import hashlib

    def sha(b):
        return hashlib.sha256(b).hexdigest()

    listing = "".join(f"{p.name} {sha(p.read_bytes())}\n" for p in sorted(out.glob("*.csv")))
    return sha(listing.encode()), sha(stdout.replace(str(out), "OUT").encode()), listing


@pytest.mark.parametrize("command", sorted(PINNED_RUNS))
def test_reports_are_pinned(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, **PINNED_CFG)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), *PINNED_RUNS[command]]) == 0
    csvs, stdout, listing = _report_digests(out, capsys.readouterr().out)
    assert (csvs, stdout) == PINNED_SHA256[command], listing


def test_simulate_matches_direct_calls(tmp_path):
    # against the library calls with the same seed, not pinned bytes, so the
    # check holds whatever RNG stream the installed numpy draws
    from eolstop import ModelSpec, evaluate_policy, kernels_with_K, solve

    cfg_path = write_cfg(tmp_path, **PINNED_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = ExperimentConfig.from_json(cfg_path)
    base = cfg.build_kernels()
    want = [["model", "K", "x0", "dp_value", "mc_mean", "mc_se", "z"]]
    for label in cfg.models:
        for K in cfg.setup_costs:
            kt = kernels_with_K(base, K)
            for x0 in cfg.x0:
                res = solve(ModelSpec.parse(label), kt, x0)
                est = evaluate_policy(res.policy, kt.params, kt.model, x0,
                                      paths=cfg.paths, seed=cfg.seed)
                z = (est.mean - res.total_cost) / est.std_error if est.std_error else 0.0
                want.append([label, str(K), str(x0), f"{res.total_cost:.4f}", f"{est.mean:.4f}",
                             f"{est.std_error:.4f}", f"{z:.3f}"])
    with (out / "simulate.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == want


def _count_solves(monkeypatch):
    """Lists that gain a model label per grids pass and per switch-epoch sweep."""
    from eolstop import solver

    passes, sweeps = [], []
    real_pass, real_sweep = solver._backward_pass, solver._best_epoch

    def counted_pass(spec, *a, **kw):
        if kw.get("grids"):
            passes.append(spec.label)
        return real_pass(spec, *a, **kw)

    monkeypatch.setattr(solver, "_backward_pass", counted_pass)
    monkeypatch.setattr(solver, "_best_epoch",
                        lambda spec, *a, **kw: sweeps.append(spec.label) or real_sweep(spec, *a, **kw))
    return passes, sweeps


def test_simulate_solves_once_per_label_and_static_start(tmp_path, monkeypatch):
    # every label takes one grids pass for all K and x0; an S policy depends
    # on x0, yet its switch-epoch sweep runs once, for every K and x0
    from eolstop import ModelSpec, kernels_with_K, solve

    passes, sweeps = _count_solves(monkeypatch)
    labels, Ks, x0s = ["D/inf/F", "D/1/Z", "S/1/Z"], [200.0, 2000.0], [9, 0, 20]
    cfg = write_cfg(tmp_path, models=labels, setup_costs=Ks, x0=x0s, paths=50)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert passes == labels
    assert sweeps == ["S/1/Z"]
    with (tmp_path / "out" / "simulate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model"], float(r["K"]), int(r["x0"])) for r in rows] == [
        (label, K, x0) for label in labels for K in Ks for x0 in x0s]
    base = ExperimentConfig.from_json(cfg).build_kernels()
    for r in rows:  # at K = 2000 the S model commits to epochs 1, 0 and 3
        res = solve(ModelSpec.parse(r["model"]), kernels_with_K(base, float(r["K"])), int(r["x0"]))
        assert r["dp_value"] == f"{res.total_cost:.4f}"


@pytest.mark.parametrize("command, passes_want, sweeps_want", [
    ("solve", ["D/inf/F", "D/1/Z", "S/1/Z"], ["S/1/Z"]),
    ("regions", ["D/inf/F", "D/1/Z", "S/1/Z"], ["S/1/Z"]),
    ("taudist", ["D/inf/F", "D/1/Z"], []),
    ("compare", [], ["S/1/Z"]),
])
def test_each_command_solves_once_per_label(tmp_path, monkeypatch, command, passes_want,
                                            sweeps_want):
    passes, sweeps = _count_solves(monkeypatch)
    cfg = write_cfg(tmp_path, models=["D/inf/F", "D/1/Z", "S/1/Z"], setup_costs=[200.0, 2000.0],
                    x0=[9, 0, 20])
    pair = ["S/1/Z", "D/1/Z"] if command == "compare" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *pair]) == 0
    assert (passes, sweeps) == (passes_want, sweeps_want)


@pytest.mark.parametrize("command", ["solve", "taudist"])
def test_laws_build_state_tables_once_per_policy(tmp_path, monkeypatch, command):
    # one set of tables carries every x0's stopping-time law of a (label, K)
    from eolstop import sim

    built, real = [], sim.state_tables
    monkeypatch.setattr(sim, "state_tables",
                        lambda policy, *a: built.append(policy.spec.label) or real(policy, *a))
    cfg = write_cfg(tmp_path, models=["D/inf/F", "S/1/Z", "D/2/F"], setup_costs=[0.0, 200.0],
                    x0=[9, 0, 20, 60])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert built == ["D/inf/F"] * 2 + ["D/2/F"] * 2
    assert len(list((tmp_path / "out").glob("taudist_*.csv"))) == 2 * 2 * 4


def test_one_K_at_the_cap_exits_3(tmp_path):
    # the first K never orders and fits; the second orders up to the cap,
    # and the one pass over both K reports it as a numerical failure
    from eolstop import ModelSpec, kernels_with_K, solve

    cfg = write_cfg(tmp_path, x_max=3, x0=[0], models=["T/inf/F"], setup_costs=[1e12, 0.0],
                    intensity={"kind": "constant", "horizon": 6, "total_demand": 30.0},
                    costs={**TINY["costs"], "c2_bar": 5000.0})
    base = ExperimentConfig.from_json(cfg).build_kernels()
    solve(ModelSpec.parse("T/inf/F"), base, 0)
    for command in ("solve", "simulate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 3


# finite costs whose sums overflow float64: every total cost, the switch-cost
# curve and the Monte Carlo mean come out inf or NaN
OVERFLOW = dict(intensity={"kind": "convex", "horizon": 6, "total_demand": 30.0},
                costs={"c_bar": 1e306, "c1": 1e306, "c2_bar": 1e307, "c3_bar": 1e307,
                       "gamma": 0.01, "c4": 1e305, "delta": 0.005},
                setup_costs=[0.0, 1e307], x0=[0, 3], x_max=60,
                models=["D/inf/F", "S/1/Z", "T/1/Z"])


@pytest.mark.parametrize("argv", [["solve"], ["compare", "D/inf/F", "S/1/Z"], ["bounds"],
                                  ["simulate"]], ids=lambda argv: argv[0])
def test_overflowing_costs_exit_3_before_any_report(tmp_path, capsys, argv):
    # no overflow warning escapes the command (the suite turns warnings into
    # errors): NonFinite is the one signal
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, **OVERFLOW)
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "inf or NaN" in captured.err
    assert not out.exists()


def test_overflow_under_warnings_as_errors_exits_3_without_traceback(tmp_path):
    cfg = write_cfg(tmp_path, **OVERFLOW)
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "eolstop.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr and "numerical failure" in run.stderr


def _config_commands():
    import argparse

    from eolstop.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items()
                  if any("--config" in a.option_strings for a in p._actions))


@pytest.mark.parametrize("command", _config_commands())
def test_every_config_command_writes_manifest(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_cfg(tmp_path)), "--out", str(out),
                 *PINNED_RUNS.get(command, [])]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    assert manifest["command"] == command
    assert manifest["config_digest"] == cfg.digest()
    assert manifest["timings_s"]["total"] >= 0
    if command in ("solve", "simulate"):  # A, unrounded
        assert manifest["A"] == cfg.build_kernels().A


@pytest.fixture
def no_kernel_build(monkeypatch):
    """Replace every eolstop binding of the kernel builders with one that fails."""
    import sys

    import eolstop.kernels

    def no_build(*a, **kw):
        raise AssertionError("a kernel table was built for invalid input")

    for attr in ("build_kernel_table", "build_kernel_tables"):
        real = getattr(eolstop.kernels, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "eolstop" and getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, no_build)


@pytest.mark.parametrize("argv", [
    ["solve", "--xmax", "0"],
    ["simulate", "--paths", "0"],
    ["simulate", "--seed=-3"],
    ["compare", "D/inf/Z", "D/inf/F"],
    ["compare", "D/100000000/F", "D/inf/F"],
    ["sweep", "--settings", "1", "D/inf/F", "D/inf/Z"],
], ids=["xmax-0", "paths-0", "seed-negative", "compare-label", "compare-budget-huge",
        "sweep-label"])
def test_bad_command_line_value_exits_2(tmp_path, no_kernel_build, argv):
    out = tmp_path / "x"
    assert main([argv[0], "--config", str(write_cfg(tmp_path)), "--out", str(out),
                 *argv[1:]]) == 2
    assert not list(out.glob("*.csv"))


def test_compare_over_a_zero_cost_model_exits_2(tmp_path):
    # with every cost coefficient 0 but c_bar, D/inf/F costs exactly 0
    costs = {**TINY["costs"], "c1": 0.0, "c2_bar": 0.0, "c3_bar": 0.0, "c4": 0.0}
    out = tmp_path / "x"
    assert main(["compare", "--config", str(write_cfg(tmp_path, costs=costs)), "--out", str(out),
                 "D/1/Z", "D/inf/F"]) == 2
    assert not list(out.glob("*.csv"))


def test_sweep_grid_cap_uses_the_settings_horizon(tmp_path, no_kernel_build):
    # 9 x 500001 x 2 cells pass at the config's T=8; setting 125 has T=100
    cfg = write_cfg(tmp_path, x_max=500_000)
    assert ExperimentConfig.from_json(cfg).x_max == 500_000
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--settings", "125",
                 "D/1/Z", "D/inf/F"]) == 2
    assert not list(out.glob("*.csv"))


def test_draw_and_tau_node_caps_sit_at_their_limits(tmp_path, no_kernel_build):
    # validation only: nothing is drawn or gridded.  The README's 100k paths
    # at T=100 pass, and one path or node more than each cap exits 2.
    from eolstop.config import MAX_MC_DRAWS, MAX_TAU_NODES

    long_run = {"intensity": {"kind": "convex", "horizon": 100, "total_demand": 500.0}}
    ExperimentConfig.from_dict({**TINY, **long_run, "paths": 100_000})
    T = TINY["intensity"]["horizon"]
    ExperimentConfig.from_dict({**TINY, "paths": MAX_MC_DRAWS // T,
                                "tau_step": T / MAX_TAU_NODES})
    for over in ({"paths": MAX_MC_DRAWS // T + 1}, {"tau_step": T / (MAX_TAU_NODES + 1)}):
        with pytest.raises(ConfigError, match="exceeds the limit"):
            ExperimentConfig.from_dict({**TINY, **over})
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(write_cfg(tmp_path)), "--out", str(out),
                 "--paths", str(MAX_MC_DRAWS // T + 1)]) == 2
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("ids", ["0", "129", "abc", "5-2", ",", "1-129", "2-x"])
def test_bad_setting_ids_exit_2(tmp_path, capsys, ids):
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(out),
                 "--settings", ids, "D/1/Z", "D/inf/F"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_sweep_cap_failure_names_the_model_and_settings(tmp_path, capsys):
    # at x_max 300, D/1/Z orders past the cap at t = 0 on the base-case settings
    rc = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "o"),
               "--settings", "1-16", "--xmax", "300", "D/1/Z", "D/inf/F"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: D/1/Z on settings 1-16: order-up-to reached "
                          "x_max=300 at epoch 0")


def test_sweep_cap_failure_names_only_the_settings_that_hit_it(tmp_path, capsys):
    # at x_max 480, D/1/Z orders up to 470 on setting 1 (which fits alone) and
    # up to 490 on setting 8; the pass over both names setting 8 alone
    cfg = write_cfg(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--xmax", "480",
            "D/1/Z", "D/inf/F"]
    assert main([*argv, "--settings", "1"]) == 0
    capsys.readouterr()
    assert main([*argv, "--settings", "1,8"]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: D/1/Z on settings 8: order-up-to reached x_max=480 at epoch 0")


@pytest.mark.parametrize("ids, alone, xmax, labels", [
    ("9-16", range(9, 17), "400", ("D/inf/F", "T/inf/F")),
    ("1,8", (1, 8), "480", ("S/1/Z", "D/inf/F")),
], ids=["batched-pass", "static-spec"])
def test_sweep_cap_failure_names_every_setting_that_hits_it(tmp_path, capsys, ids, alone, xmax,
                                                            labels):
    # at the paper's three setup costs each setting exits 3 alone; the
    # batched D pass (settings 9-15 hit at epoch 1, 16 first at epoch 2) and
    # the S spec's per-table passes must name all of them, not those of the
    # first hit
    cfg = write_cfg(tmp_path, setup_costs=[0.0, 1000.0, 5000.0])
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--xmax", xmax,
            *labels]
    for sid in alone:
        assert main([*argv, "--settings", str(sid)]) == 3
    capsys.readouterr()
    assert main([*argv, "--settings", ids]) == 3
    assert capsys.readouterr().err.startswith(
        f"numerical failure: {labels[0]} on settings {ids}: order-up-to reached x_max={xmax} "
        "at epoch ")


def test_git_revision_is_looked_up_once_per_process(tmp_path, monkeypatch):
    import subprocess

    from eolstop import cli

    calls = []
    real = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cli._git_revision.cache_clear()
    cfg = write_cfg(tmp_path, models=["D/1/Z"], setup_costs=[0.0], x0=[0])
    for out in ("o1", "o2"):
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / out),
                     "D/1/Z", "D/1/Z"]) == 0
    assert len(calls) == 1
    revisions = {json.loads((tmp_path / out / "manifest.json").read_text())["git_revision"]
                 for out in ("o1", "o2")}
    assert len(revisions) == 1


def test_manifest_records_the_package_revision_from_any_cwd(tmp_path, monkeypatch):
    import shutil

    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    cfg = write_cfg(tmp_path, models=["D/1/Z"], setup_costs=[0.0], x0=[0])
    revisions = []
    for cwd in (Path(__file__).resolve().parents[1], tmp_path):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"o{len(revisions)}"
        assert main(["compare", "--config", str(cfg), "--out", str(out), "D/1/Z", "D/1/Z"]) == 0
        revisions.append(json.loads((out / "manifest.json").read_text())["git_revision"])
    assert revisions[0] == revisions[1]


@pytest.mark.parametrize("over, match", [
    ({"x0": "12"}, "x0 must be a JSON list"),
    ({"setup_costs": "05"}, "setup_costs must be a JSON list"),
    ({"models": "D/1/Z"}, "models must be a JSON list"),
    ({"models": [1]}, "as strings"),
    ({"intensity": [["kind", "convex"]]}, "intensity must be a JSON object"),
    ({"x_max": True}, "x_max must be an integer"),
    ({"x0": [True]}, "x0 must be an integer"),
    ({"x0": ["4"]}, "x0 must be an integer"),
    ({"setup_costs": [False]}, "setup_costs must be a number"),
    ({"schema_version": True}, "schema_version"),
    ({"tau_step": float("inf")}, "tau_step must be finite"),
    ({"intensity": {**TINY["intensity"], "total_demand": "24"}}, "total_demand must be a number"),
    ({"intensity": {**TINY["intensity"], "total_demand": True}}, "total_demand must be a number"),
    ({"intensity": {**TINY["intensity"], "horizon": True}}, "horizon must be an integer"),
    ({"intensity": {"kind": "custom", "rates": ["4"] * 8}}, "rates must be a number"),
    ({"intensity": {"kind": "custom", "rates": [True] * 8}}, "rates must be a number"),
    ({"intensity": {"kind": "custom", "rates": "4444"}}, "rates must be a JSON list"),
    ({"setup_costs": []}, "setup_costs must list at least one setup cost"),
    ({"intensity": {"kind": "custom", "rates": [4.0] * 8, "rates_file": "missing.txt"}},
     "exactly one of 'rates_file' and 'rates'"),
    ({"intensity": {**TINY["intensity"], "rates": [4.0] * 8}}, r"named intensity takes no \['rates'\]"),
    ({"intensity": {"kind": "custom", "rates": [4.0] * 8, "horizon": 100}},
     r"custom intensity takes no \['horizon'\]"),
], ids=["x0-str", "setup-str", "models-str", "models-int", "intensity-pairs", "xmax-bool",
        "x0-bool", "x0-str-item", "setup-bool", "schema-bool", "tau-inf", "total-str",
        "total-bool", "horizon-bool", "rates-str", "rates-bool", "rates-str-whole",
        "setup-empty", "custom-both-sources", "named-with-rates", "custom-with-horizon"])
def test_malformed_values_are_rejected(over, match):
    # "12" once parsed as x0 (1, 2), "05" as setup costs (0.0, 5.0), true as
    # 1, "24" as a total demand of 24.0 and ["4"] as a rate of 4.0; an empty
    # setup_costs once failed with "tuple index out of range", and a second
    # rates source, even a missing file, or a custom horizon was ignored
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict({**TINY, **over})


def _fail(*a, **kw):
    raise AssertionError("built for an oversized config")


def test_named_horizon_is_bounded_before_the_model_is_built(monkeypatch):
    # at T = 10**9 the model's rates alone would take 8 GB
    import eolstop.config

    monkeypatch.setattr(eolstop.config, "build_named_intensity", _fail)
    with pytest.raises(ConfigError, match="value-grid cells exceeds the limit"):
        ExperimentConfig.from_dict(
            {**TINY, "intensity": {"kind": "convex", "horizon": 10**9, "total_demand": 24.0}})


@pytest.mark.parametrize("intensity", [
    {"kind": "convex", "horizon": 8, "total_demand": 1e300},
    {"kind": "convex", "horizon": 8, "total_demand": 1e8},
    {"kind": "custom", "rates": [1e12] * 8},
], ids=["named-1e300", "named-1e8", "custom-1e12"])
def test_demand_is_bounded_before_a_pmf_is_built(monkeypatch, intensity):
    import eolstop.demand

    monkeypatch.setattr(eolstop.demand, "period_pmfs", _fail)
    with pytest.raises(ConfigError, match="demand pmf cells exceeds the limit"):
        ExperimentConfig.from_dict({**TINY, "intensity": intensity})


_SMALL = {**TINY, "intensity": {"kind": "convex", "horizon": 6, "total_demand": 18.0},
          "x_max": 40, "models": ["D/inf/F", "S/1/Z"], "paths": 50}
# (top-level key,) or (section, key) of every value a config holds
_FUZZ_KEYS = ([(k,) for k in sorted(ExperimentConfig.__dataclass_fields__)]
              + [("intensity", k) for k in ("kind", "horizon", "total_demand", "rates")]
              + [("costs", k) for k in sorted(TINY["costs"])])


_SCALARS = st.one_of(
    st.text(max_size=6), st.booleans(), st.none(),
    st.integers(-3, 70), st.integers(10**9, 10**30), st.integers(-10**30, -10**9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["D/1/Z", "T/2/F", "S/1/F", "convex", "custom", "paper", "12", "05"]))
_JSON_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))


@given(key=st.sampled_from(_FUZZ_KEYS), value=_JSON_VALUES)
# costs whose sums overflow in the solver and the kernel rows
@example(key=("costs", "c1"), value=4.5e306)
@example(key=("costs", "c3_bar"), value=1.0164285051904422e+307)
@example(key=("costs", "c2_bar"), value=1.7001896425721054e+307)
@hyp_settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_config_is_accepted_or_rejected_cleanly(key, value):
    # one value of a small valid config becomes a random JSON value: from_dict
    # returns a config or raises ConfigError, ``solve`` exits 0, 2 or 3, and no
    # CSV it writes holds a NaN
    raw = json.loads(json.dumps(_SMALL))
    (raw[key[0]] if len(key) == 2 else raw)[key[-1]] = value
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", tmp]) in (0, 2, 3)
        for path in Path(tmp).glob("*.csv"):
            assert "nan" not in path.read_text().lower(), path.name
