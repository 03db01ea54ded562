import csv
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import decarb
from decarb import cli
from decarb.cli import emit_csv, run
from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of emit_csv's bytes for pinned_table(), recorded when every value
# was formatted one numpy scalar at a time
PINNED_CSV_SHA256 = "bcfadc26b542b2f3239ea75aef81d56e8ce394c175d8b71942e2bf338d4b9c46"
# SHA-256 of every file the game's scenarios write from fig2_nash.json (seed
# 7), at its 1001 nodes and at 16001, recorded while solve_nash marched all
# twelve coefficients
GAME_OUTPUT_SHA256 = {
    ("nash", 1001): {
        "nash_coeffs.csv": "5eee9efbcd831ee3a091fe74ddc118f3667d812c0d5ca1b062b73d99ee850e08",
        "summary.json": "9fac7d510dab1ed1745bc4fea7a1d917b9ab738d2d1b5e3fcab3ba86d9285421",
    },
    ("nash", 16001): {
        "nash_coeffs.csv": "a095fed7ff2730ca143dfb83b39fe30e66bfefe68abdb0a9ffd741780f2d5c79",
        "summary.json": "b6a3d1127548e5ec8ecf81359879891b1a3b31a4220559253bf8a3c5e749685a",
    },
    ("verify", 1001): {
        "residuals.json": "32c45029dcd352aa380fcaceaee3e0f2bb1fa48800594879563796e0184e533c",
        "summary.json": "6061889db1349dd4e68d87a7fab4c450641447e5de3b7ba7339a713166e5e460",
    },
    ("verify", 16001): {
        "residuals.json": "b229f2714e6f4985ed2946d0b0bcf39c2d138531c8d380e8271a523fda0229e8",
        "summary.json": "a515cf95058ac73d2cc896fb4dde39614fb2567f0f27738fcd8b2e86372c52e7",
    },
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestEmitCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = np.concatenate([
            rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3)),
            [[0.0, -0.0, 1e-300]],
        ])
        path = tmp_path / "data.csv"
        emit_csv(data, ("a", "b", "c"), path)
        rows = read_rows(path)
        assert rows[0] == ["a", "b", "c"]
        back = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(back, data)

    @staticmethod
    def pinned_table() -> np.ndarray:
        """2500 rows over 40 decades, special values in rows at and around 1024 and 2048."""
        rng = np.random.default_rng(2024)
        table = rng.standard_normal((2500, 7)) * 10.0 ** rng.integers(-20, 20, (2500, 7))
        specials = [-0.0, 5e-324, 1e-05, 1e+16, np.inf, -np.inf, np.nan]
        for i, k in enumerate((0, 1023, 1024, 1025, 2047, 2048, 2499)):
            table[k] = np.roll(specials, i)
        return table

    def test_pinned_bytes(self, tmp_path):
        path = tmp_path / "pinned.csv"
        emit_csv(self.pinned_table(), tuple("abcdefg"), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(np.zeros((0, 2)), ("t", "x"), path)
        assert path.read_text(encoding="utf-8") == "t,x\n"

    def test_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(np.zeros((2, 2)), ("a",), tmp_path / "bad.csv")


class TestScenarios:
    def test_nash_outputs_and_determinism(self, tmp_path):
        cfg = str(CONFIG_DIR / "fig2_nash.json")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run(["nash", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["nash", "--config", cfg, "--out", str(out2)]) == 0
        rows = read_rows(out1 / "nash_coeffs.csv")
        assert rows[0] == ["t", "A", "B", "C", "D", "E", "F",
                           "At", "Bt", "Ct", "Dt", "Et", "Ft"]
        assert len(rows) == 1002  # header + 1001 nodes
        assert (out1 / "nash_coeffs.csv").read_bytes() == (out2 / "nash_coeffs.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_two_firm_and_single_firm(self, tmp_path):
        for name in ("two_firm", "single_firm"):
            out = tmp_path / name
            scenario = name.replace("_", "-")
            assert run([scenario, "--config", str(CONFIG_DIR / f"{name}.json"),
                        "--out", str(out)]) == 0
            rows = read_rows(out / "riccati_coeffs.csv")
            assert rows[0] == ["t", "A11", "A12", "A22", "B1", "B2", "C"]
            assert len(rows) == 1002
            summary = json.loads((out / "summary.json").read_text())
            assert summary["scenario"] == scenario
            assert "value_at_origin" in summary

    def test_best_response_runs_from_checked_in_configs(self, tmp_path):
        outs = []
        for tag in ("0", "05", "1"):
            out = tmp_path / f"br{tag}"
            cfg = str(CONFIG_DIR / f"fig1_best_response_a2_{tag}.json")
            assert run(["best-response", "--config", cfg, "--out", str(out)]) == 0
            outs.append(read_rows(out / "best_response_coeffs.csv"))
        # quadratic coefficients agree across opponents, slopes do not
        for rows in outs:
            assert rows[0] == ["t", "A", "B", "C", "D", "E", "F"]
        a_cols = [[r[1] for r in rows[1:]] for rows in outs]
        d_cols = [[r[4] for r in rows[1:]] for rows in outs]
        assert a_cols[0] == a_cols[1] == a_cols[2]
        assert d_cols[0] != d_cols[2]

    def test_verify_scenario_nash(self, tmp_path):
        out = tmp_path / "verify"
        cfg = write_config(tmp_path, {
            "model": NASH_FIXTURE,
            "numerics": {"n_nodes": 16001},
        })
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        residuals = json.loads((out / "residuals.json").read_text())
        assert {r["label"] for r in residuals["reports"]} == {"nash_hjb_firm1", "nash_hjb_firm2"}
        assert all(r["max_residual"] <= 1e-6 for r in residuals["reports"])
        assert residuals["ode_max_residual"] <= 1e-6

    def test_verify_scenario_principal(self, tmp_path):
        out = tmp_path / "verify_p"
        cfg = write_config(tmp_path, {"model": TWO_FIRM_FIXTURE})
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        residuals = json.loads((out / "residuals.json").read_text())
        assert residuals["reports"][0]["label"] == "principal_hjb"
        assert residuals["reports"][0]["max_residual"] <= 1e-6

    @pytest.mark.parametrize("scenario, n_nodes", sorted(GAME_OUTPUT_SHA256))
    def test_pinned_game_outputs(self, tmp_path, scenario, n_nodes):
        payload = json.loads((CONFIG_DIR / "fig2_nash.json").read_text(encoding="utf-8"))
        assert payload["numerics"] == {"n_nodes": 1001, "seed": 7}
        payload["numerics"]["n_nodes"] = n_nodes
        out = tmp_path / "out"
        assert run([scenario, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in GAME_OUTPUT_SHA256[scenario, n_nodes]}
        assert digests == GAME_OUTPUT_SHA256[scenario, n_nodes]

    @pytest.mark.parametrize("config", ["two_firm.json", "fig2_nash.json"])
    def test_verify_on_six_nodes(self, tmp_path, config):
        payload = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
        payload["numerics"]["n_nodes"] = 6
        cfg = write_config(tmp_path, payload)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_simulate_scenario_principal(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, {
            "model": TWO_FIRM_FIXTURE,
            "numerics": {"n_nodes": 501, "n_paths": 2000, "dt": 0.004, "seed": 11},
        })
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        labels = [e["label"] for e in summary["estimates"]]
        assert labels == ["principal", "firm1", "firm2"]
        est = summary["estimates"][0]
        assert abs(est["mean"] - summary["targets"]["principal"]) <= 4.0 * est["std_err"]

    def test_simulate_scenario_nash_with_deviation(self, tmp_path):
        out = tmp_path / "simnash"
        cfg = write_config(tmp_path, {
            "model": NASH_FIXTURE,
            "numerics": {"n_nodes": 1001, "n_paths": 1000, "dt": 0.004, "seed": 12},
            "deviation": {"firm": 1, "scale": 1.1},
        })
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["deviation"] == {"firm": 1, "scale": 1.1}
        assert {e["label"] for e in summary["estimates"]} == {"firm1", "firm2"}

    def test_simulate_dump_paths(self, tmp_path):
        out = tmp_path / "dump"
        cfg = write_config(tmp_path, {
            "model": NASH_FIXTURE,
            "numerics": {"n_nodes": 501, "n_paths": 100, "dt": 0.004, "seed": 13,
                         "dump_paths": True},
        })
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "paths.csv")
        assert rows[0] == ["path", "firm1", "firm2"]
        assert len(rows) == 101
        summary = json.loads((out / "summary.json").read_text())
        assert "paths.csv" in summary["outputs"]
        assert summary["estimates"][0]["dt"] == 0.004

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": NASH_FIXTURE,
            "numerics": {"n_nodes": 501, "n_paths": 500, "dt": 0.004, "seed": 1},
        })
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["estimates"][0]["seed"] == 1 and s2["estimates"][0]["seed"] == 99
        assert s1["estimates"][0]["mean"] != s2["estimates"][0]["mean"]

    def test_literal_signs_flag(self, tmp_path):
        out = tmp_path / "lit"
        cfg = str(CONFIG_DIR / "single_firm.json")
        assert run(["single-firm", "--config", cfg, "--out", str(out),
                    "--literal-signs"]) == 0
        base_out = tmp_path / "base"
        assert run(["single-firm", "--config", cfg, "--out", str(base_out)]) == 0
        lit = json.loads((out / "summary.json").read_text())
        base = json.loads((base_out / "summary.json").read_text())
        assert lit["value_at_origin"] != base["value_at_origin"]

    def test_flags_do_not_carry_over_between_runs(self, tmp_path):
        # one parser serves every run in a process; each run reads only its own flags
        cfg = write_config(tmp_path, {"model": SINGLE_FIRM_FIXTURE, "numerics": {"n_nodes": 201}})
        flagged, plain = tmp_path / "flagged", tmp_path / "plain"
        assert run(["single-firm", "--config", cfg, "--out", str(flagged),
                    "--seed", "7", "--literal-signs"]) == 0
        assert run(["single-firm", "--config", cfg, "--out", str(plain)]) == 0
        first = json.loads((flagged / "summary.json").read_text())
        second = json.loads((plain / "summary.json").read_text())
        assert first["numerics"]["seed"] == 7 and first["model"]["literal_signs"] is True
        assert "seed" not in second["numerics"] and "literal_signs" not in second["model"]


class TestErrorPaths:
    def test_validation_error_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": dict(NASH_FIXTURE, gamma1=-1.0)})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRange"
        assert err["field"] == "gamma1"
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("n_nodes", [2.7, 1, True, "abc"])
    def test_malformed_n_nodes_names_field(self, tmp_path, capsys, n_nodes):
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE, "numerics": {"n_nodes": n_nodes}})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRange"
        assert err["field"] == "n_nodes"
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5])
    @pytest.mark.parametrize("config", ["two_firm.json", "fig2_nash.json"])
    def test_verify_on_too_few_nodes_names_field(self, tmp_path, capsys, config, n_nodes):
        # the one-sided residual stencil at node 1 reads node 5
        payload = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
        payload["numerics"]["n_nodes"] = n_nodes
        cfg = write_config(tmp_path, payload)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRange"
        assert err["field"] == "n_nodes"
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("scenario, numerics, error, field", [
        ("simulate", {"n_paths": 4.9}, "OutOfRange", "n_paths"),
        ("simulate", {"n_paths": True}, "OutOfRange", "n_paths"),
        ("simulate", {"seed": 1.7}, "OutOfRange", "seed"),
        ("simulate", {"dt": 0.0}, "OutOfRange", "dt"),
        ("simulate", {"dt": "0.01"}, "OutOfRange", "dt"),
        ("simulate", {"dt": float("inf")}, "OutOfRange", "dt"),
        ("simulate", {"antithetic": "no"}, "OutOfRange", "antithetic"),
        ("simulate", {"dump_paths": 1}, "OutOfRange", "dump_paths"),
        ("simulate", {"x0": [0.0]}, "OutOfRange", "x0"),
        ("simulate", {"x0": [0.0, float("nan")]}, "OutOfRange", "x0"),
        ("simulate", {"y0": "0"}, "OutOfRange", "y0"),
        ("simulate", {"y0": [0.0, float("-inf")]}, "OutOfRange", "y0"),
        ("simulate", {"n_node": 501}, "UnexpectedField", "n_node"),
        ("verify", {"grid": {"n_points": 0}}, "OutOfRange", "grid.n_points"),
        ("verify", {"grid": {"n_time_slices": 2.5}}, "OutOfRange", "grid.n_time_slices"),
        ("verify", {"grid": {"n_time_slices": 0}}, "OutOfRange", "grid.n_time_slices"),
        ("verify", {"grid": {"x_min": 1.0, "x_max": 1.0}}, "OutOfRange", "grid.x_max"),
        ("verify", {"grid": {"x_min": None}}, "OutOfRange", "grid.x_min"),
        ("verify", {"grid": {"n_point": 11}}, "UnexpectedField", "grid.n_point"),
        ("verify", {"grid": [21]}, "OutOfRange", "grid"),
        ("simulate", {"dt": 10 ** 400}, "OutOfRange", "dt"),
        ("simulate", {"n_nodes": 10 ** 29}, "OutOfRange", "n_nodes"),
        ("verify", {"n_nodes": 2 ** 63}, "OutOfRange", "n_nodes"),
        ("simulate", {"n_paths": 10 ** 29}, "OutOfRange", "n_paths"),
        ("simulate", {"n_paths": 2 ** 63}, "OutOfRange", "n_paths"),
    ])
    def test_malformed_numerics_names_field(self, tmp_path, capsys, scenario, numerics,
                                            error, field):
        cfg = write_config(tmp_path, {"model": TWO_FIRM_FIXTURE,
                                      "numerics": {"n_nodes": 201, **numerics}})
        assert run([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == (error, field, 1)
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("model", [TWO_FIRM_FIXTURE, NASH_FIXTURE])
    def test_oversized_n_paths_fails_before_any_draw(self, tmp_path, capsys, monkeypatch, model):
        # within the integer bound, but no array of that many payoffs can exist
        draws = []
        monkeypatch.setattr("decarb.mc._draw_chunk", lambda *a: draws.append(a))
        cfg = write_config(tmp_path, {"model": model, "numerics": {"n_nodes": 201, "dt": 0.1,
                                                                   "n_paths": 2 ** 62}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == ("OutOfRange", "n_paths", 1)
        assert draws == []

    def test_every_numerics_field_accepted(self, tmp_path):
        out = tmp_path / "full"
        cfg = write_config(tmp_path, {"model": TWO_FIRM_FIXTURE, "numerics": {
            "n_nodes": 201, "n_paths": 64, "dt": 0.01, "seed": 3,
            "x0": [0.1, -0.1], "y0": [0.0, 0.5], "antithetic": False, "dump_paths": True,
            "grid": {"x_min": -1, "x_max": 1, "n_points": 5, "n_time_slices": 2},
        }})
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out / "paths.csv")) == 65
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        grid = json.loads((out / "residuals.json").read_text())["reports"][0]["grid"]
        assert grid == {"x_min": -1.0, "x_max": 1.0, "n_points": 5, "n_time_slices": 2}

    @pytest.mark.parametrize("scenario, numerics, field", [
        ("simulate", {"y0": [1, 2, 3]}, "y0"),
        ("simulate", {"dt": 5.0}, "dt"),
        ("nash", {}, None),  # a scenario-kind mismatch is no single field's fault
    ])
    def test_config_mismatch_names_field(self, tmp_path, capsys, scenario, numerics, field):
        config = json.loads((CONFIG_DIR / "simulate_two_firm.json").read_text(encoding="utf-8"))
        config["numerics"].update(numerics)
        cfg = write_config(tmp_path, config)
        assert run([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err.get("field"), err["exit_code"]) == ("ConfigMismatch", field, 1)

    def test_odd_antithetic_n_paths_rejected_for_every_scenario(self, tmp_path, capsys):
        # every scenario builds the simulation settings, so they are checked at parse time
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE, "numerics": {"n_nodes": 201,
                                                                          "n_paths": 3}})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == ("OutOfRange", "n_paths", 1)

    def test_scenario_kind_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": TWO_FIRM_FIXTURE})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigMismatch"

    def test_blow_up_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": dict(NASH_FIXTURE, horizon=1.5)})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BlowUp" and err["exit_code"] == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["nash", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["nash", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("config, flags, field", [
        ({"model": [1, 2]}, [], "model"),
        ({"model": "x"}, [], "model"),
        ({"model": NASH_FIXTURE, "numerics": [201]}, [], "numerics"),
        ({"model": NASH_FIXTURE, "numerics": "n_nodes"}, ["--seed", "3"], "numerics"),
        ({"model": [1, 2]}, ["--literal-signs"], "model"),
        ({"model": "x"}, ["--literal-signs"], "model"),
    ])
    def test_non_object_section_names_field(self, tmp_path, capsys, config, flags, field):
        cfg = write_config(tmp_path, config)
        assert run(["nash", "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == ("OutOfRange", field, 1)
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_internal_error_is_not_a_validation_error(self, tmp_path, monkeypatch):
        def broken(run):
            raise TypeError("a bug")

        monkeypatch.setitem(cli._RUNNERS, "nash", broken)
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE})
        with pytest.raises(TypeError, match="a bug"):
            run(["nash", "--config", cfg, "--out", str(tmp_path)])

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "\xff"}')
        assert run(["nash", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"

    def test_missing_model_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"numerics": {}})
        assert run(["nash", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "MissingField"

    @pytest.mark.parametrize("opponent, error, field", [
        ({"firm": 1.9, "flow": 0.5}, "OutOfRange", "opponent.firm"),
        ({"firm": 1.0, "flow": 0.5}, "OutOfRange", "opponent.firm"),
        ({"firm": True, "flow": 0.5}, "OutOfRange", "opponent.firm"),
        ({"firm": 3, "flow": 0.5}, "OutOfRange", "opponent.firm"),
        ({"firm": "1", "flow": 0.5}, "OutOfRange", "opponent.firm"),
        ({"firm": 1, "flow": "0.5"}, "OutOfRange", "opponent.flow"),
        ({"firm": 1, "flow": True}, "OutOfRange", "opponent.flow"),
        ({"firm": 1, "flow": float("nan")}, "OutOfRange", "opponent.flow"),
        ({"firm": 1, "flow": 10 ** 400}, "OutOfRange", "opponent.flow"),
        ({"firm": 1, "flow": [0.5, 0.5]}, "OutOfRange", "opponent.flow"),
        ({"firm": 1, "flow": [0.5] * 200 + [None]}, "OutOfRange", "opponent.flow"),
        ({"firm": 1}, "MissingField", "opponent.flow"),
        ({"firm": 1, "flw": 0.5}, "UnexpectedField", "opponent.flw"),
        ([1, 0.5], "OutOfRange", "opponent"),
    ])
    def test_malformed_opponent_names_field(self, tmp_path, capsys, opponent, error, field):
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE, "numerics": {"n_nodes": 201},
                                      "opponent": opponent})
        assert run(["best-response", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == (error, field, 1)
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_opponent_flow_samples_accepted(self, tmp_path):
        # node samples of a constant flow give the constant flow's response
        summaries = []
        for name, flow in (("scalar", 0.5), ("samples", [0.5] * 201)):
            cfg = write_config(tmp_path, {"model": NASH_FIXTURE, "numerics": {"n_nodes": 201},
                                          "opponent": {"firm": 2, "flow": flow}}, f"{name}.json")
            assert run(["best-response", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
        assert summaries[0]["coefficients_at_0"] == summaries[1]["coefficients_at_0"]
        assert summaries[0]["firm"] == summaries[1]["firm"] == 2

    @pytest.mark.parametrize("deviation, error, field", [
        ({"firm": 1.9}, "OutOfRange", "deviation.firm"),
        ({"firm": True}, "OutOfRange", "deviation.firm"),
        ({"firm": 0}, "OutOfRange", "deviation.firm"),
        ({"scale": "1.1"}, "OutOfRange", "deviation.scale"),
        ({"scale": float("inf")}, "OutOfRange", "deviation.scale"),
        ({"scale": False}, "OutOfRange", "deviation.scale"),
        ({"shift": None}, "OutOfRange", "deviation.shift"),
        ({"shift": float("nan")}, "OutOfRange", "deviation.shift"),
        ({"firm": 1, "scal": 1.1}, "UnexpectedField", "deviation.scal"),
        ("firm1", "OutOfRange", "deviation"),
    ])
    def test_malformed_deviation_names_field(self, tmp_path, capsys, deviation, error, field):
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE,
                                      "numerics": {"n_nodes": 201, "n_paths": 4, "dt": 0.01},
                                      "deviation": deviation})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"], err["exit_code"]) == (error, field, 1)
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_deviation_rejected_for_principal_models(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": TWO_FIRM_FIXTURE,
                                      "numerics": {"n_nodes": 201, "n_paths": 4, "dt": 0.01},
                                      "deviation": {"firm": 1, "scale": 1.1}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("UnexpectedField", "deviation")

    def test_best_response_needs_opponent(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": NASH_FIXTURE})
        assert run(["best-response", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["field"] == "opponent"


def test_runtime_imports_numpy_and_the_standard_library_only(tmp_path):
    # compared with the modules present before decarb's import, not with an
    # empty interpreter: site start-up may load third-party modules itself
    report = tmp_path / "added.json"
    script = textwrap.dedent(f"""
        import sys
        before = set(sys.modules)
        from decarb import cli
        codes = [cli.run(["single-firm", "--config", {str(CONFIG_DIR / "single_firm.json")!r},
                          "--out", {str(tmp_path / "single")!r}]),
                 cli.run(["nash", "--config", {str(CONFIG_DIR / "fig2_nash.json")!r},
                          "--out", {str(tmp_path / "nash")!r}])]
        added = sorted(set(sys.modules) - before)
        import json
        with open({str(report)!r}, "w") as fh:
            json.dump({{"codes": codes, "added": added}}, fh)
    """)
    src = str(Path(decarb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True)
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["codes"] == [0, 0]
    assert "decarb" in result["added"] and "numpy" in result["added"]
    allowed = set(sys.stdlib_module_names) | {"numpy", "decarb"}
    assert [m for m in result["added"] if m.split(".")[0] not in allowed] == []
