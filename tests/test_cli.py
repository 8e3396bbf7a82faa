"""Config ingestion, subcommand reports, determinism, and exit codes."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from cogalloc.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ConfigError,
    cmd_compare_nonjoint,
    cmd_compare_oracle,
    cmd_optimize,
    cmd_probe_hessian,
    cmd_simulate,
    effective_config,
    load_config,
    main,
    parse_config,
)
from cogalloc.units import dbm_to_watts


class TestConfigParsing:
    def test_empty_object_gets_table_defaults(self):
        cfg = parse_config({})
        p = cfg.system
        assert p.n_samples == 40
        assert p.p_st == pytest.approx(dbm_to_watts(23.0))
        assert p.p_pt == pytest.approx(dbm_to_watts(43.0))
        assert p.bandwidth == 15e3
        assert p.sample_interval == pytest.approx(1.0 / 6e6)
        assert p.sense_cost == 1e-4 and p.report_cost == 1e-3
        assert p.noise_power == pytest.approx(
            dbm_to_watts(-174.0 + 10.0 * math.log10(15e3))
        )
        assert cfg.users == {
            "count": 5,
            "gain_mean": 1.0,
            "pay_rate": 0.1,
            "earn_rate": 10.0,
            "buffer_bits": 1000,
        }

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config({"bogus": 1})
        with pytest.raises(ConfigError, match="system"):
            parse_config({"system": {"frames": 3}})
        with pytest.raises(ConfigError, match="traffic"):
            parse_config({"traffic": {"rate": 3}})

    def test_negative_frame_duration_reported(self):
        with pytest.raises(ConfigError, match="frame_duration"):
            parse_config({"system": {"frame_duration": -1.0}})

    def test_all_violations_listed_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"trials": 0, "experiment": {"sweep": "zeta"}})
        message = str(err.value)
        assert "trials" in message and "experiment.values" in message

    def test_effective_config_round_trip(self):
        eff = effective_config({"system": {"zeta": 0.75}, "trials": 4})
        again = effective_config(eff)
        assert eff == again
        assert parse_config(eff).system.zeta == 0.75

    def test_explicit_users(self):
        cfg = parse_config(
            {
                "users": [
                    {"gain_to_fc": 1.0, "buffer_bits": 100, "pay_rate": 0.1, "earn_rate": 5.0},
                    {"gain_to_fc": 2.0, "buffer_bits": 50, "pay_rate": 0.2, "earn_rate": 4.0},
                ]
            }
        )
        assert len(cfg.explicit_users) == 2
        assert cfg.explicit_users[1].gain_to_fc == 2.0

    def test_ignored_bit_rate_field_accepted(self):
        cfg = parse_config({"system": {"bit_rate_kbps": 250.0}})
        assert cfg.system.n_samples == 40

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"seed\": ,\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


def _cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SMALL_SWEEP = {
    "experiment": {"sweep": "zeta", "values": [0.6, 0.8]},
    "trials": 2,
    "seed": 77,
}


class TestSubcommands:
    def test_optimize_writes_versioned_csv(self, tmp_path):
        cfg = load_config(_cfg(tmp_path, SMALL_SWEEP))
        assert cmd_optimize(cfg, tmp_path) == EXIT_OK
        lines = (tmp_path / "optimize.csv").read_text().splitlines()
        assert lines[0] == "# schema=cogalloc.optimize.v1"
        assert lines[1].split(",")[:3] == ["sweep_value", "trial", "fc_utility"]
        assert len(lines) == 2 + 4  # 2 sweep values x 2 trials
        mean_lines = (tmp_path / "optimize_mean.csv").read_text().splitlines()
        assert len(mean_lines) == 2 + 2

    def test_optimize_deterministic_bytes(self, tmp_path):
        cfg = load_config(_cfg(tmp_path, SMALL_SWEEP))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        cmd_optimize(cfg, out_a)
        cmd_optimize(cfg, out_b)
        assert (out_a / "optimize.csv").read_bytes() == (out_b / "optimize.csv").read_bytes()

    def test_optimize_infeasible_everywhere_exit_code(self, tmp_path):
        payload = {
            "system": {"zeta": 0.999999, "gamma_db": -15.0},
            "users": {"count": 2},
            "trials": 1,
        }
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_optimize(cfg, tmp_path) == EXIT_INFEASIBLE

    def test_compare_oracle_matches_and_exits_zero(self, tmp_path):
        payload = dict(SMALL_SWEEP, users={"count": 4}, trials=2)
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_compare_oracle(cfg, tmp_path) == EXIT_OK
        rows = (tmp_path / "compare_oracle.csv").read_text().splitlines()[2:]
        for row in rows:
            fields = row.split(",")
            assert float(fields[4]) == pytest.approx(0.0, abs=1e-9)

    def test_compare_oracle_refuses_large_instances(self, tmp_path):
        payload = dict(SMALL_SWEEP, users={"count": 13})
        cfg = load_config(_cfg(tmp_path, payload))
        with pytest.raises(ConfigError, match="refuses"):
            cmd_compare_oracle(cfg, tmp_path)

    def test_compare_nonjoint_reports_counts(self, tmp_path):
        payload = dict(SMALL_SWEEP, users={"count": 5, "buffer_bits": 20000})
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_compare_nonjoint(cfg, tmp_path) == EXIT_OK
        rows = (tmp_path / "compare_nonjoint.csv").read_text().splitlines()[2:]
        for row in rows:
            fields = row.split(",")
            assert fields[4] == "0"  # joint never leaves a user negative
            assert int(fields[5]) >= 0

    def test_compare_nonjoint_mean_bytes_pinned(self, tmp_path):
        # Three sweep points: the aggregate must keep the exact bytes the
        # per-key aggregation produced.
        payload = {
            "experiment": {"sweep": "zeta", "values": [0.6, 0.7, 0.8]},
            "trials": 3,
            "seed": 77,
            "users": {"count": 5, "buffer_bits": 20000},
        }
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_compare_nonjoint(cfg, tmp_path) == EXIT_OK
        assert (tmp_path / "compare_nonjoint_mean.csv").read_bytes() == (
            b"# schema=cogalloc.compare_nonjoint_mean.v1\r\n"
            b"sweep_value,mean_joint_utility,mean_nonjoint_utility,"
            b"mean_nonjoint_negative_count,n\r\n"
            b"0.6,56.503758425702706,55.872063324008074,4.0,3\r\n"
            b"0.7,57.20345564897613,57.2034643365478,4.0,3\r\n"
            b"0.8,55.033800892145734,55.03380980860906,4.0,3\r\n"
        )

    def test_simulate_header_spans_an_m_sweep(self, tmp_path):
        payload = {
            "experiment": {"sweep": "m", "values": [2, 4], "n_frames": 20},
            "trials": 1,
        }
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_simulate(cfg, tmp_path) == EXIT_OK
        lines = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        header, *rows = [line.split(",") for line in lines]
        assert header[4:] == [f"mean_delay_su{i}" for i in range(4)]
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][-2:] == ["", ""] and "" not in rows[1]

    def test_simulate_emits_rows_and_trace(self, tmp_path):
        payload = {
            "experiment": {"sweep": "p_h0", "values": [0.7, 0.9], "n_frames": 30},
            "trials": 2,
            "seed": 3,
        }
        cfg = load_config(_cfg(tmp_path, payload))
        assert cmd_simulate(cfg, tmp_path) == EXIT_OK
        rows = (tmp_path / "simulate.csv").read_text().splitlines()
        assert len(rows) == 2 + 4
        trace_lines = (tmp_path / "trace_sweep0.jsonl").read_text().splitlines()
        header = json.loads(trace_lines[0])
        assert header == {"schema": "cogalloc.trace.v1"}
        assert len(trace_lines) == 1 + 30
        record = json.loads(trace_lines[1])
        assert {"frame", "pu_active", "fc_busy", "selected", "bits_out"} <= set(record)

    def test_probe_hessian_summary_and_rows(self, tmp_path, capsys):
        cfg = load_config(_cfg(tmp_path, {}))
        assert cmd_probe_hessian(cfg, tmp_path) == EXIT_OK
        out = capsys.readouterr().out
        assert "det_H < 0" in out
        rows = (tmp_path / "probe_hessian.csv").read_text().splitlines()[2:]
        assert all(float(r.split(",")[2]) <= 0.0 for r in rows)
        assert any(float(r.split(",")[1]) < 0.0 for r in rows)

    def test_probe_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="pfa_grid"):
            load_config(_cfg(tmp_path, {"probe": {"pfa_grid": []}}))


class TestMainEntry:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = _cfg(tmp_path, {"nope": 1})
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_seed_override_changes_rows(self, tmp_path):
        path = _cfg(tmp_path, SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", str(path), "--out", str(out_a)])
        main(["optimize", "--config", str(path), "--out", str(out_b), "--seed", "1234"])
        assert (out_a / "optimize.csv").read_bytes() != (out_b / "optimize.csv").read_bytes()

    def test_emit_effective_config_round_trips(self, tmp_path, capsys):
        path = _cfg(tmp_path, {"system": {"zeta": 0.66}, "trials": 1})
        main(
            [
                "probe-hessian",
                "--config",
                str(path),
                "--out",
                str(tmp_path),
                "--emit-effective-config",
            ]
        )
        printed = capsys.readouterr().out
        emitted = json.loads(printed[: printed.index("\ndet_H")])
        assert effective_config(emitted) == emitted
        assert emitted["system"]["zeta"] == 0.66

    @pytest.mark.parametrize(
        "sweep,values",
        [
            ("m", [0, 3]),
            ("m", [3, -2]),
            ("m", [2.5]),
            ("m", [True]),
            ("zeta", [0.7, 1.5]),
            ("zeta", [0.0]),
            ("p_h0", [1.0]),
            ("p_h0", [-0.2]),
            ("buffer_bits", [-1]),
            ("gamma_db", ["loud"]),
        ],
    )
    def test_bad_sweep_value_exit_code(self, tmp_path, capsys, sweep, values):
        # Checked up front like the base fields, not in a worker.
        path = _cfg(tmp_path, {"experiment": {"sweep": sweep, "values": values}})
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "experiment.values" in capsys.readouterr().err

    def test_vote_threshold_above_user_count_is_infeasible(self, tmp_path):
        # k_max 5 with 3 users: the designs with k > 3 are infeasible, not
        # an error.
        path = _cfg(
            tmp_path, {"experiment": {"sweep": "m", "values": [3]}, "grid": {"k_max": 5}}
        )
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        row = (tmp_path / "optimize.csv").read_text().splitlines()[2].split(",")
        assert row[6] == "1" and int(row[4]) <= 3

    def test_zero_rate_grid_compare_nonjoint_is_infeasible(self, tmp_path):
        # pfa 0.99 with k=1 gives every user a zero effective rate: no
        # admissible design for either search (exit 3, not a crash).
        path = _cfg(
            tmp_path, {"users": {"count": 20}, "grid": {"pfa_values": [0.99], "k_max": 1}}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare-nonjoint", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_INFEASIBLE
        row = (tmp_path / "compare_nonjoint.csv").read_text().splitlines()[2]
        assert row == ",0,0.0,0.0,0,0"

    def test_jobs_flag_equivalent_output(self, tmp_path):
        path = _cfg(tmp_path, SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", str(path), "--out", str(out_a)])
        main(["optimize", "--config", str(path), "--out", str(out_b), "--jobs", "2"])
        assert (out_a / "optimize.csv").read_bytes() == (out_b / "optimize.csv").read_bytes()

    def test_module_invocation_subprocess(self, tmp_path, src_env):
        path = _cfg(tmp_path, {"trials": 1, "seed": 8})
        proc = subprocess.run(
            [sys.executable, "-m", "cogalloc", "optimize", "--config", str(path),
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "optimize.csv").exists()


def test_import_leaves_out_scipy(src_env):
    # The library needs only numpy and the standard library; importing
    # scipy.special alone costs about a third of a second at every CLI
    # start (scipy is a test-only dependency, for the independent oracles).
    for module in ("cogalloc", "cogalloc.cli"):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", (module, proc.stdout)
