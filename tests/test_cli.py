"""Config ingestion, subcommand reports, determinism, and exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

from cogalloc.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
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
from cogalloc import cli
from cogalloc.cli import _SCHEMA
from cogalloc.economics import default_system_params
from cogalloc.optimizer import HessianProbeConfig
from cogalloc.simkit import TrafficModel
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

    def test_values_without_a_sweep_rejected(self):
        # They used to be ignored: one unswept point ran. A null still loads,
        # as --emit-effective-config prints it.
        for values in ([0.5, 0.9], []):
            with pytest.raises(ConfigError, match="experiment.sweep"):
                parse_config({"experiment": {"values": values}})
        cfg = parse_config({"experiment": {"sweep": "none", "values": None}})
        assert cfg.sweep_values == (None,)

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

    def test_schema_defaults_equal_library_defaults(self):
        # The schema and the library each state the defaults; they must agree.
        cfg = parse_config({})
        assert cfg.system == default_system_params()
        assert cfg.traffic == TrafficModel()
        assert cfg.probe == HessianProbeConfig()

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


#: A complete explicit user entry.
USER = {"gain_to_fc": 1.0, "buffer_bits": 100, "pay_rate": 0.1, "earn_rate": 5.0}

#: ``--emit-effective-config`` on ``{}``: every default.
EFFECTIVE_DEFAULTS = """\
{
  "experiment": {
    "n_frames": 100,
    "sweep": "none",
    "values": null
  },
  "grid": {
    "k_max": null,
    "levels": 10,
    "pfa_values": null
  },
  "probe": {
    "gamma_db": -7.5,
    "m_users": 5,
    "n_samples": 40,
    "p_h0": 0.6,
    "pay_times_t": 0.1,
    "pfa_grid": null,
    "r0": [
      7.4,
      8.0,
      8.2,
      0.2,
      9.5
    ],
    "r1": [
      2.3,
      3.5,
      2.7,
      0.02,
      3.3
    ]
  },
  "seed": 1,
  "system": {
    "bandwidth": 15000.0,
    "bit_rate_kbps": 250.0,
    "frame_duration": 0.001,
    "gamma_db": -7.0,
    "n_samples": 40,
    "noise_dbm_per_hz": -174.0,
    "p_h0": 0.8,
    "p_pt_dbm": 43.0,
    "p_st_dbm": 23.0,
    "report_cost": 0.001,
    "sample_interval": 1.6666666666666668e-07,
    "sense_cost": 0.0001,
    "tau2": 1e-05,
    "tau5": 1e-05,
    "tau_r": 5e-06,
    "tau_r_prime": 5e-06,
    "zeta": 0.7
  },
  "traffic": {
    "accumulation_time": 0.0,
    "batch_bits": 10,
    "initial_bits": 10,
    "scale": 7.0,
    "shape": 1.0
  },
  "trials": 1,
  "users": {
    "buffer_bits": 1000,
    "count": 5,
    "earn_rate": 10.0,
    "gain_mean": 1.0,
    "pay_rate": 0.1
  }
}
"""

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

    def test_compare_oracle_gap_exits_mismatch(self, tmp_path, monkeypatch):
        # An identical-cost instance whose oracle beats the joint search by
        # more than 1e-9 (relative) sets the mismatch exit code.
        import cogalloc.cli as cli

        def ahead(sus, params, grid):
            return SimpleNamespace(fc_utility=1e6, wall_time=0.0)

        monkeypatch.setattr(cli, "exhaustive_oracle", ahead)
        cfg = load_config(_cfg(tmp_path, SMALL_SWEEP))
        assert cmd_compare_oracle(cfg, tmp_path) == EXIT_ORACLE_MISMATCH

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

    @staticmethod
    def _simulate_bytes(tmp_path, name, users):
        payload = {
            "users": users,
            "experiment": {"n_frames": 30},
            "traffic": {"scale": 0.002},
            "trials": 2,
            "seed": 4,
        }
        out = tmp_path / name
        out.mkdir()
        assert cmd_simulate(load_config(_cfg(out, payload)), out) == EXIT_OK
        return {
            f: (out / f).read_bytes()
            for f in ("simulate.csv", "simulate_mean.csv", "trace_sweep0.jsonl")
        }

    def test_simulate_uses_explicit_gain_and_backlog(self, tmp_path):
        # An explicit user's gain_to_fc is the mean of its per-frame gain
        # draws and its buffer_bits its backlog at t=0.
        def users(gain, bits):
            return [{**USER, "gain_to_fc": gain, "buffer_bits": bits}] * 3

        strong = self._simulate_bytes(tmp_path, "strong", users(1.0, 1000))
        weak = self._simulate_bytes(tmp_path, "weak", users(50.0, 5))
        assert strong["simulate.csv"] != weak["simulate.csv"]
        assert strong["trace_sweep0.jsonl"] != weak["trace_sweep0.jsonl"]
        first = json.loads(weak["trace_sweep0.jsonl"].splitlines()[1])
        assert first["buffers"] == [5, 5, 5]

    def test_simulate_explicit_users_match_generated_defaults(self, tmp_path):
        # Explicit users carrying the generated defaults (gain mean 1.0,
        # traffic.initial_bits 10, the default prices) replay the
        # generated run byte for byte.
        entry = {"gain_to_fc": 1.0, "buffer_bits": 10, "pay_rate": 0.1, "earn_rate": 10.0}
        explicit = self._simulate_bytes(tmp_path, "explicit", [entry] * 3)
        generated = self._simulate_bytes(tmp_path, "generated", {"count": 3})
        assert explicit == generated

    #: sha256 of each file ``simulate`` writes for ``PINNED_SIMULATE``.
    #: A change that moves simulated draws or decisions on purpose updates
    #: these digests and states the cause.
    SIMULATE_DIGESTS = {
        "simulate.csv": "90bfbf21b6f6b81b7d61cc46fb8dcc79424e58f861140342db9a7953d5c9fe7f",
        "simulate_mean.csv": "0352d919cb6f7b86c13acfaa22348b5dab3d5f3143eebfeee495d15df8167032",
        "trace_sweep0.jsonl": "46c711854bd5108970ba8ca1128c637fd46bb5ecc5ac4af1637a62173177aef1",
        "trace_sweep1.jsonl": "1fe89ba7c3555f4f60e00a764beac23131f865f4e1cdd4684aa3d578d0708ed5",
    }

    #: Five users, a two-point p_h0 sweep, three trials and traffic that
    #: keeps the buffers filling. Traffic shape 4 bounds the idle gaps'
    #: tail, so that over 500 frames every (trial, user, purpose) stream
    #: takes at least 170 draws, past several refills of its block.
    PINNED_SIMULATE = {
        "users": {"count": 5},
        "experiment": {"sweep": "p_h0", "values": [0.7, 0.9], "n_frames": 500},
        "traffic": {"scale": 0.002, "shape": 4.0},
        "trials": 3,
        "seed": 11,
    }

    def test_simulate_bytes_pinned(self, tmp_path):
        cfg = load_config(_cfg(tmp_path, self.PINNED_SIMULATE))
        out = tmp_path / "out"
        out.mkdir()
        assert cmd_simulate(cfg, out) == EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == self.SIMULATE_DIGESTS

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

    @pytest.mark.parametrize("level", ["verbose", "warn"])
    def test_unknown_log_level_exit_code(self, tmp_path, capsys, monkeypatch, level):
        # A COGALLOC_LOG outside the levels the message names (here also
        # logging's own alias WARN) is refused in one line naming them,
        # before the config is read or anything written.
        monkeypatch.setenv("COGALLOC_LOG", level)
        out = tmp_path / "out"
        code = main(["optimize", "--config", str(_cfg(tmp_path, {})), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and level in err and "DEBUG, INFO" in err
        assert not out.exists()

    def test_simulate_refuses_a_buffer_bits_sweep(self, tmp_path, capsys):
        # Generated users start with traffic.initial_bits bits, so the
        # swept value would go unused: the sweep is refused, and nothing
        # is written.
        payload = {
            "experiment": {"sweep": "buffer_bits", "values": [5, 5000], "n_frames": 30},
            "trials": 2,
            "traffic": {"scale": 0.002},
        }
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(_cfg(tmp_path, payload)), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "buffer_bits sweep" in err and "traffic.initial_bits" in err
        assert not any(out.iterdir())

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
            ("buffer_bits", [10.7]),
            ("gamma_db", ["loud"]),
            ("gamma_db", [1e6]),
        ],
    )
    def test_bad_sweep_value_exit_code(self, tmp_path, capsys, sweep, values):
        # Checked up front like the base fields, not in a worker.
        path = _cfg(tmp_path, {"experiment": {"sweep": sweep, "values": values}})
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "experiment.values" in capsys.readouterr().err

    def test_values_without_a_sweep_exit_code(self, tmp_path, capsys):
        path = _cfg(tmp_path, {"experiment": {"values": [0.5, 0.9]}, "users": {"count": 3}})
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "experiment.sweep" in capsys.readouterr().err
        assert not (tmp_path / "optimize.csv").exists()

    @pytest.mark.parametrize(
        "raw,field",
        [
            ({"users": {"count": "5"}}, "users.count"),
            ({"traffic": {"scale": "x"}}, "traffic.scale"),
            ({"grid": {"levels": 0}}, "grid.levels"),
            ({"grid": {"pfa_values": [1.5]}}, "grid.pfa_values"),
            ({"experiment": {"n_frames": 2.5}}, "experiment.n_frames"),
            ({"users": [5]}, "users[0]"),
            ({"users": 5}, "users"),
            ({"experiment": {"sweep": "zeta", "values": 5}}, "experiment.values"),
            ({"system": {"p_st_dbm": "23"}}, "system.p_st_dbm"),
            ({"system": []}, "system"),
            ({"users": {"buffer_bits": 10.7}}, "users.buffer_bits"),
            ({"users": [dict(USER, buffer_bits=10.7)]}, "users[0].buffer_bits"),
            ({"system": {"n_samples": 40.5}}, "system.n_samples"),
            ({"grid": {"pfa_values": []}}, "grid.pfa_values"),
            # dB values whose linear value overflows, or underflows to 0.
            ({"system": {"p_st_dbm": 1e6}}, "system.p_st_dbm"),
            ({"system": {"p_pt_dbm": 1e6}}, "system.p_pt_dbm"),
            ({"system": {"noise_dbm_per_hz": 1e6}}, "system.noise_dbm_per_hz"),
            ({"system": {"gamma_db": 1e6}}, "system.gamma_db"),
            ({"system": {"gamma_db": -1e6}}, "system.gamma_db"),
            ({"probe": {"gamma_db": 1e6}}, "probe.gamma_db"),
            (
                {"system": {"noise_dbm_per_hz": 3000.0, "bandwidth": 1e300}},
                "noise_dbm_per_hz",
            ),
        ],
    )
    def test_bad_field_type_exit_code(self, tmp_path, capsys, raw, field):
        # Rejected while parsing, not by a crash (or a silent truncation)
        # once the run has started.
        path = _cfg(tmp_path, raw)
        for command in ("optimize", "simulate", "probe-hessian"):
            code = main([command, "--config", str(path), "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "users,message",
        [
            ([dict(USER, id=3), dict(USER, id=3)], "users[1].id 3 repeats the id of users[0]"),
            # An entry without an id takes its position.
            ([dict(USER, id=1), USER], "users[1].id 1 repeats the id of users[0]"),
        ],
    )
    def test_repeated_user_ids_exit_code(self, tmp_path, capsys, users, message):
        path = _cfg(tmp_path, {"users": users})
        for command in ("optimize", "compare-oracle", "simulate"):
            code = main([command, "--config", str(path), "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probe,field",
        [
            ({"m_users": "5"}, "probe.m_users"),
            ({"m_users": 0}, "probe.m_users"),
            ({"pfa_grid": [2.0]}, "probe.pfa_grid"),
            ({"r0": 5}, "probe.r0"),
        ],
    )
    def test_bad_probe_field_exit_code(self, tmp_path, capsys, probe, field):
        path = _cfg(tmp_path, {"probe": probe})
        for command in ("probe-hessian", "optimize"):
            code = main([command, "--config", str(path), "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probe", [{"r0": [1.0], "r1": [1.0, 2.0, 3.0]}, {"m_users": 3}]
    )
    def test_probe_rates_not_one_per_user_exit_code(self, tmp_path, capsys, probe):
        # r0 and r1 must hold m_users rates each; no report is written.
        path = _cfg(tmp_path, {"probe": probe})
        out = tmp_path / "out"
        code = main(["probe-hessian", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "probe: r0 and r1 need one rate per user" in capsys.readouterr().err
        assert not (out / "probe_hessian.csv").exists()

    @pytest.mark.parametrize("pfa", [0.00005, 0.0001, 0.9999, 0.99995])
    def test_probe_pfa_within_the_step_of_an_end_exit_code(self, tmp_path, capsys, pfa):
        # The probe differences pfa by +-1e-4, which must stay inside (0, 1).
        path = _cfg(tmp_path, {"probe": {"pfa_grid": [pfa]}})
        code = main(["probe-hessian", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "probe.pfa_grid" in err and "+-0.0001" in err

    @pytest.mark.parametrize("section,key", [row[:2] for row in _SCHEMA])
    def test_wrong_type_named_for_every_schema_key(self, tmp_path, capsys, section, key):
        # An object is the wrong type for every key the schema knows.
        if section is None:
            raw, name = {key: {}}, key
        elif section == "user":
            raw, name = {"users": [dict(USER, **{key: {}})]}, f"users[0].{key}"
        else:
            raw, name = {section: {key: {}}}, f"{section}.{key}"
        code = main(["optimize", "--config", str(_cfg(tmp_path, raw)), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"{name} must be" in capsys.readouterr().err

    def test_emit_effective_config_defaults_pinned(self, tmp_path, capsys):
        # Every default, byte for byte, so none can drift unseen.
        path = _cfg(tmp_path, {})
        args = ["--config", str(path), "--out", str(tmp_path), "--emit-effective-config"]
        assert main(["optimize", *args]) == EXIT_OK
        assert capsys.readouterr().out == EFFECTIVE_DEFAULTS

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
        # Every sweep command writes the same files, byte for byte, from a
        # process pool as in sequence; only compare-oracle's two wall-time
        # columns may differ.
        def masked(path):
            lines = path.read_text().splitlines()
            if path.name == "compare_oracle.csv":
                lines[2:] = [",".join(line.split(",")[:5]) for line in lines[2:]]
            return lines

        payload = dict(SMALL_SWEEP, experiment={**SMALL_SWEEP["experiment"], "n_frames": 20})
        path = _cfg(tmp_path, payload)
        files = {
            "optimize": {"optimize.csv", "optimize_mean.csv"},
            "compare-oracle": {"compare_oracle.csv"},
            "compare-nonjoint": {"compare_nonjoint.csv", "compare_nonjoint_mean.csv"},
            "simulate": {
                "simulate.csv", "simulate_mean.csv", "trace_sweep0.jsonl", "trace_sweep1.jsonl"
            },
        }
        for command, names in files.items():
            outputs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{command}-{jobs}"
                args = [command, "--config", str(path), "--out", str(out), "--jobs", jobs]
                assert main(args) == EXIT_OK
                assert {f.name for f in out.iterdir()} == names
                outputs.append({name: masked(out / name) for name in names})
            assert outputs[0] == outputs[1], command

    def test_simulate_trial_chunks_equivalent_output(self, tmp_path):
        # --jobs splits a point's trials into min(jobs, trials) contiguous
        # chunks, each run in lockstep: one chunk of 10, uneven chunks
        # (3 + 3 + 4) and one trial per chunk write the same bytes.
        payload = {"trials": 10, "seed": 5, "traffic": {"scale": 0.002},
                   "experiment": {"n_frames": 40}}
        path = _cfg(tmp_path, payload)
        outputs = []
        for jobs in ("1", "3", "16"):
            out = tmp_path / f"jobs{jobs}"
            args = ["simulate", "--config", str(path), "--out", str(out), "--jobs", jobs]
            assert main(args) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert set(outputs[0]) == {"simulate.csv", "simulate_mean.csv", "trace_sweep0.jsonl"}
        assert len(outputs[0]["simulate.csv"].splitlines()) == 2 + 10
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "jobs,chunks",
        [
            (1, [(0, 10)]),
            (3, [(0, 3), (3, 6), (6, 10)]),
            (16, [(t, t + 1) for t in range(10)]),
        ],
    )
    def test_trials_split_into_contiguous_chunks(self, tmp_path, monkeypatch, jobs, chunks):
        # Each sweep point's trials, in min(jobs, trials) contiguous chunks.
        import concurrent.futures

        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                work = list(iterable)
                seen.extend((job[2], job[3].start, job[3].stop) for job in work)
                return map(fn, work)

        calls = []

        def chunk(job):
            # (sweep index, trial) per trial of the chunk, with no extra.
            calls.append(job)
            return [((job[2], trial), None) for trial in job[3]]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_sweep_chunk", chunk)
        cfg = load_config(_cfg(tmp_path, {**SMALL_SWEEP, "trials": 10}))
        rows, _ = cli._run_sweep(cfg, jobs, None)
        assert rows == [(si, trial) for si in (0, 1) for trial in range(10)]
        got = [(job[2], job[3].start, job[3].stop) for job in calls]
        assert got == [(si, a, b) for si in (0, 1) for a, b in chunks]
        assert seen == ([] if jobs == 1 else got)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        # Refused in one line before the config is read or anything written.
        out = tmp_path / "out"
        args = ["optimize", "--config", str(_cfg(tmp_path, {})), "--out", str(out)]
        assert main([*args, "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs" in err and jobs in err
        assert not out.exists()

    def test_pool_gets_at_most_one_worker_per_run(self, tmp_path, monkeypatch):
        # A process pool starts all its workers up front, so --jobs 64 on a
        # sweep of 4 runs asks for 4 workers, and a single run gets no pool.
        # The stand-in records the request and maps in this process.
        import concurrent.futures

        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        outputs = []
        for name, payload, jobs in (
            ("seq", SMALL_SWEEP, "1"),
            ("pool", SMALL_SWEEP, "64"),
            ("one", {"trials": 1}, "2"),
        ):
            out = tmp_path / name
            args = ["optimize", "--config", str(_cfg(tmp_path, payload)), "--out", str(out)]
            assert main([*args, "--jobs", jobs]) == EXIT_OK
            outputs.append((out / "optimize.csv").read_bytes())
        assert requested == [4]
        assert outputs[0] == outputs[1]

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


def test_import_leaves_out_the_process_pool(src_env):
    # The pool machinery (concurrent.futures.process, multiprocessing) is
    # a noticeable share of every start, and only --jobs > 1 needs it.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, cogalloc.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
