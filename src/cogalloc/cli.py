"""Configuration ingestion, subcommand dispatch, and report emission.

``cogalloc <optimize|compare-oracle|compare-nonjoint|simulate|probe-hessian>
--config run.json [--seed U64] [--jobs N] [--out DIR]``

Configs are strict JSON: unknown keys are rejected, omitted fields fall
back to the shipped defaults, and every violated invariant is reported
at once.  All reports are CSV with a schema-version comment as the first
row; simulation traces are newline-delimited JSON.  Output bytes are a
pure function of (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .economics import SecondaryUser, SystemParams
from .optimizer import (
    DesignGrid,
    HessianProbeConfig,
    count_negative_utility,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
)
from .simkit import TrafficModel, UserProfile, run_episode
from .units import dbm_to_watts

log = logging.getLogger("cogalloc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE_MISMATCH = 4

_SCHEMA_PREFIX = "cogalloc"
_SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Raised with every violated constraint joined into one message."""


_SYSTEM_DEFAULTS = {
    "n_samples": 40,
    "sample_interval": 1.0 / 6e6,
    "frame_duration": 1e-3,
    "tau2": 10e-6,
    "tau5": 10e-6,
    "tau_r": 5e-6,
    "tau_r_prime": 5e-6,
    "p_st_dbm": 23.0,
    "p_pt_dbm": 43.0,
    "bandwidth": 15e3,
    "noise_dbm_per_hz": -174.0,
    "sense_cost": 1e-4,
    "report_cost": 1e-3,
    "p_h0": 0.8,
    "zeta": 0.7,
    "gamma_db": -7.0,
    # Quoted in the parameter table but used by no expression; accepted
    # and ignored so archival configs stay loadable.
    "bit_rate_kbps": 250.0,
}

_USERS_DEFAULTS = {
    "count": 5,
    "gain_mean": 1.0,
    "pay_rate": 0.1,
    "earn_rate": 10.0,
    "buffer_bits": 1000,
}

_GRID_DEFAULTS = {"levels": 10, "pfa_values": None, "k_max": None}

_TRAFFIC_DEFAULTS = {
    "shape": 1.0,
    "scale": 7.0,
    "batch_bits": 10,
    "accumulation_time": 0.0,
    "initial_bits": 10,
}

_EXPERIMENT_DEFAULTS = {"sweep": "none", "values": None, "n_frames": 100}

_TOP_DEFAULTS = {"seed": 1, "trials": 1}

_SWEEP_FIELDS = ("none", "zeta", "p_h0", "gamma_db", "m", "buffer_bits")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run description plus its fully-defaulted source dict."""

    system: SystemParams
    users: dict
    explicit_users: Optional[tuple]
    grid_spec: dict
    traffic: TrafficModel
    initial_bits: int
    sweep: str
    sweep_values: tuple
    n_frames: int
    seed: int
    trials: int
    probe: HessianProbeConfig
    probe_pfa_grid: Optional[tuple]
    effective: dict


def _merge_section(raw: dict, defaults: dict, section: str, errors: list) -> dict:
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        errors.append(f"{section}: unknown keys {unknown}")
    merged = dict(defaults)
    merged.update({k: v for k, v in raw.items() if k in defaults})
    return merged


def effective_config(raw: dict) -> dict:
    """Apply defaults to a raw config dict, rejecting unknown keys.

    The returned dict is complete (every supported key present) and
    reloading it reproduces the same run.
    """
    errors: list = []
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known_top = {"system", "users", "grid", "traffic", "experiment", "probe"} | set(
        _TOP_DEFAULTS
    )
    unknown = sorted(set(raw) - known_top)
    if unknown:
        errors.append(f"top level: unknown keys {unknown}")

    system = _merge_section(raw.get("system", {}), _SYSTEM_DEFAULTS, "system", errors)
    users_raw = raw.get("users", {})
    if isinstance(users_raw, list):
        users = users_raw
        for i, entry in enumerate(users_raw):
            allowed = {"id", "gain_to_fc", "buffer_bits", "pay_rate", "earn_rate"}
            bad = sorted(set(entry) - allowed)
            if bad:
                errors.append(f"users[{i}]: unknown keys {bad}")
    else:
        users = _merge_section(users_raw, _USERS_DEFAULTS, "users", errors)
    grid = _merge_section(raw.get("grid", {}), _GRID_DEFAULTS, "grid", errors)
    traffic = _merge_section(raw.get("traffic", {}), _TRAFFIC_DEFAULTS, "traffic", errors)
    experiment = _merge_section(
        raw.get("experiment", {}), _EXPERIMENT_DEFAULTS, "experiment", errors
    )
    probe_defaults = {
        "m_users": 5,
        "p_h0": 0.6,
        "gamma_db": -7.5,
        "n_samples": 40,
        "r0": [7.4, 8.0, 8.2, 0.2, 9.5],
        "r1": [2.3, 3.5, 2.7, 0.02, 3.3],
        "pay_times_t": 0.1,
        "pfa_grid": None,
    }
    probe = _merge_section(raw.get("probe", {}), probe_defaults, "probe", errors)
    top = {k: raw.get(k, v) for k, v in _TOP_DEFAULTS.items()}

    if errors:
        raise ConfigError("; ".join(errors))
    return {
        "system": system,
        "users": users,
        "grid": grid,
        "traffic": traffic,
        "experiment": experiment,
        "probe": probe,
        **top,
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    # An integer (not a bool, not a float such as 2.5) >= least.
    return _is_number(value) and isinstance(value, int) and value >= least


def _is_pfa_list(value) -> bool:
    return value is None or (
        isinstance(value, list)
        and all(_is_number(p) and 0.0 < p < 1.0 for p in value)
        and value == sorted(set(value))
    )


_NUMBER = ("a number", _is_number)
_PROBABILITY = ("a number in (0, 1)", lambda v: _is_number(v) and 0.0 < v < 1.0)
_NON_NEGATIVE = ("a number >= 0", lambda v: _is_number(v) and v >= 0)
_COUNT = ("an integer >= 1", lambda v: _is_count(v, 1))
_BITS = ("an integer >= 0", lambda v: _is_count(v, 0))

# (section or None for a top-level key, key, (what, rule)) for the fields
# whose types the value classes do not check; generated users only.
_FIELD_RULES = (
    ("users", "count", _COUNT),
    ("users", "gain_mean", ("a number > 0", lambda v: _is_number(v) and v > 0)),
    ("users", "buffer_bits", _NON_NEGATIVE),
    ("users", "pay_rate", _NON_NEGATIVE),
    ("users", "earn_rate", _NON_NEGATIVE),
    ("traffic", "shape", _NUMBER),
    ("traffic", "scale", _NUMBER),
    ("traffic", "accumulation_time", _NUMBER),
    ("traffic", "batch_bits", _BITS),
    ("traffic", "initial_bits", _BITS),
    ("grid", "levels", ("an integer >= 2", lambda v: _is_count(v, 2))),
    ("grid", "k_max", ("null or an integer >= 1", lambda v: v is None or _is_count(v, 1))),
    ("grid", "pfa_values", ("null or ascending distinct numbers in (0, 1)", _is_pfa_list)),
    ("experiment", "n_frames", _COUNT),
    (None, "trials", _COUNT),
    (None, "seed", ("an integer >= 0", lambda v: _is_count(v, 0))),
)

# Each sweep value must pass the rule of the base field it replaces.
_SWEEP_RULES = {
    "zeta": _PROBABILITY,
    "p_h0": _PROBABILITY,
    "gamma_db": _NUMBER,
    "m": _COUNT,
    "buffer_bits": _NON_NEGATIVE,
}


def _field_errors(eff: dict) -> list:
    errors = []
    for section, key, (what, ok) in _FIELD_RULES:
        fields = eff if section is None else eff[section]
        if isinstance(fields, dict) and not ok(fields[key]):
            name = key if section is None else f"{section}.{key}"
            errors.append(f"{name} must be {what}, got {fields[key]!r}")
    return errors


def _sweep_value_errors(sweep: str, values: tuple) -> list:
    rule = _SWEEP_RULES.get(sweep)
    if rule is None:
        return []
    what, ok = rule
    return [
        f"experiment.values[{i}] for sweep {sweep!r} must be {what}, got {v!r}"
        for i, v in enumerate(values)
        if not ok(v)
    ]


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict into a :class:`RunConfig`.

    Raises
    ------
    ConfigError
        Listing every violated invariant.
    """
    eff = effective_config(raw)
    errors: list = _field_errors(eff)

    sys_cfg = dict(eff["system"])
    sys_cfg.pop("bit_rate_kbps")
    p_st = dbm_to_watts(sys_cfg.pop("p_st_dbm"))
    p_pt = dbm_to_watts(sys_cfg.pop("p_pt_dbm"))
    noise_db = sys_cfg.pop("noise_dbm_per_hz")
    bandwidth = sys_cfg["bandwidth"]
    system = None
    try:
        system = SystemParams(
            p_st=p_st,
            p_pt=p_pt,
            noise_power=dbm_to_watts(noise_db + 10.0 * math.log10(bandwidth)),
            **sys_cfg,
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"system: {exc}")

    explicit_users = None
    users = eff["users"]
    if isinstance(users, list):
        try:
            explicit_users = tuple(
                SecondaryUser(
                    id=entry.get("id", i),
                    gain_to_fc=entry["gain_to_fc"],
                    buffer_bits=entry["buffer_bits"],
                    pay_rate=entry["pay_rate"],
                    earn_rate=entry["earn_rate"],
                )
                for i, entry in enumerate(users)
            )
            users = {"count": len(explicit_users)}
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(f"users: {exc}")
            users = {"count": 0}

    traffic = None
    traffic_cfg = eff["traffic"]
    if not any(e.startswith("traffic.") for e in errors):
        try:
            traffic = TrafficModel(
                shape=traffic_cfg["shape"],
                scale=traffic_cfg["scale"],
                batch_bits=traffic_cfg["batch_bits"],
                accumulation_time=traffic_cfg["accumulation_time"],
            )
        except ValueError as exc:
            errors.append(f"traffic: {exc}")
    initial_bits = traffic_cfg["initial_bits"]

    exp = eff["experiment"]
    sweep = exp["sweep"]
    if sweep not in _SWEEP_FIELDS:
        errors.append(f"experiment.sweep must be one of {_SWEEP_FIELDS}, got {sweep!r}")
    values = exp["values"]
    if sweep == "none":
        sweep_values = (None,)
    else:
        if not values:
            errors.append("experiment.values must be a non-empty list for a sweep")
            sweep_values = ()
        else:
            sweep_values = tuple(values)
            errors.extend(_sweep_value_errors(sweep, sweep_values))
    if explicit_users is not None and sweep in ("m", "buffer_bits"):
        errors.append(f"sweep {sweep!r} requires generated users, not an explicit list")

    probe_cfg = eff["probe"]
    probe = HessianProbeConfig(
        m_users=probe_cfg["m_users"],
        p_h0=probe_cfg["p_h0"],
        gamma_db=probe_cfg["gamma_db"],
        n_samples=probe_cfg["n_samples"],
        r0=tuple(probe_cfg["r0"]),
        r1=tuple(probe_cfg["r1"]),
        pay_times_t=probe_cfg["pay_times_t"],
    )
    if probe_cfg["pfa_grid"] is not None and len(probe_cfg["pfa_grid"]) == 0:
        errors.append("probe.pfa_grid must be non-empty when given")
    probe_grid = (
        tuple(probe_cfg["pfa_grid"]) if probe_cfg["pfa_grid"] is not None else None
    )

    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(
        system=system,
        users=users,
        explicit_users=explicit_users,
        grid_spec=eff["grid"],
        traffic=traffic,
        initial_bits=initial_bits,
        sweep=sweep,
        sweep_values=sweep_values,
        n_frames=exp["n_frames"],
        seed=int(eff["seed"]),
        trials=int(eff["trials"]),
        probe=probe,
        probe_pfa_grid=probe_grid,
        effective=eff,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Instance generation and shared plumbing
# ---------------------------------------------------------------------------


def _grid_for(cfg: RunConfig, m: int) -> DesignGrid:
    spec = cfg.grid_spec
    k_max = spec["k_max"] or m
    if spec["pfa_values"]:
        return DesignGrid(
            pfa_values=tuple(spec["pfa_values"]), k_values=tuple(range(1, k_max + 1))
        )
    return DesignGrid(
        pfa_values=tuple(i / spec["levels"] for i in range(1, spec["levels"])),
        k_values=tuple(range(1, k_max + 1)),
    )


def _apply_sweep(cfg: RunConfig, value) -> tuple:
    """Resolve one sweep point into (system params, user-spec dict)."""
    system = cfg.system
    users = dict(cfg.users)
    if cfg.sweep == "zeta":
        system = replace(system, zeta=float(value))
    elif cfg.sweep == "p_h0":
        system = replace(system, p_h0=float(value))
    elif cfg.sweep == "gamma_db":
        system = replace(system, gamma_db=float(value))
    elif cfg.sweep == "m":
        users["count"] = int(value)
    elif cfg.sweep == "buffer_bits":
        users["buffer_bits"] = int(value)
    return system, users


def _instance_users(
    cfg: RunConfig, users: dict, sweep_index: int, trial: int
) -> list:
    """Users for one (sweep point, trial): explicit list, or generated with
    exponential gains split deterministically off the master seed."""
    if cfg.explicit_users is not None:
        return list(cfg.explicit_users)
    seq = np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(sweep_index, trial)
    )
    rng = np.random.Generator(np.random.PCG64(seq))
    count = users["count"]
    gains = -users["gain_mean"] * np.log(1.0 - rng.random(count))
    return [
        SecondaryUser(
            id=i,
            gain_to_fc=float(gains[i]),
            buffer_bits=users["buffer_bits"],
            pay_rate=users["pay_rate"],
            earn_rate=users["earn_rate"],
        )
        for i in range(count)
    ]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, name: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema={_SCHEMA_PREFIX}.{name}.v{_SCHEMA_VERSION}"])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    log.info("wrote %s", path)


def _mean_rows(rows, value_col: int, key_col: int = 0):
    groups: dict = {}
    order = []
    for row in rows:
        key = row[key_col]
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row[value_col])
    out = []
    for key in order:
        vals = groups[key]
        mean = sum(vals) / len(vals)
        if len(vals) > 1:
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            se = math.sqrt(var / len(vals))
        else:
            se = 0.0
        out.append((key, mean, se, len(vals)))
    return out


def _user_count(cfg: RunConfig, users: dict) -> int:
    """Users per instance: the explicit list's length, else ``users["count"]``."""
    if cfg.explicit_users is not None:
        return len(cfg.explicit_users)
    return users["count"]


def _run_sweep(cfg: RunConfig, jobs: int, worker) -> list:
    """Run ``worker`` on every ((sweep index, trial), cfg, sweep value)
    task (sequentially or in a process pool) and return the results
    sorted by task key, so output order never depends on scheduling."""
    tasks = [
        ((si, t), cfg, value)
        for si, value in enumerate(cfg.sweep_values)
        for t in range(cfg.trials)
    ]
    if jobs <= 1:
        results = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, tasks, chunksize=8))
    return sorted(results, key=lambda r: r[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _optimize_task(task) -> tuple:
    (si, trial), cfg, value = task
    system, users = _apply_sweep(cfg, value)
    sus = _instance_users(cfg, users, si, trial)
    outcome = joint_optimize(sus, system.geometry(), system, _grid_for(cfg, len(sus)))
    alloc = outcome.best_allocation
    design = outcome.best_design
    return (
        (si, trial),
        (
            value if value is not None else "",
            trial,
            outcome.fc_utility,
            design.pfa_local if design else "",
            design.k_threshold if design else "",
            alloc.n_selected,
            alloc.feasible,
        ),
        outcome.feasible,
    )


def cmd_optimize(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint optimization across the sweep x trials; per-run CSV plus a
    mean-aggregated companion."""
    results = _run_sweep(cfg, jobs, _optimize_task)
    rows = [r[1] for r in results]
    _write_csv(
        out_dir / "optimize.csv",
        "optimize",
        ["sweep_value", "trial", "fc_utility", "chosen_pfa", "chosen_k", "n_selected", "feasible"],
        rows,
    )
    _write_csv(
        out_dir / "optimize_mean.csv",
        "optimize_mean",
        ["sweep_value", "mean_fc_utility", "stderr", "n"],
        _mean_rows(rows, value_col=2),
    )
    if not any(r[2] for r in results):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _compare_oracle_task(task) -> tuple:
    (si, trial), cfg, value = task
    system, users = _apply_sweep(cfg, value)
    sus = _instance_users(cfg, users, si, trial)
    grid = _grid_for(cfg, len(sus))
    geom = system.geometry()
    joint = joint_optimize(sus, geom, system, grid)
    oracle = exhaustive_oracle(sus, geom, system, grid)
    identical_costs = (
        len({su.pay_rate for su in sus}) == 1 and len({su.earn_rate for su in sus}) == 1
    )
    gap = oracle.fc_utility - joint.fc_utility
    rel_gap = gap / oracle.fc_utility if oracle.fc_utility > 0 else gap
    mismatch = identical_costs and abs(rel_gap) > 1e-9
    return (
        (si, trial),
        (
            value if value is not None else "",
            trial,
            joint.fc_utility,
            oracle.fc_utility,
            gap,
            joint.wall_time,
            oracle.wall_time,
        ),
        mismatch,
    )


def cmd_compare_oracle(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint vs exhaustive search per instance: utilities, gap, wall times.
    Exits with the mismatch code if an identical-cost instance shows a
    relative utility gap above 1e-9."""
    for value in cfg.sweep_values:
        count = _user_count(cfg, _apply_sweep(cfg, value)[1])
        if count > 12:
            raise ConfigError(f"compare-oracle refuses M={count} > 12 users")
    results = _run_sweep(cfg, jobs, _compare_oracle_task)
    rows = [r[1] for r in results]
    _write_csv(
        out_dir / "compare_oracle.csv",
        "compare_oracle",
        [
            "sweep_value",
            "trial",
            "joint_utility",
            "oracle_utility",
            "gap",
            "joint_wall_time",
            "oracle_wall_time",
        ],
        rows,
    )
    if any(r[2] for r in results):
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _compare_nonjoint_task(task) -> tuple:
    (si, trial), cfg, value = task
    system, users = _apply_sweep(cfg, value)
    sus = _instance_users(cfg, users, si, trial)
    grid = _grid_for(cfg, len(sus))
    geom = system.geometry()
    joint = joint_optimize(sus, geom, system, grid)
    nj = nonjoint_baseline(sus, geom, system, grid)
    return (
        (si, trial),
        (
            value if value is not None else "",
            trial,
            joint.fc_utility,
            nj.fc_utility,
            count_negative_utility(joint.best_allocation),
            count_negative_utility(nj),
        ),
        joint.feasible or nj.feasible,
    )


def cmd_compare_nonjoint(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint vs the detection-first baseline, with negative-utility counts."""
    results = _run_sweep(cfg, jobs, _compare_nonjoint_task)
    rows = [r[1] for r in results]
    _write_csv(
        out_dir / "compare_nonjoint.csv",
        "compare_nonjoint",
        [
            "sweep_value",
            "trial",
            "joint_utility",
            "nonjoint_utility",
            "joint_negative_count",
            "nonjoint_negative_count",
        ],
        rows,
    )
    means_nj = {key: mean for key, mean, _, _ in _mean_rows(rows, value_col=3)}
    means_neg = {key: mean for key, mean, _, _ in _mean_rows(rows, value_col=5)}
    agg = [
        (key, mean_joint, means_nj[key], means_neg[key], n)
        for key, mean_joint, _, n in _mean_rows(rows, value_col=2)
    ]
    _write_csv(
        out_dir / "compare_nonjoint_mean.csv",
        "compare_nonjoint_mean",
        ["sweep_value", "mean_joint_utility", "mean_nonjoint_utility", "mean_nonjoint_negative_count", "n"],
        agg,
    )
    if not any(r[2] for r in results):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _simulate_task(task) -> tuple:
    (si, trial), cfg, value = task
    system, users = _apply_sweep(cfg, value)
    if cfg.explicit_users is not None:
        profiles = [
            UserProfile(pay_rate=su.pay_rate, earn_rate=su.earn_rate)
            for su in cfg.explicit_users
        ]
    else:
        profiles = [
            UserProfile(pay_rate=users["pay_rate"], earn_rate=users["earn_rate"])
            for _ in range(users["count"])
        ]
    stats, traces = run_episode(
        cfg.n_frames,
        system,
        system.geometry(),
        cfg.traffic,
        rng_seed=cfg.seed + si,
        profiles=profiles,
        grid=_grid_for(cfg, len(profiles)),
        trial=trial,
        initial_bits=cfg.initial_bits,
        gain_mean=users.get("gain_mean", 1.0),
        keep_traces=trial == 0,
    )
    trace_payload = None
    if trial == 0:
        trace_payload = [_trace_record(t) for t in traces]
    mean_delay = (
        float(np.nanmean(np.array(stats.per_su_mean_delay)))
        if any(not math.isnan(d) for d in stats.per_su_mean_delay)
        else math.nan
    )
    return (
        (si, trial),
        (
            value if value is not None else "",
            trial,
            mean_delay,
            stats.jain,
            *stats.per_su_mean_delay,
        ),
        trace_payload,
    )


def _trace_record(trace) -> dict:
    alloc = trace.allocation
    return {
        "frame": trace.frame_index,
        "pu_active": trace.pu_active,
        "votes": list(trace.local_votes),
        "fc_busy": trace.fc_decision_busy,
        "selected": list(trace.selected_set),
        "times": list(alloc.times) if alloc is not None else [],
        "bits_out": list(trace.bits_out),
        "rate_hypothesis": trace.realized_rate_hypothesis,
        "pfa": trace.chosen_pfa,
        "k": trace.chosen_k,
        "buffers": list(trace.buffers_at_start),
    }


def cmd_simulate(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Multi-frame delay simulation across the sweep; per-episode CSV,
    aggregated CSV, and one trace log per sweep point (trial 0)."""
    n_users = max(
        _user_count(cfg, _apply_sweep(cfg, value)[1]) for value in cfg.sweep_values
    )
    results = _run_sweep(cfg, jobs, _simulate_task)
    rows = [r[1] for r in results]
    header = [
        "sweep_value",
        "trial",
        "mean_delay",
        "jain_index",
        *(f"mean_delay_su{i}" for i in range(n_users)),
    ]
    # Under an "m" sweep, points with fewer users leave their last cells empty.
    _write_csv(
        out_dir / "simulate.csv",
        "simulate",
        header,
        [(*row, *[""] * (len(header) - len(row))) for row in rows],
    )
    _write_csv(
        out_dir / "simulate_mean.csv",
        "simulate_mean",
        ["sweep_value", "mean_delay", "stderr", "n"],
        _mean_rows(rows, value_col=2),
    )
    for (si, trial), _, payload in results:
        if payload is None:
            continue
        path = out_dir / f"trace_sweep{si}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"schema": f"{_SCHEMA_PREFIX}.trace.v{_SCHEMA_VERSION}"})
                + "\n"
            )
            for record in payload:
                fh.write(json.dumps(record) + "\n")
        log.info("wrote %s", path)
    return EXIT_OK


def cmd_probe_hessian(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Bordered-Hessian determinants over the false-alarm grid, plus a
    summary line stating whether any det_H < 0 was found."""
    points = quasiconcavity_probe(cfg.probe, pfa_grid=cfg.probe_pfa_grid)
    rows = [(p.pfa, p.det_h, p.det_ha) for p in points]
    _write_csv(out_dir / "probe_hessian.csv", "probe_hessian", ["pfa", "det_h", "det_ha"], rows)
    negatives = sum(1 for p in points if p.det_h < 0.0)
    print(
        f"det_H < 0 at {negatives} of {len(points)} grid points; "
        f"det_Ha <= 0 everywhere: {all(p.det_ha <= 0.0 for p in points)}"
    )
    return EXIT_OK


_COMMANDS = {
    "optimize": cmd_optimize,
    "compare-oracle": cmd_compare_oracle,
    "compare-nonjoint": cmd_compare_nonjoint,
    "simulate": cmd_simulate,
    "probe-hessian": cmd_probe_hessian,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cogalloc",
        description="Joint sensing design, user selection, and time allocation "
        "for a price-based opportunistic cognitive radio network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--emit-effective-config",
            action="store_true",
            help="print the fully-defaulted config before running",
        )
    args = parser.parse_args(argv)

    logging.basicConfig(level=os.environ.get("COGALLOC_LOG", "WARNING").upper())

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            eff = dict(cfg.effective)
            eff["seed"] = args.seed
            cfg = parse_config(eff)
        if args.emit_effective_config:
            print(json.dumps(cfg.effective, indent=2, sort_keys=True))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
