"""Configuration ingestion, subcommand dispatch, and report emission.

``cogalloc <optimize|compare-oracle|compare-nonjoint|simulate|probe-hessian>
--config run.json [--seed U64] [--jobs N] [--out DIR]``

Configs are strict JSON checked against one table, ``_SCHEMA``, that
gives every key's section, default and rule: unknown keys are rejected,
omitted keys take their defaults, a sweep value must pass the rule of
the field it replaces, and every violated rule is reported at once.
``--emit-effective-config`` prints every key with its value.  All
reports are CSV with a schema-version comment as the first row;
simulation traces are newline-delimited JSON.  Output bytes are a pure
function of (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .economics import SecondaryUser, SystemParams
from .optimizer import (
    ORACLE_MAX_USERS,
    PROBE_STEP_PFA,
    DesignGrid,
    HessianProbeConfig,
    count_negative_utility,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
)
# The CLI runs episodes through ``run_episodes`` alone; ``run_episode``
# stays importable from this module, where perfbench's traced mode looks
# it up by name (perfbench/child.py).
from .simkit import TrafficModel, UserProfile, run_episode, run_episodes  # noqa: F401
from .units import db_to_linear, dbm_to_watts

log = logging.getLogger("cogalloc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE_MISMATCH = 4

_SCHEMA_PREFIX = "cogalloc"
_SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Raised with every violated constraint joined into one message."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value, least: float) -> bool:
    # An integer (not a bool, not a float such as 2.5) >= least.
    return _is_number(value) and isinstance(value, int) and value >= least


def _is_pfa_list(value, margin: float = 0.0) -> bool:
    # None, or an ascending list of distinct numbers in (margin, 1 - margin).
    return value is None or (
        isinstance(value, list)
        and len(value) > 0
        and all(_is_number(p) and margin < p < 1.0 - margin for p in value)
        and value == sorted(set(value))
    )


def _is_db(value) -> bool:
    # A number whose linear value 10^(x/10) is a finite float > 0: it
    # neither overflows nor underflows to 0.
    if not _is_number(value):
        return False
    try:
        return 0.0 < db_to_linear(value) < math.inf
    except OverflowError:
        return False


# (what, rule): the phrase a message quotes, and the check itself.
_NUMBER = ("a number", _is_number)
_DB = ("a number of dB whose linear value 10^(x/10) is a finite float > 0", _is_db)
_POSITIVE = ("a number > 0", lambda v: _is_number(v) and v > 0)
_NON_NEGATIVE = ("a number >= 0", lambda v: _is_number(v) and v >= 0)
_PROBABILITY = ("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1)
_COUNT = ("an integer >= 1", lambda v: _is_int(v, 1))
_NATURAL = ("an integer >= 0", lambda v: _is_int(v, 0))
_COUNT_OR_NULL = ("null or an integer >= 1", lambda v: v is None or _is_int(v, 1))
_LIST_OR_NULL = ("null or a list", lambda v: v is None or isinstance(v, list))
_PFA_LIST = (
    "null or a non-empty ascending list of distinct numbers in (0, 1)",
    _is_pfa_list,
)
_PROBE_PFA_LIST = (
    "null or a non-empty ascending list of distinct numbers in"
    f" ({PROBE_STEP_PFA}, {1.0 - PROBE_STEP_PFA}), as the probe steps pfa"
    f" by +-{PROBE_STEP_PFA}",
    lambda v: _is_pfa_list(v, PROBE_STEP_PFA),
)
# A tuple is the form of the probe's own defaults, met again when an
# effective config is parsed a second time (``--seed``).
_NUMBERS = (
    "a list of numbers",
    lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
)

#: Each sweep and the (section, key) whose value it replaces.
_SWEEPS = {
    "zeta": ("system", "zeta"),
    "p_h0": ("system", "p_h0"),
    "gamma_db": ("system", "gamma_db"),
    "m": ("users", "count"),
    "buffer_bits": ("users", "buffer_bits"),
}
_SWEEP = (f"one of {('none', *_SWEEPS)}", lambda v: v in ("none", *_SWEEPS))

_SECTIONS = ("system", "users", "grid", "traffic", "experiment", "probe")

#: The default of a key every explicit user entry must give.
_REQUIRED = object()

#: (section, key, default, (what, rule)) for every config key.  Section
#: None is the top level; "user" is one entry of an explicit ``users``
#: list, whose missing ``id`` is the entry's position.
_SCHEMA = (
    (None, "seed", 1, _NATURAL),
    (None, "trials", 1, _COUNT),
    ("system", "n_samples", 40, _COUNT),
    ("system", "sample_interval", 1.0 / 6e6, _POSITIVE),
    ("system", "frame_duration", 1e-3, _POSITIVE),
    ("system", "tau2", 10e-6, _POSITIVE),
    ("system", "tau5", 10e-6, _POSITIVE),
    ("system", "tau_r", 5e-6, _POSITIVE),
    ("system", "tau_r_prime", 5e-6, _POSITIVE),
    ("system", "p_st_dbm", 23.0, _DB),
    ("system", "p_pt_dbm", 43.0, _DB),
    ("system", "bandwidth", 15e3, _POSITIVE),
    ("system", "noise_dbm_per_hz", -174.0, _DB),
    ("system", "sense_cost", 1e-4, _POSITIVE),
    ("system", "report_cost", 1e-3, _POSITIVE),
    ("system", "p_h0", 0.8, _PROBABILITY),
    ("system", "zeta", 0.7, _PROBABILITY),
    ("system", "gamma_db", -7.0, _DB),
    # Quoted in the parameter table but used by no expression; accepted
    # and ignored so archival configs stay loadable.
    ("system", "bit_rate_kbps", 250.0, _NUMBER),
    ("users", "count", 5, _COUNT),
    ("users", "gain_mean", 1.0, _POSITIVE),
    ("users", "pay_rate", 0.1, _NON_NEGATIVE),
    ("users", "earn_rate", 10.0, _NON_NEGATIVE),
    ("users", "buffer_bits", 1000, _NATURAL),
    ("user", "id", None, ("an integer", lambda v: _is_int(v, -math.inf))),
    ("user", "gain_to_fc", _REQUIRED, _POSITIVE),
    ("user", "buffer_bits", _REQUIRED, _NATURAL),
    ("user", "pay_rate", _REQUIRED, _NON_NEGATIVE),
    ("user", "earn_rate", _REQUIRED, _NON_NEGATIVE),
    # Null takes the default, and must be null when pfa_values is set.
    ("grid", "levels", 10, ("null or an integer >= 2", lambda v: v is None or _is_int(v, 2))),
    ("grid", "pfa_values", None, _PFA_LIST),
    ("grid", "k_max", None, _COUNT_OR_NULL),
    ("traffic", "shape", 1.0, _POSITIVE),
    ("traffic", "scale", 7.0, _POSITIVE),
    ("traffic", "batch_bits", 10, _NATURAL),
    ("traffic", "accumulation_time", 0.0, _NON_NEGATIVE),
    ("traffic", "initial_bits", 10, _NATURAL),
    ("experiment", "sweep", "none", _SWEEP),
    ("experiment", "values", None, _LIST_OR_NULL),
    ("experiment", "n_frames", 100, _COUNT),
    ("probe", "m_users", 5, _COUNT),
    ("probe", "p_h0", 0.6, _PROBABILITY),
    ("probe", "gamma_db", -7.5, _DB),
    ("probe", "n_samples", 40, _COUNT),
    ("probe", "r0", (7.4, 8.0, 8.2, 0.2, 9.5), _NUMBERS),
    ("probe", "r1", (2.3, 3.5, 2.7, 0.02, 3.3), _NUMBERS),
    ("probe", "pay_times_t", 0.1, _NUMBER),
    ("probe", "pfa_grid", None, _PROBE_PFA_LIST),
)

#: section -> key -> (default, (what, rule)), in schema order.
_ROWS: dict = {}
for _row in _SCHEMA:
    _ROWS.setdefault(_row[0], {})[_row[1]] = _row[2:]


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


def _fields(raw: dict, section: Optional[str], errors: list, name=None) -> dict:
    """``raw`` merged over the section's defaults, each given key checked
    by its rule; messages are labelled ``name`` (default: the section)."""
    name = name or section
    rows = _ROWS[section]
    unknown = sorted(set(raw) - set(rows))
    if unknown:
        errors.append(f"{name or 'top level'}: unknown keys {unknown}")
    for key, (default, (what, ok)) in rows.items():
        label = f"{name}.{key}" if name else key
        if key in raw and not ok(raw[key]):
            errors.append(f"{label} must be {what}, got {raw[key]!r}")
        elif key not in raw and default is _REQUIRED:
            errors.append(f"{label} is required")
    return {key: raw.get(key, default) for key, (default, _) in rows.items()}


def effective_config(raw: dict) -> dict:
    """Apply the schema's defaults to a raw config dict and check every key
    by its rule, rejecting unknown keys.

    The returned dict is complete (every supported key present) and
    reloading it reproduces the same run.

    Raises
    ------
    ConfigError
        Listing every violated rule.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list = []
    eff = _fields({k: v for k, v in raw.items() if k not in _SECTIONS}, None, errors)
    for section in _SECTIONS:
        value = raw.get(section, {})
        if isinstance(value, dict):
            eff[section] = _fields(value, section, errors)
        elif section == "users" and isinstance(value, list) and value:
            # An explicit list is kept as given: its entries take no defaults.
            # An entry without an id takes its position; ids must not repeat.
            seen: dict = {}
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    _fields(entry, "user", errors, name=f"users[{i}]")
                    uid = entry.get("id", i)
                    if not _is_int(uid, -math.inf):
                        continue
                    if uid in seen:
                        errors.append(f"users[{i}].id {uid} repeats the id of users[{seen[uid]}]")
                    else:
                        seen[uid] = i
                else:
                    errors.append(f"users[{i}] must be an object, got {entry!r}")
            eff[section] = value
        else:
            shape = "an object" + (" or a non-empty list of objects" if section == "users" else "")
            errors.append(f"{section} must be {shape}, got {value!r}")

    sweep = eff.get("experiment", {}).get("sweep")
    if sweep in tuple(_SWEEPS):
        section, key = _SWEEPS[sweep]
        values = eff["experiment"]["values"]
        if values is None or values == []:
            errors.append("experiment.values must be a non-empty list for a sweep")
        elif isinstance(values, list):
            # A sweep value must pass the rule of the field it replaces.
            what, ok = _ROWS[section][key][1]
            errors.extend(
                f"experiment.values[{i}] for sweep {sweep!r} must be {what}, got {v!r}"
                for i, v in enumerate(values)
                if not ok(v)
            )
        if section == "users" and isinstance(eff.get("users"), list):
            errors.append(f"sweep {sweep!r} requires generated users, not an explicit list")
    elif sweep == "none" and isinstance(eff["experiment"]["values"], list):
        # Values without a sweep would run one unswept point and ignore them.
        errors.append(
            "experiment.values must be null when experiment.sweep is 'none', got "
            f"{eff['experiment']['values']!r}"
        )

    grid = eff.get("grid")
    if grid is not None and grid["pfa_values"] is not None:
        # The pfa values replace the uniform levels, which would go unused.
        levels = raw["grid"].get("levels")
        if levels is not None:
            errors.append(f"grid.levels must be null when grid.pfa_values is set, got {levels!r}")
        grid["levels"] = None
    elif grid is not None and grid["levels"] is None:
        grid["levels"] = _ROWS["grid"]["levels"][0]

    if errors:
        raise ConfigError("; ".join(errors))
    return eff


def _system_params(fields: dict) -> SystemParams:
    """The ``system`` section as :class:`SystemParams`: powers and noise
    density converted from dBm, ``bit_rate_kbps`` dropped."""
    fields = dict(fields)
    del fields["bit_rate_kbps"]
    noise_dbm = fields.pop("noise_dbm_per_hz") + 10.0 * math.log10(fields["bandwidth"])
    try:
        noise_power = dbm_to_watts(noise_dbm)
    except OverflowError:
        raise ValueError(
            f"noise_dbm_per_hz + 10 log10(bandwidth) = {noise_dbm} dBm"
            " overflows the noise power"
        ) from None
    return SystemParams(
        p_st=dbm_to_watts(fields.pop("p_st_dbm")),
        p_pt=dbm_to_watts(fields.pop("p_pt_dbm")),
        noise_power=noise_power,
        **fields,
    )


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict into a :class:`RunConfig`.

    Raises
    ------
    ConfigError
        Listing every violated rule; or, once every rule holds, the
        frame-budget violation :class:`SystemParams` reports, or probe
        rate lists that do not hold one rate per user.
    """
    eff = effective_config(raw)
    try:
        system = _system_params(eff["system"])
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    users, explicit_users = eff["users"], None
    if isinstance(users, list):
        explicit_users = tuple(
            SecondaryUser(**{"id": i, **entry}) for i, entry in enumerate(users)
        )
        # The generated-users defaults fill the rest; simulate takes each
        # explicit user's gain_to_fc as its gain mean and its
        # buffer_bits as its backlog at t=0 instead.
        users = _fields({"count": len(explicit_users)}, "users", [])
    traffic = dict(eff["traffic"])
    initial_bits = traffic.pop("initial_bits")
    exp = eff["experiment"]
    probe = dict(eff["probe"])
    probe_grid = probe.pop("pfa_grid")
    try:
        probe_cfg = HessianProbeConfig(
            **{**probe, "r0": tuple(probe["r0"]), "r1": tuple(probe["r1"])}
        )
    except ValueError as exc:
        raise ConfigError(f"probe: {exc}") from exc
    return RunConfig(
        system=system,
        users=users,
        explicit_users=explicit_users,
        grid_spec=eff["grid"],
        traffic=TrafficModel(**traffic),
        initial_bits=initial_bits,
        sweep=exp["sweep"],
        sweep_values=(None,) if exp["sweep"] == "none" else tuple(exp["values"]),
        n_frames=exp["n_frames"],
        seed=eff["seed"],
        trials=eff["trials"],
        probe=probe_cfg,
        probe_pfa_grid=tuple(probe_grid) if probe_grid is not None else None,
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
    if spec["pfa_values"] is None:
        return DesignGrid.uniform(spec["k_max"] or m, spec["levels"])
    return DesignGrid(spec["pfa_values"], DesignGrid.uniform(spec["k_max"] or m).k_values)


def _apply_sweep(cfg: RunConfig, value) -> tuple:
    """Resolve one sweep point into (system params, user-spec dict): the
    value replaces its base field in the effective config."""
    if cfg.sweep == "none":
        return cfg.system, cfg.users
    section, key = _SWEEPS[cfg.sweep]
    eff = {**cfg.effective, section: {**cfg.effective[section], key: value}}
    users = cfg.users if cfg.explicit_users is not None else eff["users"]
    return _system_params(eff["system"]), users


def _user_counts(cfg: RunConfig) -> list:
    """Users per instance at each sweep point (an explicit list's spec
    counts its entries)."""
    return [_apply_sweep(cfg, value)[1]["count"] for value in cfg.sweep_values]


def _instance(cfg: RunConfig, si: int, trial: int, system, users: dict) -> tuple:
    """(users, grid) for one (sweep point, trial): the explicit
    list, or users generated with exponential gains split
    deterministically off the master seed."""
    if cfg.explicit_users is not None:
        sus = list(cfg.explicit_users)
    else:
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, trial))
        rng = np.random.Generator(np.random.PCG64(seq))
        count = users["count"]
        gains = -users["gain_mean"] * np.log(1.0 - rng.random(count))
        sus = [
            SecondaryUser(
                id=i,
                gain_to_fc=float(gains[i]),
                buffer_bits=users["buffer_bits"],
                pay_rate=users["pay_rate"],
                earn_rate=users["earn_rate"],
            )
            for i in range(count)
        ]
    return sus, _grid_for(cfg, len(sus))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(out_dir: Path, name: str, header: Sequence[str], rows) -> None:
    """Write ``<name>.csv`` under ``out_dir``, schema tag first."""
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema={_SCHEMA_PREFIX}.{name}.v{_SCHEMA_VERSION}"])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    log.info("wrote %s", path)


def _mean_rows(rows, value_col: int) -> list:
    """(sweep value, mean, standard error, n) of column ``value_col`` per
    sweep value, in first-seen order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row[value_col])
    out = []
    for key, vals in groups.items():
        mean = sum(vals) / len(vals)
        if len(vals) > 1:
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            se = math.sqrt(var / len(vals))
        else:
            se = 0.0
        out.append((key, mean, se, len(vals)))
    return out


def _sweep_chunk(job) -> list:
    # One (sweep point, chunk of trials): per trial, the task's cells
    # behind the row prefix (sweep value or "", trial), and its extra.
    task, cfg, si, trials = job
    value = cfg.sweep_values[si]
    results = task(cfg, si, trials, *_apply_sweep(cfg, value))
    prefix = "" if value is None else value
    return [((prefix, trial, *cells), extra) for trial, (cells, extra) in zip(trials, results)]


def _run_sweep(cfg: RunConfig, jobs: int, task) -> tuple:
    """Run ``task(cfg, sweep index, trials, system, users) -> [(cells,
    extra) per trial]`` on every sweep point's trials, split into
    min(jobs, trials) contiguous chunks of trials, one task each:
    ``--jobs 1`` runs a point's trials in one task, and ``--jobs`` of at
    least ``trials`` one trial per task. The tasks run sequentially or
    in a process pool, and (rows, extras) come back in (sweep index,
    trial) order: map keeps its input order, and a task's results do not
    depend on the trials it runs with, so output never depends on
    ``--jobs`` or on scheduling."""
    chunks = min(jobs, cfg.trials)
    work = [
        (task, cfg, si, range(c * cfg.trials // chunks, (c + 1) * cfg.trials // chunks))
        for si in range(len(cfg.sweep_values))
        for c in range(chunks)
    ]
    # A pool starts all its workers up front, so it gets no more than the work.
    workers = min(jobs, len(work))
    if workers <= 1:
        results = list(map(_sweep_chunk, work))
    else:
        # Imported here: multiprocessing costs start-up time and only a pool uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_chunk, work))
    rows, extras = zip(*(result for chunk in results for result in chunk))
    return list(rows), list(extras)


def _each_trial(task, cfg, si, trials, system, users) -> list:
    # A one-instance task run on each trial of a chunk in turn.
    return [task(cfg, si, trial, system, users) for trial in trials]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _optimize_task(cfg, si, trial, system, users) -> tuple:
    sus, grid = _instance(cfg, si, trial, system, users)
    outcome = joint_optimize(sus, system, grid)
    design = outcome.best_design
    cells = (
        outcome.fc_utility,
        design.pfa_local if design else "",
        design.k_threshold if design else "",
        outcome.best_allocation.n_selected,
        outcome.best_allocation.feasible,
    )
    return cells, outcome.feasible


def cmd_optimize(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint optimization across the sweep x trials; per-run CSV plus a
    mean-aggregated companion."""
    rows, feasible = _run_sweep(cfg, jobs, partial(_each_trial, _optimize_task))
    _write_csv(
        out_dir,
        "optimize",
        ["sweep_value", "trial", "fc_utility", "chosen_pfa", "chosen_k", "n_selected", "feasible"],
        rows,
    )
    _write_csv(
        out_dir,
        "optimize_mean",
        ["sweep_value", "mean_fc_utility", "stderr", "n"],
        _mean_rows(rows, value_col=2),
    )
    return EXIT_OK if any(feasible) else EXIT_INFEASIBLE


def _compare_oracle_task(cfg, si, trial, system, users) -> tuple:
    sus, grid = _instance(cfg, si, trial, system, users)
    joint = joint_optimize(sus, system, grid)
    oracle = exhaustive_oracle(sus, system, grid)
    identical_costs = (
        len({su.pay_rate for su in sus}) == 1 and len({su.earn_rate for su in sus}) == 1
    )
    gap = oracle.fc_utility - joint.fc_utility
    rel_gap = gap / oracle.fc_utility if oracle.fc_utility > 0 else gap
    cells = (joint.fc_utility, oracle.fc_utility, gap, joint.wall_time, oracle.wall_time)
    return cells, identical_costs and abs(rel_gap) > 1e-9


def cmd_compare_oracle(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint vs exhaustive search per instance: utilities, gap, wall times.
    Exits with the mismatch code if an identical-cost instance shows a
    relative utility gap above 1e-9."""
    for count in _user_counts(cfg):
        if count > ORACLE_MAX_USERS:
            raise ConfigError(f"compare-oracle refuses M={count} > {ORACLE_MAX_USERS} users")
    rows, mismatch = _run_sweep(cfg, jobs, partial(_each_trial, _compare_oracle_task))
    _write_csv(
        out_dir,
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
    return EXIT_ORACLE_MISMATCH if any(mismatch) else EXIT_OK


def _compare_nonjoint_task(cfg, si, trial, system, users) -> tuple:
    sus, grid = _instance(cfg, si, trial, system, users)
    joint = joint_optimize(sus, system, grid)
    nj = nonjoint_baseline(sus, system, grid)
    cells = (
        joint.fc_utility,
        nj.fc_utility,
        count_negative_utility(joint),
        count_negative_utility(nj),
    )
    return cells, joint.feasible or nj.feasible


def cmd_compare_nonjoint(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Joint vs the detection-first baseline, with negative-utility counts."""
    rows, feasible = _run_sweep(cfg, jobs, partial(_each_trial, _compare_nonjoint_task))
    _write_csv(
        out_dir,
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
        out_dir,
        "compare_nonjoint_mean",
        ["sweep_value", "mean_joint_utility", "mean_nonjoint_utility", "mean_nonjoint_negative_count", "n"],
        agg,
    )
    return EXIT_OK if any(feasible) else EXIT_INFEASIBLE


def _simulate_task(cfg, si, trials, system, users) -> list:
    # The chunk's episodes in lockstep; trial 0 alone keeps its traces.
    if cfg.explicit_users is not None:
        profiles = [
            UserProfile(
                pay_rate=su.pay_rate,
                earn_rate=su.earn_rate,
                gain_mean=su.gain_to_fc,
                initial_bits=su.buffer_bits,
            )
            for su in cfg.explicit_users
        ]
    else:
        profiles = [
            UserProfile(
                pay_rate=users["pay_rate"],
                earn_rate=users["earn_rate"],
                gain_mean=users["gain_mean"],
                initial_bits=cfg.initial_bits,
            )
        ] * users["count"]
    episodes = run_episodes(
        cfg.n_frames,
        system,
        cfg.traffic,
        rng_seed=cfg.seed + si,
        profiles=profiles,
        trials=trials,
        grid=_grid_for(cfg, len(profiles)),
        traced_trials=(0,),
    )
    results = []
    for stats, traces in episodes:
        mean_delay = (
            float(np.nanmean(np.array(stats.per_su_mean_delay)))
            if any(not math.isnan(d) for d in stats.per_su_mean_delay)
            else math.nan
        )
        cells = (mean_delay, stats.jain, *stats.per_su_mean_delay)
        results.append((cells, [_trace_record(t) for t in traces]))
    return results


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
    if cfg.sweep == "buffer_bits":
        msg = "simulate refuses a buffer_bits sweep: users start with traffic.initial_bits bits"
        raise ConfigError(msg)
    n_users = max(_user_counts(cfg))
    rows, traces = _run_sweep(cfg, jobs, _simulate_task)
    header = [
        "sweep_value",
        "trial",
        "mean_delay",
        "jain_index",
        *(f"mean_delay_su{i}" for i in range(n_users)),
    ]
    # Under an "m" sweep, points with fewer users leave their last cells empty.
    _write_csv(
        out_dir,
        "simulate",
        header,
        [(*row, *[""] * (len(header) - len(row))) for row in rows],
    )
    _write_csv(
        out_dir,
        "simulate_mean",
        ["sweep_value", "mean_delay", "stderr", "n"],
        _mean_rows(rows, value_col=2),
    )
    # Trial 0 of each sweep point keeps its traces; it leads its point's rows.
    for si, records in enumerate(traces[:: cfg.trials]):
        path = out_dir / f"trace_sweep{si}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"schema": f"{_SCHEMA_PREFIX}.trace.v{_SCHEMA_VERSION}"})
                + "\n"
            )
            for record in records:
                fh.write(json.dumps(record) + "\n")
        log.info("wrote %s", path)
    return EXIT_OK


def cmd_probe_hessian(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Bordered-Hessian determinants over the false-alarm grid, plus a
    summary line stating whether any det_H < 0 was found."""
    points = quasiconcavity_probe(cfg.probe, pfa_grid=cfg.probe_pfa_grid)
    rows = [(p.pfa, p.det_h, p.det_ha) for p in points]
    _write_csv(out_dir, "probe_hessian", ["pfa", "det_h", "det_ha"], rows)
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
        p.add_argument("--jobs", type=int, default=1, help="parallel workers (>= 1)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--emit-effective-config",
            action="store_true",
            help="print the fully-defaulted config before running",
        )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"config error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG

    level = os.environ.get("COGALLOC_LOG", "WARNING")
    levels = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    if level.upper() not in levels:
        names = ", ".join(levels)
        print(f"config error: COGALLOC_LOG={level!r} is not one of {names}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper())

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
