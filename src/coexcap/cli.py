"""Command-line interface: reproduction tables, sweeps, simulations, optimizer.

Outputs are deterministic for a given command line, configuration file and
seed, so re-running a command produces byte-identical files.  The default
simulation seed can be overridden with the COEXCAP_SEED environment
variable or the --seed flag.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys

from . import tables
from .errors import CoexcapError, ConfigError
from .params import PROFILE_SECTIONS, load_preset, section_kwargs
from .sharing import best_dma
from .sim import DEFAULT_SEED, SimConfig, run_simulation
from .tables import SweepSpec, scenario_for

SEED_ENV_VAR = "COEXCAP_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _emit(columns, rows, fmt: str, out_path: str | None, header_lines=()):
    if fmt == "csv":
        buf = io.StringIO()
        for line in header_lines:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        text = buf.getvalue()
    else:
        records = [dict(zip(columns, row)) for row in rows]
        payload = {"meta": list(header_lines), "rows": records}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

#: Flags of ``table`` as {parser dest: flag}.  The table parser leaves a
#: flag that is not given out of the parsed arguments, so each table can
#: reject the flags it does not read.
TABLE_FLAGS = {"seed": "--seed", "payload": "--payload"}
#: The flags each table id reads.
TABLE_READS = {1: set(), 6: {"payload"}, 7: set(), 8: {"payload"},
               9: {"seed", "payload"}, 10: {"seed", "payload"}}


def cmd_table(args) -> int:
    reads = TABLE_READS[args.table_id]
    unread = sorted(TABLE_FLAGS[dest]
                    for dest in vars(args).keys() & TABLE_FLAGS.keys() - reads)
    if unread:
        raise ConfigError(f"table {args.table_id} does not read {' '.join(unread)}")
    options = {"payload_bytes": args.payload} if "payload" in args else {}
    header = []
    if "seed" in reads:
        options["seed"] = args.seed if "seed" in args else default_seed()
        header = [f"seed = {options['seed']}"]
    columns, rows = tables.build_table(args.table_id, **options)
    _emit(columns, rows, args.format, args.out, header)
    return 0


#: Flags of ``sweep`` as {parser dest: (flag, default)}.  The sweep parser
#: leaves a flag that is not given out of the parsed arguments, so each mode
#: can reject the flags it does not read.
SWEEP_FLAGS = {
    "bandwidth": ("--bandwidth", [80]),
    "ratio": ("--ratio", [0.25, 0.5, 0.75]),
    "laa_class": ("--class", [1]),
    "payload": ("--payload", 1500),
    "regimes": ("--regimes", ["coex", "dtm", "dfm"]),
    "t_wifi": ("--t-wifi", None),
    "windows": ("--windows", [1000, 2000, 5940, 10000, 20000, 50000]),
}
#: The flags each mode reads: the grid (no --curve) or one curve.
SWEEP_READS = {None: SWEEP_FLAGS.keys() - {"windows"},
               "usage": {"windows"},
               "dtm-window-efficiency": {"windows", "bandwidth", "payload"}}


def cmd_sweep(args) -> int:
    unread = sorted(SWEEP_FLAGS[dest][0]
                    for dest in vars(args).keys() & SWEEP_FLAGS.keys()
                    if dest not in SWEEP_READS[args.curve])
    if unread:
        mode = f"--curve {args.curve}" if args.curve else "without --curve"
        raise ConfigError(f"sweep {mode} does not read {' '.join(unread)}")
    for dest, (_, default) in SWEEP_FLAGS.items():
        setattr(args, dest, getattr(args, dest, default))
    if not all(0.0 < w < math.inf for w in args.windows):
        raise ConfigError("--windows must be finite and positive, got "
                          + " ".join(f"{w:g}" for w in args.windows))
    if args.curve == "usage":
        columns, rows = tables.usage_curve_rows(args.windows)
    elif args.curve == "dtm-window-efficiency":
        if len(args.bandwidth) > 1:
            raise ConfigError(f"--curve {args.curve} prices one --bandwidth, got "
                              + " ".join(map(str, args.bandwidth)))
        columns, rows = tables.window_efficiency_rows(
            args.windows, bandwidth_mhz=args.bandwidth[0], payload_bytes=args.payload)
    else:
        try:
            spec = SweepSpec(bandwidths=tuple(args.bandwidth),
                             ratios=tuple(args.ratio),
                             classes=tuple(args.laa_class),
                             payloads=(args.payload,),
                             regimes=tuple(args.regimes),
                             t_wifi_us=args.t_wifi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        columns, rows = tables.sweep_rows(spec)
    _emit(columns, rows, args.format, args.out)
    return 0


def _sim_config_from_file(path: str, seed_override: int | None,
                          trace: bool) -> SimConfig:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # parser messages span lines; the error report is one line
        raise ConfigError(f"cannot parse config file {path!r}: "
                          + " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not cp.has_section("simulation"):
        raise ConfigError("config file needs a [simulation] section")
    section = dict(cp.items("simulation"))
    kwargs = {"collect_trace": trace}
    try:
        if "payload_bytes" in section and cp.has_option("wifi", "payload_bytes"):
            raise ConfigError("the payload has more than one source; give one of "
                              "[simulation] payload_bytes or [wifi] payload_bytes")
        # each side's profile comes from one source: a preset named in
        # [simulation] or in its own section, or that section's fields
        for side, cls in PROFILE_SECTIONS.items():
            body = dict(cp.items(side)) if cp.has_section(side) else {}
            sources = [p for p in (section.pop(f"{side}_preset", None),
                                   body.pop("preset", None)) if p is not None]
            if len(sources) + bool(body) > 1:
                raise ConfigError(f"the {side} profile has more than one source; give "
                                  f"one of {side}_preset, [{side}] preset or [{side}] fields")
            if sources:
                kwargs[side] = load_preset(sources[0])
            elif body:
                kwargs[side] = cls(**section_kwargs(cls, side, body.items()))
        kwargs.update(section_kwargs(SimConfig, "simulation", section.items()))
        if seed_override is not None:
            kwargs["seed"] = seed_override
        elif "seed" not in kwargs:
            kwargs["seed"] = default_seed()
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulation config: {exc}") from exc


def cmd_simulate(args) -> int:
    config = _sim_config_from_file(args.config, args.seed, args.trace is not None)
    result = run_simulation(config)
    record = result.to_dict()
    columns = list(record)
    _emit(columns, [[record[c] for c in columns]], args.format, args.out,
          header_lines=[f"seed = {config.seed}", f"mode = {config.mode}"])
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.trace))
            if result.trace:
                fh.write("\n")
    return 0


def cmd_optimize(args) -> int:
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha must lie in [0, 1], got {args.alpha:g}")
    if not 0.0 < args.ratio <= 1.0:
        raise ConfigError(f"--ratio must lie in (0, 1], got {args.ratio:g}")
    scenario = scenario_for(args.bandwidth, args.laa_class, args.payload)
    pick = best_dma(args.bandwidth, args.ratio, scenario, alpha=args.alpha)
    columns = ["approach", "c_w_mbps", "c_l_mbps", "aggregated_mbps",
               "recommended", "feasible"]
    rows = [["dtm", round(pick.dtm.c_w_mbps, 2), round(pick.dtm.c_l_mbps, 2),
             round(pick.dtm.aggregated_mbps, 2),
             pick.recommendation == "dtm", True]]
    if pick.dfm is not None:
        rows.append(["dfm", round(pick.dfm.c_w_mbps, 2), round(pick.dfm.c_l_mbps, 2),
                     round(pick.dfm.aggregated_mbps, 2),
                     pick.recommendation == "dfm", True])
    else:
        rows.append(["dfm", 0.0, 0.0, 0.0, False, False])
    header = [f"recommendation = {pick.recommendation}",
              f"alpha = {args.alpha:g}"]
    if pick.tie:
        header.append("tie = true")
    _emit(columns, rows, args.format, args.out, header)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexcap",
        description="Capacity models and MAC simulation for unlicensed-channel sharing")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    def add_output(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_table = sub.add_parser("table", help="emit one of the built-in result tables",
                             argument_default=argparse.SUPPRESS)
    p_table.add_argument("table_id", type=int, choices=tables.TABLE_IDS)
    add_output(p_table)
    p_table.add_argument("--seed", type=int)
    p_table.add_argument("--payload", type=int)
    p_table.set_defaults(func=cmd_table)

    # the sweep flags take their defaults from SWEEP_FLAGS
    p_sweep = sub.add_parser("sweep", help="capacity grid over the sharing design space",
                             argument_default=argparse.SUPPRESS)
    add_output(p_sweep)
    p_sweep.add_argument("--payload", type=int)
    p_sweep.add_argument("--bandwidth", type=int, nargs="+")
    p_sweep.add_argument("--ratio", type=float, nargs="+")
    p_sweep.add_argument("--class", dest="laa_class", type=int, nargs="+", choices=(1, 4))
    p_sweep.add_argument("--regimes", nargs="+", choices=("coex", "dtm", "dfm", "nc"))
    p_sweep.add_argument("--t-wifi", type=float,
                         help="fix the Wi-Fi window (us) instead of splitting 10 ms")
    p_sweep.add_argument("--curve", choices=("usage", "dtm-window-efficiency"),
                         default=None, help="emit a curve instead of the grid")
    p_sweep.add_argument("--windows", type=float, nargs="+",
                         help="window lengths (us) for curve mode")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run one seeded simulation from a config file")
    p_sim.add_argument("config", help="structured text config ([simulation] section)")
    add_output(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trace", default=None,
                       help="also write the frame trace to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="recommend the better sharing approach")
    add_output(p_opt)
    p_opt.add_argument("--payload", type=int, default=1500)
    p_opt.add_argument("--bandwidth", type=int, default=80)
    p_opt.add_argument("--ratio", type=float, default=0.25)
    p_opt.add_argument("--class", dest="laa_class", type=int, choices=(1, 4), default=1)
    p_opt.add_argument("--alpha", type=float, default=0.5)
    p_opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "payload" in args and args.payload <= 0:
            raise ConfigError(f"--payload must be positive, got {args.payload}")
        return args.func(args)
    except CoexcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
