import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coexcap.cli import TABLE_READS, main
from coexcap.params import laa_class1, wifi_default
from coexcap.sim import DEFAULT_SEED
from coexcap.tables import TABLE_IDS

SIM_CONFIG = """\
[simulation]
mode = dtm
bandwidth_mhz = 40
t_wifi_us = 5000
t_laa_us = 5000
measure_us = 500000

[wifi]
preset = table2-wifi

[laa]
preset = table4-class1
"""


@pytest.fixture
def sim_config_path(tmp_path):
    path = tmp_path / "dtm40.ini"
    path.write_text(SIM_CONFIG)
    return str(path)


@pytest.fixture
def huge_payload_path(tmp_path):
    path = tmp_path / "huge_payload.ini"
    path.write_text("[simulation]\nmode = dfm\npayload_bytes = 1000000000000\n"
                    "measure_us = 1000000\n")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_table_6_csv(tmp_path):
    out = tmp_path / "t6.csv"
    assert run_cli("table", "6", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bandwidth_mhz,c_w_nc_mbps,c_w_nc_mbps_per_mhz"
    values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert values[80] == pytest.approx(377.22, abs=0.01)
    assert len(values) == 4


def test_table_output_idempotent(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("table", "8", "--out", str(a))
    run_cli("table", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_table_8_has_twelve_rows_with_flags(tmp_path):
    out = tmp_path / "t8.csv"
    run_cli("table", "8", "--out", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 13
    narrow = [l for l in lines[1:] if l.startswith("20,")]
    assert len(narrow) == 3
    assert all(l.endswith(",false") for l in narrow)      # no 20 MHz split
    assert all(l.split(",")[5] == "DTM" for l in narrow)


def test_table_9_carries_seed_header(tmp_path):
    out = tmp_path / "t9.csv"
    run_cli("table", "9", "--out", str(out), "--seed", "7")
    text = out.read_text()
    assert text.startswith("# seed = 7\n")


def test_table_json_mirrors_csv(tmp_path):
    out = tmp_path / "t6.json"
    run_cli("table", "6", "--format", "json", "--out", str(out))
    payload = json.loads(out.read_text())
    assert payload["rows"][2]["bandwidth_mhz"] == 80
    assert payload["rows"][2]["c_w_nc_mbps"] == pytest.approx(377.22, abs=0.01)


def test_every_table_declares_the_flags_it_reads():
    assert TABLE_READS.keys() == set(TABLE_IDS)


def test_unsupported_table_id(capsys):
    with pytest.raises(SystemExit):
        run_cli("table", "3")


def test_sweep_grid_cardinality(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--bandwidth", "80", "--class", "1",
                   "--regimes", "coex", "dtm", "dfm", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 9       # 3 ratios x 3 regimes


def test_sweep_flags_infeasible_points(tmp_path):
    out = tmp_path / "sweep40.csv"
    assert run_cli("sweep", "--bandwidth", "40", "--regimes", "dfm",
                   "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    flags = [r.split(",")[-1] for r in rows]
    assert flags == ["false", "true", "false"]   # only the even split fits


def test_usage_curve_includes_reference_point(tmp_path):
    out = tmp_path / "usage.csv"
    run_cli("sweep", "--curve", "usage", "--windows", "60", "5940", "--out", str(out))
    lines = out.read_text().splitlines()
    assert "5940,0.99" in lines
    assert "60,0.5" in lines


def test_window_efficiency_curve(tmp_path):
    out = tmp_path / "eff.csv"
    assert run_cli("sweep", "--curve", "dtm-window-efficiency", "--windows",
                   "5000", "10000", "--bandwidth", "80", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6            # (wifi + laa1 + laa4) x 2 windows
    assert all(0.0 < float(r.split(",")[-1]) <= 1.0 for r in rows)


def test_simulate_from_config(tmp_path, sim_config_path):
    out = tmp_path / "sim.csv"
    trace = tmp_path / "sim.trace"
    assert run_cli("simulate", sim_config_path, "--out", str(out),
                   "--trace", str(trace), "--seed", "9") == 0
    text = out.read_text()
    assert text.startswith("# seed = 9\n# mode = dtm\n")
    assert trace.read_text().count("\tcts\t") > 0


def test_simulate_default_seed_echoed(tmp_path, sim_config_path, monkeypatch):
    monkeypatch.delenv("COEXCAP_SEED", raising=False)
    out = tmp_path / "sim.csv"
    run_cli("simulate", sim_config_path, "--out", str(out))
    assert out.read_text().startswith(f"# seed = {DEFAULT_SEED}\n")


def test_simulate_env_seed_override(tmp_path, sim_config_path, monkeypatch):
    monkeypatch.setenv("COEXCAP_SEED", "4242")
    out = tmp_path / "sim.csv"
    run_cli("simulate", sim_config_path, "--out", str(out))
    assert out.read_text().startswith("# seed = 4242\n")


@pytest.mark.parametrize("argv", [("table", "9"), ("simulate", "CONFIG")], ids=" ".join)
def test_env_seed_must_be_an_integer(capsys, monkeypatch, sim_config_path, argv):
    monkeypatch.setenv("COEXCAP_SEED", "abc")
    assert run_cli(*(sim_config_path if a == "CONFIG" else a for a in argv)) == 1
    assert capsys.readouterr().err == \
        "error: COEXCAP_SEED must be an integer, got 'abc'\n"


def test_simulate_dfm_matches_reference(tmp_path):
    cfg = tmp_path / "dfm160.ini"
    cfg.write_text("[simulation]\nmode = dfm\nbandwidth_mhz = 160\nseed = 2\n")
    out = tmp_path / "out.json"
    assert run_cli("simulate", str(cfg), "--format", "json",
                   "--out", str(out)) == 0
    record = json.loads(out.read_text())["rows"][0]
    assert record["wifi_throughput_mbps"] == pytest.approx(677.96, rel=0.025)
    assert record["seed"] == 2


def test_sweep_payload_flag(tmp_path):
    out = tmp_path / "sweep15k.csv"
    assert run_cli("sweep", "--bandwidth", "80", "--payload", "15000",
                   "--regimes", "nc", "--ratio", "0.5", "--out", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(415.51, abs=0.01)


def test_sweep_rejects_bad_ratio(capsys):
    assert run_cli("sweep", "--bandwidth", "80", "--ratio", "0") == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_reads_inline_comments(tmp_path):
    cfg = tmp_path / "commented.ini"
    cfg.write_text("[simulation]\nmode = dfm            ; dfm | dtm\n"
                   "measure_us = 20000     ; short\n\n"
                   "[wifi]\npreset = table2-wifi  ; or explicit fields\n")
    assert run_cli("simulate", str(cfg), "--out", str(tmp_path / "out.csv")) == 0


def test_simulate_with_explicit_profile_fields(tmp_path):
    def run(name, wifi_section):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text("[simulation]\nmode = dfm\nbandwidth_mhz = 20\nseed = 5\n"
                       f"measure_us = 500000\n\n[wifi]\n{wifi_section}")
        out = tmp_path / f"{name}.json"
        assert run_cli("simulate", str(cfg), "--format", "json",
                       "--out", str(out)) == 0
        return json.loads(out.read_text())["rows"][0]["wifi_throughput_mbps"]

    # the 8 KiB aggregation bound (exponent 0) caps bursts at 15 MPDUs of
    # 500 B, well below what the default exponent packs at the same payload
    capped = run("capped", "ampdu_exp = 0\npayload_bytes = 500\n")
    free = run("free", "payload_bytes = 500\n")
    assert 0 < capped < free


def test_simulate_payload_from_either_section(tmp_path):
    # [simulation] payload_bytes sets a preset's payload; it must not be
    # given together with [wifi] payload_bytes (see test_simulate_rejects_config)
    def run(name, text):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text("[simulation]\nmode = dfm\nseed = 5\nmeasure_us = 200000\n" + text)
        out = tmp_path / f"{name}.json"
        assert run_cli("simulate", str(cfg), "--format", "json",
                       "--out", str(out)) == 0
        return json.loads(out.read_text())["rows"][0]

    with_preset = run("preset", "payload_bytes = 500\n\n[wifi]\npreset = table2-wifi\n")
    assert with_preset == run("fields", "\n[wifi]\npayload_bytes = 500\n")
    assert with_preset != run("default", "")


def test_simulate_reads_utf8_with_or_without_bom(tmp_path, capsys):
    text = "[simulation]\nmode = dfm         ; d\u00e9bit\nmeasure_us = 20000\n"
    outputs = []
    for name, data in (("plain", text.encode("utf-8")),
                       ("bom", text.encode("utf-8-sig")),
                       ("latin1", text.encode("latin-1"))):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_bytes(data)
        out = tmp_path / f"{name}.csv"
        outputs.append((run_cli("simulate", str(cfg), "--out", str(out)),
                        out.read_text() if out.exists() else None))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    # the file is UTF-8 whatever the locale, so a Latin-1 byte is refused
    assert outputs[2] == (1, None)
    assert capsys.readouterr().err.startswith("error: cannot parse config file")


def test_simulate_rejects_unknown_profile_key(tmp_path, capsys):
    cfg = tmp_path / "bad_profile.ini"
    cfg.write_text("[simulation]\nmode = dfm\n\n[wifi]\nwarp_factor = 9\n")
    assert run_cli("simulate", str(cfg)) == 1
    assert "warp_factor" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\nmode = warp\n")
    assert run_cli("simulate", str(bad)) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_config(tmp_path, capsys):
    assert run_cli("simulate", str(tmp_path / "nope.ini")) == 1


def test_simulate_rejects_negative_window(tmp_path, capsys):
    bad = tmp_path / "negative.ini"
    bad.write_text("[simulation]\nmode = dtm\nt_wifi_us = 5000\n"
                   "t_laa_us = -5000\n")
    assert run_cli("simulate", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# A short DTM run: every [simulation] key and every profile field reaches
# the event loop, and a malformed value in any of them costs milliseconds.
FUZZ_SIMULATION = {"mode": "dtm", "bandwidth_mhz": "20", "t_wifi_us": "2000",
                   "t_laa_us": "2000", "warmup_us": "1000", "measure_us": "20000"}
SIMULATION_KEYS = ("mode", "bandwidth_mhz", "payload_bytes", "t_wifi_us", "t_laa_us",
                   "seed", "warmup_us", "measure_us", "beacon_interval_us",
                   "beacon_bytes", "wifi_preset", "laa_preset")
FUZZ_PROFILES = {"wifi": wifi_default(), "laa": laa_class1()}
# keys an earlier profile read: whatever the value, they are rejected as unknown
RETIRED_KEYS = (("wifi", "delimiter_bytes"),)


def fuzz_config(section, key, value):
    simulation = dict(FUZZ_SIMULATION)
    text = ""
    if section == "simulation":
        simulation[key] = value
    else:
        profile = FUZZ_PROFILES[section]
        body = {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}
        body[key] = value
        text = f"\n[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
    return "[simulation]\n" + "".join(
        f"{k} = {v}\n" for k, v in simulation.items()) + text


@pytest.fixture
def deadline():
    """Turn a simulation that never ends into a test failure."""
    def expire(signum, frame):
        # pytest.fail raises past main's error handlers, which catch OSError
        pytest.fail("simulate ran for more than 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("value", ["abc", "1.5", "nan", "inf", "-1", "0"])
@pytest.mark.parametrize("section,key", [("simulation", k) for k in SIMULATION_KEYS]
                         + [(side, f.name) for side, profile in FUZZ_PROFILES.items()
                            for f in dataclasses.fields(profile)] + list(RETIRED_KEYS))
def test_simulate_never_crashes_on_config_value(tmp_path, capsys, deadline,
                                                section, key, value):
    cfg = tmp_path / "fuzz.ini"
    cfg.write_text(fuzz_config(section, key, value))
    status = run_cli("simulate", str(cfg), "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    if (section, key) in RETIRED_KEYS:
        assert status == 1 and f"unknown {section} parameter" in err, err
    if status != 0:
        assert status == 1
        assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("text,named", [
    ("[simulation]\nwarp_factor = 9\n", "warp_factor"),
    ("[simulation]\ncollect_trace = true\n", "collect_trace"),
    ("[simulation]\n\n[wifi]\ndifs_us = 34\n", "difs_us"),
    ("[simulation]\n\n[wifi]\nbeacon_interval_us = 102400\n", "beacon_interval_us"),
    ("[simulation]\n\n[laa]\nmultichannel_cca = type-a2\n", "multichannel_cca"),
    ("[simulation]\n\n[wifi]\npad_symbol_us = 4\n", "pad_symbol_us"),
    ("[simulation]\n\n[wifi]\nba_phy_header_us = 40\n", "ba_phy_header_us"),
    ("[simulation]\n\n[wifi]\ndelimiter_bytes = 8\n", "unknown wifi parameter"),
    ("[simulation]\npayload_bytes = 1500\n\n[wifi]\npayload_bytes = 9000\n",
     "[simulation] payload_bytes or [wifi] payload_bytes"),
    ("[simulation]\nt_wifi_us = 5000\n", "dfm mode reads no t_wifi_us"),
    ("[simulation]\nmode = dfm\nt_laa_us = 5000\n", "dfm mode reads no t_wifi_us or t_laa_us"),
    ("[simulation]\n\n[wifi]\npreset = table2-wifi\nslot_us = 9\n", "one of"),
    ("[simulation]\nlaa_preset = laa-class4\n\n[laa]\npreset = laa-class1\n",
     "one of"),
    ("[simulation]\nmode\n", "cannot parse"),
    ("[simulation]\nmeasure_us = 5%\n", "measure_us"),
    ("[simulation]\nbeacon_interval_us = 0\n", "beacon_interval_us"),
    ("[simulation]\nbeacon_interval_us = 0.0001\n", "beacon_interval_us"),
    ("[simulation]\nmode = dtm\nt_wifi_us = 0\nt_laa_us = 0\n",
     "at least one window must be positive"),
    ("[simulation]\nmode = dtm\nt_wifi_us = 0\nt_laa_us = 0.0004\n",
     "at least one window must be positive"),
    ("[wifi]\npreset = table2-wifi\n", "needs a [simulation] section"),
    # a section it does not read, or a [DEFAULT] key, which would reach every section
    ("[simulation]\nmeasure_us = 20000\n\n[wfi]\ncw_min = 1024\ncw_max = 1024\n",
     "got ['wfi']"),
    ("[Simulation]\nmeasure_us = 20000\n", "got ['Simulation']"),
    ("[DEFAULT]\nmode = dtm\n\n[simulation]\nmeasure_us = 20000\n", "got {'mode': 'dtm'}"),
    # a profile section with fields must give each field that has no default
    ("[simulation]\n\n[laa]\ntxop_shared_us = 5000\n",
     "laa section lacks laa_class, defer_slots, cw_min, cw_max, max_retries, txop_coex_us"),
    ("[simulation]\nmeasure_us = 1e308\n", "measure_us"),
])
def test_simulate_rejects_config(tmp_path, capsys, deadline, text, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run_cli("simulate", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and named in err, err


@pytest.mark.parametrize("argv", [("table", "6"), ("sweep",), ("optimize",)])
@pytest.mark.parametrize("payload", ["0", "-1500"])
def test_nonpositive_payload_rejected(capsys, argv, payload):
    assert run_cli(*argv, "--payload", payload) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["7", "-0.5", "nan"])
def test_optimize_rejects_alpha_outside_unit_interval(capsys, alpha):
    assert run_cli("optimize", "--alpha", alpha) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sweep", "--t-wifi", "nan"),
    ("sweep", "--t-wifi", "inf"),
    ("sweep", "--regimes", "coex", "--t-wifi", "nan"),
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "nan"),
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "inf"),
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "0"),
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "-5"),
    ("sweep", "--curve", "usage", "--windows", "nan"),
    ("sweep", "--curve", "usage", "--windows", "inf"),
    # lengths below the simulator's 1 ns clock
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "5e-324"),
    ("sweep", "--curve", "usage", "--windows", "0.0009"),
    ("sweep", "--curve", "dtm-window-efficiency", "--payload", "1000000000000"),
    # no MPDU fits a Wi-Fi burst: every command that prices one refuses
    ("table", "6", "--payload", "1000000000000"),
    ("table", "8", "--payload", "1000000000000"),
    ("table", "9", "--payload", "1000000000000"),
    ("table", "10", "--payload", "1000000000000"),
    ("sweep", "--regimes", "nc", "dtm", "dfm", "--payload", "1000000000000"),
    ("optimize", "--payload", "1000000000000"),
    ("simulate", "HUGE_PAYLOAD_CONFIG"),
    # a sweep mode refuses the flags it does not read
    ("sweep", "--curve", "dtm-window-efficiency", "--windows", "5000",
     "--bandwidth", "40", "20000", "--ratio", "7", "--regimes", "nc"),
    ("sweep", "--curve", "usage", "--windows", "5940", "--payload", "3000",
     "--class", "4", "--t-wifi", "nan"),
    ("sweep", "--curve", "dtm-window-efficiency", "--bandwidth", "40", "20000"),
    ("sweep", "--curve", "usage", "--bandwidth", "80"),
    ("sweep", "--windows", "5000"),
    # a table refuses the flags it does not read
    ("table", "7", "--payload", "3000"),
    ("table", "1", "--seed", "9", "--payload", "3000"),
    ("table", "1", "--seed", "9"),
    ("table", "6", "--seed", "9"),
    ("table", "7", "--seed", "9"),
    ("table", "8", "--seed", "9"),
    ("optimize", "--ratio", "nan"),
    ("optimize", "--ratio", "0"),
], ids=" ".join)
def test_numeric_flag_rejected(capsys, huge_payload_path, argv):
    assert run_cli(*(huge_payload_path if a == "HUGE_PAYLOAD_CONFIG" else a
                     for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("table", "8", "--bandwidth", "60"),
    ("table", "6", "--ratio", "0.5"),
    ("table", "1", "--class", "4"),
    ("simulate", "CONFIG", "--payload", "3000"),
    ("simulate", "CONFIG", "--payload", "0"),
    ("simulate", "CONFIG", "--bandwidth", "20"),
    ("simulate", "CONFIG", "--ratio", "0.5"),
    ("simulate", "CONFIG", "--class", "4"),
    ("sweep", "--seed", "3"),
    ("optimize", "--seed", "3"),
    ("optimize", "--ratio", "0.25", "0.75"),
    ("optimize", "--bandwidth", "40", "160"),
    ("optimize", "--class", "1", "4"),
], ids=" ".join)
def test_unread_flag_rejected(capsys, sim_config_path, argv):
    argv = [sim_config_path if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Every analytical command with its numeric flags (tables 1 and 7 refuse
# --payload); table 9/10 and simulate run simulations and are left to the
# INI fuzz above.
FUZZ_COMMANDS = (
    [(("table", t), ("--payload",)) for t in ("1", "6", "7", "8")]
    + [(("sweep",), ("--t-wifi", "--ratio", "--payload")),
       (("sweep", "--curve", "usage"), ("--windows",)),
       (("sweep", "--curve", "dtm-window-efficiency"), ("--windows", "--payload")),
       (("optimize",), ("--ratio", "--alpha", "--payload"))])
FUZZ_FLOATS = (float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 5e-324, 1e-9,
               0.5, 1.0, 1e12)
# --payload is an integer flag; argparse itself rejects the other values
FUZZ_INTS = (-1, 0, 1, 10**12)


@st.composite
def cli_argv(draw):
    command, flags = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(command)
    for flag in flags:
        values = FUZZ_INTS if flag == "--payload" else FUZZ_FLOATS
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            # the joined form keeps argparse from reading -inf as a flag
            argv.append(f"{flag}={value!r}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_never_crashes_on_numeric_flag(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if status != 0:
        assert status == 1, argv
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert "nan" not in out.getvalue(), argv


# Free-form INI files: the three sections read, [DEFAULT] and a misspelling,
# a repeated section or key, continuation lines, comments and bare keys, in
# UTF-8 with or without a BOM, Latin-1 or UTF-16.  Every [simulation]
# header starts with a short measurement, so a file the command accepts
# runs for milliseconds.  Repeats, junk and other encodings are drawn less
# often than clean UTF-8, so that most files reach the section rules.
INI_SECTIONS = ("simulation", "wifi", "laa", "DEFAULT", "simulaton")
INI_LINES = ("mode = dfm", "mode = dtm", "t_wifi_us = 2000", "t_laa_us = 2000",
             "bandwidth_mhz = 20", "seed = 7", "payload_bytes = 500", "measure_us = 50",
             "preset = table2-wifi", "laa_preset = laa-class4", "cw_min = 32",
             "txop_shared_us = 5000", "    2000", "; d\u00e9bit", "", "mode")
INI_ENCODINGS = ("utf-8", "utf-8", "utf-8-sig", "utf-8-sig", "latin-1", "utf-16")


@st.composite
def ini_file(draw):
    """(file bytes, whether a section or key in it must be refused)."""
    lines = ["mode = dfm"] if draw(st.integers(0, 9)) == 0 else ["; d\u00e9bit"]
    names = draw(st.lists(st.sampled_from(INI_SECTIONS), max_size=3, unique=True))
    if draw(st.booleans()) and "simulation" not in names:
        names.insert(0, "simulation")
    if names and draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(names)))
    refused = False
    for name in names:
        body = draw(st.lists(st.sampled_from(INI_LINES), max_size=3, unique=True))
        refused |= name == "simulaton" or (name == "DEFAULT"
                                           and any(" = " in line for line in body))
        lines += [f"[{name}]", *(["measure_us = 20000"] if name == "simulation" else []),
                  *body]
    text = "".join(f"{line}\n" for line in lines)
    return text.encode(draw(st.sampled_from(INI_ENCODINGS))), refused


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ini_file())
def test_simulate_never_crashes_on_ini_file(tmp_path, deadline, ini):
    data, refused = ini
    cfg = tmp_path / "fuzz.ini"
    cfg.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["simulate", str(cfg), "--out", str(tmp_path / "out.csv")])
    if status != 0:
        assert status == 1, data
        assert err.getvalue().startswith("error:"), (data, err.getvalue())
        assert err.getvalue().count("\n") == 1, (data, err.getvalue())
    assert status == 1 or not refused, data


@pytest.mark.parametrize("argv", [("optimize", "--ratio", "1e-310"),
                                  ("sweep", "--ratio", "1e-310", "--regimes", "dtm")],
                         ids=" ".join)
def test_subnormal_window_prices_finite(tmp_path, argv):
    # a Wi-Fi window of 1e-310 of the period holds no burst: 0 Mbps, not NaN
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    header, dtm = rows[0], next(r for r in rows if "dtm" in r)
    for column in ("c_w_mbps", "c_l_mbps", "aggregated_mbps"):
        assert math.isfinite(float(dtm[header.index(column)])), (column, dtm)
    assert float(dtm[header.index("c_w_mbps")]) == 0.0


def test_optimize_reports_recommendation(tmp_path):
    out = tmp_path / "opt.csv"
    assert run_cli("optimize", "--bandwidth", "160", "--ratio", "0.5",
                   "--class", "1", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("# recommendation = dfm\n")
    assert "dtm," in text and "dfm," in text


def test_optimize_infeasible_dfm(tmp_path):
    out = tmp_path / "opt40.csv"
    run_cli("optimize", "--bandwidth", "40", "--ratio", "0.25", "--out", str(out))
    text = out.read_text()
    assert text.startswith("# recommendation = dtm\n")
    assert "dfm,0,0,0,false,false" in text


# sha256 over the CSV of every analytical command: tables 1/6/7/8, the full
# sweep grid at two payloads, two optimizer calls and both curves; pins the
# analytical outputs to the byte, so a refactor cannot drift within the
# tolerances the other tests allow
ANALYTICAL_DIGEST = "6b242f3faee7e3e96bff5ea55eb23d2d8118a1d7f0640b821d33277cc86e6449"

ANALYTICAL_COMMANDS = (
    [["table", t] for t in ("1", "6", "7", "8")]
    + [["sweep", "--regimes", "coex", "dtm", "dfm", "nc", "--class", "1", "4",
        "--bandwidth", "20", "40", "80", "160", "--payload", payload]
       for payload in ("1500", "15000")]
    + [["optimize", "--bandwidth", "40", "--ratio", "0.25"],
       ["optimize", "--bandwidth", "160", "--ratio", "0.5"],
       ["sweep", "--curve", "usage"],
       ["sweep", "--curve", "dtm-window-efficiency"]])


def test_analytical_golden_digest(tmp_path):
    digest = hashlib.sha256()
    out = tmp_path / "out.csv"
    for argv in ANALYTICAL_COMMANDS:
        assert run_cli(*argv, "--out", str(out)) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == ANALYTICAL_DIGEST


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SHORT_SIM_CONFIG = """\
[simulation]
mode = dtm
bandwidth_mhz = 40
t_wifi_us = 5000
t_laa_us = 5000
measure_us = 50000
seed = 7
"""

# sha256 of the short run's CSV followed by its trace
SHORT_SIMULATE_DIGEST = "eb3e67ab1aff915fce3fa60c1ac626f1f62038250bc30bf08fa28c426b580690"

# prints whether numpy is loaded after the import, after `table 1` and
# after `simulate`, with both exit statuses in between
FRESH_INTERPRETER = """\
import json, sys
import coexcap.cli
table, config, out, trace = sys.argv[1:]
seen = ["numpy" in sys.modules]
seen.append(coexcap.cli.main(["table", "1", "--out", table]))
seen.append("numpy" in sys.modules)
seen.append(coexcap.cli.main(["simulate", config, "--out", out, "--trace", trace]))
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_only_a_simulation_loads_numpy(tmp_path):
    config = tmp_path / "short.ini"
    config.write_text(SHORT_SIM_CONFIG)
    table, out, trace = (tmp_path / name for name in ("table1.csv", "sim.csv", "sim.trace"))
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, str(table), str(config), str(out), str(trace)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, 0, False, 0, True]
    digest = hashlib.sha256(out.read_bytes() + trace.read_bytes()).hexdigest()
    assert digest == SHORT_SIMULATE_DIGEST
