"""Monte Carlo driver: aggregation, reproducibility, sweeps, CLI."""
import csv
import hashlib
import io
import json
import os
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracles import drawn_bits, load_script, reference_run, reference_sweep, trial_keys, trial_seed

import ghzqdc.cli
from ghzqdc import harness, protocol
from ghzqdc.adversary import NO_ATTACK, AttackModel, AttackVariant, Channel
from ghzqdc.cli import main as cli_main, parse_complex, parse_message
from ghzqdc.ecc import Codec, format_bits
from ghzqdc.harness import (
    RunSpec,
    _inputs,
    detection_rate_reference,
    run,
    sweep_detection_curve,
)
from ghzqdc.protocol import CapacityError, ConfigError, SessionConfig
from ghzqdc.seeds import generator, trial_words


def spec(**overrides) -> RunSpec:
    config = SessionConfig(
        n_ghz=40,
        m_auth_check=4,
        check_fraction_msg=0.25,
    )
    base = dict(config=config, trials=10, seed=0, message_bits=16)
    base.update(overrides)
    return RunSpec(**base)


def test_honest_run_statistics():
    report = run(spec(trials=20))
    assert report.message["delivery_fidelity"] == 1.0
    assert report.auth["error_rate"] == 0.0
    assert report.message["error_rate"] == 0.0
    assert report.verdicts["authenticated"] == 20
    assert report.verdicts["message_delivered"] == 20
    assert report.auth["detection_rate"] == 0.0
    assert len(report.per_trial) == 20


def test_reports_are_reproducible():
    s = spec(trials=8, seed=11)
    a, b = run(s), run(s)
    assert a.to_json(include_timestamp=False) == b.to_json(include_timestamp=False)


def test_different_seed_changes_trials():
    a = run(spec(trials=8, seed=1))
    b = run(spec(trials=8, seed=2))
    assert a.to_json(include_timestamp=False) != b.to_json(include_timestamp=False)


def test_trial_seed_mixing_is_stable():
    a1, b1 = trial_seed(5, 0)
    a2, b2 = trial_seed(5, 0)
    assert a1.generate_state(2).tolist() == a2.generate_state(2).tolist()
    assert b1.generate_state(2).tolist() == b2.generate_state(2).tolist()
    c1, _ = trial_seed(5, 1)
    assert a1.generate_state(2).tolist() != c1.generate_state(2).tolist()


def test_pinned_message_is_used_every_trial():
    report = run(spec(trials=4, message="1010101010101010", message_bits=16))
    assert report.spec["message"] == "1010101010101010"
    assert report.message["delivery_fidelity"] == 1.0


def test_config_errors_raised_before_trials():
    with pytest.raises(ConfigError):
        run(spec(trials=0))
    with pytest.raises(ConfigError, match="seed"):
        run(spec(seed=-5))
    with pytest.raises(ConfigError, match="message_bits must be >= 0 or None"):
        spec(message_bits=-1)
    with pytest.raises(ConfigError, match="message_bits must be >= 0 or None"):
        replace(spec(), message_bits=-1)
    with pytest.raises(ConfigError):
        run(spec(message="10", message_bits=16))
    with pytest.raises(ConfigError):
        # frame + checks exceed survivors
        run(spec(message_bits=64))
    with pytest.raises(CapacityError):
        # a 16-bit frame fits the 36 survivors, but not with 32 check bits
        config = SessionConfig(n_ghz=40, m_auth_check=4, check_fraction_msg=0.9)
        spec(config=config, message_bits=8)


def test_intercept_run_statistics():
    s = spec(
        config=SessionConfig(n_ghz=40, m_auth_check=32),
        attack=AttackModel("intercept", {Channel.TRENT_TO_ALICE}),
        trials=70,
        message_bits=None,
        seed=3,
    )
    report = run(s)
    assert report.auth["check_bits"] == 70 * 32
    assert report.auth["error_rate"] == pytest.approx(0.25, abs=0.03)
    assert report.auth["error_rate_by_alice_key_bit"]["0"] == 0.0
    assert report.analytic["auth_check_error_rate"] == 0.25


def test_detection_reference_values():
    assert detection_rate_reference(1) == pytest.approx(0.25)
    assert detection_rate_reference(2) == pytest.approx(0.4375)
    assert detection_rate_reference(10) == pytest.approx(1 - 0.75**10)


def test_sweep_detection_curve():
    # Each row's reference comes from its own run's analytic block: the
    # closed form under the attack, 0 for an honest run.
    for attack, reference in (
        (AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}), detection_rate_reference),
        (NO_ATTACK, lambda m: 0.0),
    ):
        base = spec(
            config=SessionConfig(n_ghz=6, m_auth_check=2),
            attack=attack,
            trials=800,
            message_bits=None,
            seed=5,
        )
        report = sweep_detection_curve(base, [1, 2, 4])
        assert [row["m"] for row in report.rows] == [1, 2, 4]
        rates = []
        for row in report.rows:
            assert row["analytic_detection_rate"] == pytest.approx(reference(row["m"]))
            assert row["empirical_detection_rate"] == pytest.approx(
                row["analytic_detection_rate"], abs=0.06
            )
            rates.append(row["empirical_detection_rate"])
        # more check bits, more detection
        assert rates == sorted(rates)
        csv_text = report.to_csv()
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == ["m", "trials", "empirical_detection_rate", "analytic_detection_rate"]
        assert len(rows) == 4


def test_report_json_schema_fields():
    report = run(spec(trials=3))
    data = json.loads(report.to_json())
    for key in ("schema_version", "seed", "trials", "spec", "verdicts", "auth",
                "message", "eve", "analytic", "per_trial", "timestamp"):
        assert key in data
    assert data["schema_version"] == 1
    assert data["spec"]["config"]["n_ghz"] == 40
    for hist in data["eve"].values():
        total = sum(hist["probabilities"].values())
        assert total == pytest.approx(1.0) or total == 0.0


def test_report_csv_format():
    report = run(spec(trials=3))
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["section", "key", "value"]
    sections = {r[0] for r in rows[1:]}
    assert {"run", "verdicts", "auth", "message", "analytic"} <= sections


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_json(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(
        [
            "run",
            "--n-ghz", "40",
            "--auth-check-bits", "4",
            "--trials", "3",
            "--message-bits", "8",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["message"]["delivery_fidelity"] == 1.0


def test_cli_run_stdout_csv(capsys):
    code = cli_main(
        ["run", "--n-ghz", "40", "--auth-check-bits", "4", "--trials", "2",
         "--message-bits", "8", "--format", "csv"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("section,key,value")


def test_cli_sweep(capsys):
    code = cli_main(
        ["sweep", "--n-ghz", "6", "--auth-check-bits", "2", "--message-bits", "0",
         "--attack", "entangle-cnot", "--trials", "200", "--m-values", "1,2",
         "--format", "csv", "--seed", "0"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,trials,empirical_detection_rate,analytic_detection_rate"
    assert len(lines) == 3


def test_cli_config_error_exit_code(capsys, tmp_path):
    code = cli_main(["run", "--n-ghz", "4", "--auth-check-bits", "9", "--trials", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # A run spec checks its 64 message bits against the survivors, but a sweep's
    # rows send no message, so the CLI gives it an auth-only base spec: the
    # default --message-bits no longer rejects a sweep with 6 survivors.
    with pytest.raises(CapacityError):
        spec(config=SessionConfig(n_ghz=8, m_auth_check=2), message_bits=64)
    sweep = ["sweep", "--n-ghz", "8", "--auth-check-bits", "2", "--trials", "1"]
    assert cli_main(sweep) == 0
    rows = capsys.readouterr().out
    assert cli_main(sweep + ["--message-bits", "0"]) == 0
    assert capsys.readouterr().out == rows
    # A negative seed is a configuration error too, caught before --out is created.
    out = tmp_path / "r.json"
    for command in ("run", "sweep"):
        code = cli_main([command, "--seed", "-1", "--n-ghz", "40", "--auth-check-bits", "2",
                         "--message-bits", "2", "--trials", "3", "--out", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
    # So is an attack flag that the chosen --attack would ignore.
    for flag, extra in (
        ("--attack-coverage", ["--attack-coverage", "5"]),
        ("--attack-channels", ["--attack-channels", "trent-alice"]),
        ("--alpha", ["--attack-channels", "alice-bob", "--alpha", "3"]),
        ("--beta-p", ["--beta-p", "1"]),
        ("--alpha", ["--attack", "entangle-cnot", "--alpha", "5"]),
        ("--alpha-p", ["--attack", "intercept", "--alpha-p", "0.5"]),
        ("--beta", ["--attack", "entangle-cnot", "--beta", "0,1"]),
    ):
        code = cli_main(["run", "--n-ghz", "20", "--auth-check-bits", "2", "--message-bits", "4",
                         "--trials", "2", *extra, "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()
    # A NaN attack parameter fails the check that names it.
    code = cli_main(["run", "--n-ghz", "20", "--auth-check-bits", "2", "--message-bits", "4",
                     "--trials", "2", "--attack", "entangle-general", "--alpha", "nan",
                     "--out", str(out)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()
    # A malformed flag is a usage error, raised before --out is created.
    out = tmp_path / "r.csv"
    for m_values in ("0,1", "1,x", ","):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--n-ghz", "8", "--m-values", m_values, "--out", str(out)])
        assert exc.value.code == 2
        assert "--m-values" in capsys.readouterr().err
        assert not out.exists()
    # So is a negative or non-numeric message length, an empty message, an
    # unparsable attack parameter or an unknown channel.
    for flag, value in (("--message-bits", "-3"), ("--message-bits", "abc"), ("--message", ""),
                        ("--message", "0x"), ("--alpha", "foo"),
                        ("--attack-channels", "trent-carol")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--n-ghz", "40", "--auth-check-bits", "2", flag, value,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
    # An empty channel list would attack nothing.
    for channels in ("", ","):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--attack", "intercept", "--attack-channels", channels,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert "--attack-channels" in capsys.readouterr().err
        assert not out.exists()


def test_cli_unwritable_out_is_an_error(capsys, tmp_path, monkeypatch):
    """The output path is tried before the first trial runs."""

    def no_trials(*args):
        raise AssertionError("trials ran before --out was opened")

    monkeypatch.setattr("ghzqdc.cli.run", no_trials)
    monkeypatch.setattr("ghzqdc.cli.sweep_detection_curve", no_trials)
    out = tmp_path / "missing" / "r.json"
    for command in ("run", "sweep"):
        code = cli_main(
            [command, "--n-ghz", "40", "--auth-check-bits", "2", "--message-bits", "2",
             "--trials", "2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert not out.exists()


def test_cli_out_is_overwritten(capsys, tmp_path):
    """An existing --out ends up holding only the new report."""
    out = tmp_path / "sweep.csv"
    sweep = ["sweep", "--n-ghz", "24", "--auth-check-bits", "2", "--trials", "2", "--format", "csv"]
    assert cli_main(sweep + ["--m-values", "1,2,3,4,5", "--out", str(out)]) == 0
    assert cli_main(sweep + ["--m-values", "1"]) == 0
    one_row = capsys.readouterr().out
    assert len(out.read_text()) > len(one_row)
    assert cli_main(sweep + ["--m-values", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == one_row.encode("ascii")
    out = tmp_path / "run.json"
    flags = ["run", "--n-ghz", "24", "--auth-check-bits", "2", "--message-bits", "2"]
    for trials in ("40", "2"):
        assert cli_main(flags + ["--trials", trials, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 2
    assert cli_main(flags + ["--trials", "1", "--out", os.devnull]) == 0


def test_cli_failed_run_leaves_out_empty(capsys, tmp_path, monkeypatch):
    """A run that fails after --out is opened leaves no stale report in it."""

    def failing_run(spec):
        raise ValueError("no trials today")

    out = tmp_path / "r.json"
    out.write_text("a previous report\n")
    monkeypatch.setattr("ghzqdc.cli.run", failing_run)
    code = cli_main(["run", "--n-ghz", "24", "--auth-check-bits", "2", "--message-bits", "2",
                     "--trials", "2", "--out", str(out)])
    assert code == 1
    assert "no trials today" in capsys.readouterr().err
    assert out.read_bytes() == b""


def test_cli_run_without_auth_checks_has_no_check_rate_reference(capsys):
    """With --auth-check-bits 0 nothing is checked, so no check rate has a reference."""
    code = cli_main(["run", "--n-ghz", "12", "--auth-check-bits", "0", "--message-bits", "0",
                     "--trials", "4", "--attack", "intercept",
                     "--attack-channels", "trent-alice,trent-bob"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["auth"]["check_bits"] == 0
    assert data["verdicts"]["authenticated"] == 4
    assert data["analytic"] == {"auth_detection_rate": 0.0}
    code = cli_main(["run", "--n-ghz", "12", "--auth-check-bits", "0", "--message-bits", "0",
                     "--trials", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["analytic"] == {"msg_check_error_rate": 0.0, "auth_detection_rate": 0.0}


def test_cli_attack_flags(capsys):
    code = cli_main(
        ["run", "--n-ghz", "24", "--auth-check-bits", "8", "--trials", "4",
         "--message-bits", "0", "--attack", "intercept",
         "--attack-channels", "trent-alice,trent-bob", "--seed", "2"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["attack"]["variant"] == "intercept"
    assert data["spec"]["attack"]["channels"] == ["trent-alice", "trent-bob"]


def test_cli_general_attack_complex_flags(capsys):
    code = cli_main(
        ["run", "--protocol", "qdc2", "--n-ghz", "32", "--auth-check-bits", "4",
         "--trials", "30", "--message-bits", "8", "--attack", "entangle-general",
         "--alpha", "0.7071067811865476,0", "--beta", "0.7071067811865476,0",
         "--alpha-p", "0.7071067811865476,0", "--beta-p=-0.7071067811865476,0",
         "--threshold-msg", "1.0", "--seed", "4"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["attack"]["channels"] == ["alice-trent"]
    assert data["message"]["error_rate"] == pytest.approx(0.5, abs=0.2)


def test_cli_ecc_and_coverage_flags(capsys):
    code = cli_main(
        ["run", "--n-ghz", "160", "--auth-check-bits", "8", "--trials", "3",
         "--message-bits", "16", "--ecc", "rep5", "--msg-check-fraction", "0.1",
         "--attack", "intercept", "--attack-channels", "alice-bob",
         "--attack-coverage", "0.1", "--threshold-msg", "1.0", "--seed", "9"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["config"]["codec"] == "rep5"
    assert data["spec"]["attack"]["coverage"] == 0.1
    assert data["analytic"]["msg_check_error_rate"] == pytest.approx(0.05)


def test_cli_parse_helpers():
    assert parse_complex("0.5,-0.25") == complex(0.5, -0.25)
    assert parse_complex("1") == complex(1, 0)
    assert parse_message("1010") == "1010"
    assert parse_message("0xff") == "11111111"
    assert parse_message("a5") == "10100101"
    with pytest.raises(Exception):
        parse_message("zz")


def test_cli_entry_exit_codes(capsys, tmp_path, monkeypatch):
    """`entry`, the console-script target, exits with `main`'s status for the process argv."""
    flags = ["--auth-check-bits", "2", "--message-bits", "2", "--trials", "2"]
    for argv, status in (
        (["run", "--n-ghz", "24", *flags], 0),
        (["sweep", "--n-ghz", "24", "--m-values", "1,2", *flags], 0),
        (["run", "--n-ghz", "0", *flags], 1),
    ):
        out = tmp_path / f"{argv[0]}-{argv[2]}.json"
        monkeypatch.setattr(sys, "argv", ["ghzqdc", *argv, "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            ghzqdc.cli.entry()
        assert exc.value.code == status
        if status:
            assert "error:" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert json.loads(out.read_text())["trials"] == 2


CHANNEL_NAMES = [c.value for c in Channel]


@st.composite
def run_argvs(draw):
    """A small `run` command line; some draws are invalid on purpose. No message,
    no codec and no channel list are drawn more often, so that most draws fit."""
    argv = [
        "run",
        "--protocol", draw(st.sampled_from(["qdc1", "qdc2"])),
        "--attack", draw(st.sampled_from([v.value for v in AttackVariant])),
        "--n-ghz", str(draw(st.integers(5, 24))),
        "--auth-check-bits", str(draw(st.integers(0, 4))),
        "--message-bits", str(draw(st.just(0) | st.integers(0, 8))),
        "--ecc", draw(st.just("none") | st.sampled_from(["hamming74", "rep3"])),
        "--threshold-auth", draw(st.sampled_from(["0", "0.25", "1"])),
        "--threshold-msg", draw(st.sampled_from(["0", "0.25", "1"])),
        "--trials", str(draw(st.integers(1, 4))),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    return argv + _attack_flags(draw)


def _attack_flags(draw) -> list[str]:
    """A drawn --attack-channels list and --attack-coverage, each often left out."""
    flags = []
    channels = draw(st.just([]) | st.lists(st.sampled_from(CHANNEL_NAMES), unique=True, max_size=4))
    if channels:
        flags += ["--attack-channels", ",".join(channels)]
    coverage = draw(st.sampled_from([None, "0", "0.5", "1"]))
    if coverage is not None:
        flags += ["--attack-coverage", coverage]
    return flags


def _cli_run(argv, out) -> tuple[int, str]:
    """(exit status, stderr) of `main` on `argv` writing to `out`."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            status = cli_main([*argv, "--out", str(out)])
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=run_argvs())
def test_cli_run_argv_gives_a_consistent_report_or_an_error(tmp_path, argv):
    """Every drawn `run` command line either writes a self-consistent report
    that a rerun reproduces, or fails with an error line and no output file."""
    out, again = tmp_path / "r.json", tmp_path / "again.json"
    for path in (out, again):
        path.unlink(missing_ok=True)
    status, err = _cli_run(argv, out)
    if status != 0:
        assert status in (1, 2), err
        assert "error:" in err and (status == 1 or "usage:" in err), err
        assert not out.exists()
        return

    text = out.read_text()
    report = json.loads(text)
    trials, verdicts, auth, msg = (report[k] for k in ("trials", "verdicts", "auth", "message"))
    per_trial = report["per_trial"]

    def flag(name):
        return argv[argv.index(name) + 1] if name in argv else None

    assert trials == int(flag("--trials")) == len(per_trial)
    assert verdicts["authenticated"] + verdicts["auth_aborted"] == trials
    seen = Counter(v for t in per_trial for v in (t["auth_verdict"], t["msg_verdict"]) if v)
    assert seen == {v: count for v, count in verdicts.items() if count}
    sent = verdicts["authenticated"] if msg["attempted"] else 0
    assert verdicts["message_delivered"] + verdicts["message_discarded"] == sent
    assert msg["delivered"] == verdicts["message_delivered"]

    def ratio(count, total):
        return count / total if total else 0.0

    assert auth["check_bits"] == sum(t["auth_checked"] for t in per_trial)
    assert auth["errors"] == sum(t["auth_errors"] for t in per_trial)
    assert msg["check_bits"] == sum(t["msg_checked"] for t in per_trial)
    assert msg["errors"] == sum(t["msg_errors"] for t in per_trial)
    delivered_ok = sum(t["delivered_ok"] is True for t in per_trial)
    rates = [
        (auth["error_rate"], ratio(auth["errors"], auth["check_bits"])),
        (auth["detection_rate"], ratio(verdicts["auth_aborted"], trials)),
        (msg["error_rate"], ratio(msg["errors"], msg["check_bits"])),
        (msg["delivery_fidelity"], ratio(delivered_ok, msg["delivered"])),
    ]
    for hist in report["eve"].values():
        total = sum(hist["counts"].values())
        rates += [(hist["probabilities"][k], ratio(c, total)) for k, c in hist["counts"].items()]
    for rate, want in rates:
        assert rate == want and 0.0 <= rate <= 1.0
    for owner in ("alice", "bob"):
        by_bit = list(auth[f"error_rate_by_{owner}_key_bit"].values())
        assert all(0.0 <= r <= 1.0 for r in by_bit)
        # The total is the two classes' check-weighted mean; an empty class reads 0.
        assert min(by_bit) - 1e-12 <= auth["error_rate"] <= max(by_bit) + 1e-12
        assert (auth["errors"] == 0) == (max(by_bit) == 0.0)
    if flag("--attack") == "none" or flag("--attack-coverage") == "0":
        assert auth["errors"] == msg["errors"] == 0

    assert _cli_run(argv, again)[0] == 0

    def strip(t):
        return [line for line in t.splitlines() if '"timestamp"' not in line]

    assert strip(again.read_text()) == strip(text)


@st.composite
def sweep_argvs(draw):
    """A small `sweep` command line; some draws are invalid on purpose. An m
    of 0, a usage error, is drawn rarely, so that most draws fit."""
    m_values = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6] * 3 + [0]), min_size=1, max_size=3))
    argv = [
        "sweep",
        "--protocol", draw(st.sampled_from(["qdc1", "qdc2"])),
        "--attack", draw(st.sampled_from([v.value for v in AttackVariant])),
        "--n-ghz", str(draw(st.integers(5, 24))),
        "--auth-check-bits", str(draw(st.integers(0, 4))),
        "--m-values", ",".join(map(str, m_values)),
        "--threshold-auth", draw(st.sampled_from(["0", "0.25", "1"])),
        "--trials", str(draw(st.integers(1, 4))),
        "--seed", str(draw(st.integers(0, 3))),
        "--format", draw(st.sampled_from(["csv", "json"])),
    ]
    return argv + _attack_flags(draw)


def _sweep_rows(text: str, fmt: str) -> list[tuple]:
    """(m, trials, empirical rate, analytic rate or None) of each row of a sweep report."""
    if fmt == "json":
        keys = ("m", "trials", "empirical_detection_rate", "analytic_detection_rate")
        return [tuple(row[k] for k in keys) for row in json.loads(text)["rows"]]
    _, *rows = csv.reader(io.StringIO(text))
    return [(int(m), int(t), float(e), float(a) if a else None) for m, t, e, a in rows]


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=sweep_argvs())
@example(argv=["sweep", "--n-ghz", "8", "--m-values", "2,0", "--trials", "2"])  # a usage error
def test_cli_sweep_argv_gives_a_consistent_report_or_an_error(tmp_path, argv):
    """Every drawn `sweep` command line either writes one row per drawn m
    that a rerun reproduces byte for byte, or fails with an error line and
    no output file."""
    out, again = tmp_path / "s.out", tmp_path / "again.out"
    for path in (out, again):
        path.unlink(missing_ok=True)
    status, err = _cli_run(argv, out)
    if status != 0:
        assert status in (1, 2), err
        assert "error:" in err and (status == 1 or "usage:" in err), err
        assert not out.exists()
        return

    def flag(name):
        return argv[argv.index(name) + 1] if name in argv else None

    text = out.read_text()
    rows = _sweep_rows(text, flag("--format"))
    trials = int(flag("--trials"))
    assert [row[0] for row in rows] == [int(m) for m in flag("--m-values").split(",")]
    quiet = flag("--attack") == "none" or flag("--attack-coverage") == "0"
    by_m = {}
    for row in rows:
        m, row_trials, empirical, analytic = row
        assert row_trials == trials
        assert empirical in [k / trials for k in range(trials + 1)]
        assert analytic is None or 0.0 <= analytic <= 1.0
        assert by_m.setdefault(m, row) == row
        if quiet:
            assert empirical == 0.0

    assert _cli_run(argv, again)[0] == 0
    assert again.read_bytes() == out.read_bytes()


def test_codec_warning_only_when_a_used_channel_is_attacked(capsys):
    base = ["run", "--attack", "entangle-cnot", "--ecc", "rep3", "--n-ghz", "40",
            "--auth-check-bits", "4", "--message-bits", "4", "--trials", "8",
            "--threshold-auth", "1.0", "--threshold-msg", "1.0", "--seed", "1"]
    # qdc1 never sends on alice-trent: the attack cannot touch the message
    assert cli_main([*base, "--attack-channels", "alice-trent"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["message"]["error_rate"] == 0.0
    # an attack on a distribution channel randomises the message bits too
    assert cli_main([*base, "--attack-channels", "trent-alice"]) == 0
    captured = capsys.readouterr()
    assert "expected raw error rate of 0.50" in captured.err
    assert json.loads(captured.out)["message"]["error_rate"] > 0.25
    # At half coverage the expected rate halves: rep3 corrects 0.25, hamming74 does not.
    half = [*base, "--attack-channels", "trent-alice", "--attack-coverage", "0.5"]
    assert cli_main(half) == 0
    assert capsys.readouterr().err == ""
    assert cli_main([*half, "--ecc", "hamming74"]) == 0
    assert "expected raw error rate of 0.25" in capsys.readouterr().err


GOLDEN = load_script("scripts/pin_golden_reports.py")


@pytest.mark.parametrize("name", sorted(GOLDEN.CONFIGS))
def test_golden_report(name):
    """Reports are byte-stable across versions; refresh the fixture with
    scripts/pin_golden_reports.py --write after an intentional contract change."""
    expected = json.loads(GOLDEN.FIXTURE.read_text(encoding="ascii"))
    assert GOLDEN.report_digest(GOLDEN.CONFIGS[name]) == expected[name]


def test_trial_draws_known_answer():
    """Identities, keys and random messages of trials 0-49 at seed 0, pinned by
    digest, drawn trial by trial; the harness draws a block's at once to the same bits."""
    digest = hashlib.sha256()
    keys_words, _, _ = trial_words(0, 0, 50)
    block_keys, block_messages, _ = _inputs(spec(config=SessionConfig(128, 16), message_bits=40),
                                            0, 50, None)
    for words, block_key, block_message in zip(keys_words, block_keys, block_messages):
        rng = generator(words)
        drawn = [drawn_bits(rng, 128), drawn_bits(rng, 128), drawn_bits(rng, 40)]
        keys = trial_keys(generator(words), 128)
        for bits in drawn + [k.bits for k in keys]:
            digest.update(format_bits(bits).encode("ascii") + b"\n")
        assert [format_bits(b) for b in block_key] == [format_bits(k.bits) for k in keys]
        assert format_bits(block_message) == format_bits(drawn[2])
    assert digest.hexdigest() == "c8d23db63fe475afc942c4da7a0a8606dfb8a3b1d5df0b1b2b943831fdab84eb"


@pytest.mark.parametrize("protocol", ["qdc1", "qdc2"])
def test_attack_comparison_script(protocol, capsys):
    """scripts/run_attack_comparison.py prints one row per attack model; the
    general attack lands on the protocol's own message channel."""
    module = load_script("scripts/run_attack_comparison.py")
    module.main(["--protocol", protocol, "--trials", "2"])
    lines = capsys.readouterr().out.splitlines()
    names = ["none", "intercept (auth)", "entangle-cnot (auth)", "entangle-general (msg)"]
    assert len(lines) == 2 + len(names)
    rows = {line[:24].strip(): [float(v) for v in line[24:].split()] for line in lines[2:]}
    assert list(rows) == names
    assert all(len(v) == 4 and all(0.0 <= x <= 1.0 for x in v) for v in rows.values())
    assert rows["none"] == [0.0, 0.0, 0.0, 1.0]
    assert rows["entangle-general (msg)"][2] > 0.0  # message error rate


# ---------------------------------------------------------------------------
# Trial-major engine against the trial-by-trial reference


_ORDERS = [None, ("bob", "trent", "eve"), ("eve", "trent", "bob"), ("trent", "eve", "bob")]


@st.composite
def run_specs(draw):
    n = draw(st.integers(12, 28))
    config = SessionConfig(
        n_ghz=n,
        m_auth_check=draw(st.integers(0, 5)),
        check_fraction_msg=draw(st.sampled_from([0.0, 0.1, 0.25])),
        error_threshold_auth=draw(st.sampled_from([0.0, 0.25, 1.0])),
        error_threshold_msg=draw(st.sampled_from([0.0, 0.3, 1.0])),
        codec=Codec(draw(st.sampled_from(["none", "rep3", "hamming74"]))),
        protocol_variant=draw(st.sampled_from(["qdc1", "qdc2"])),
        measure_order=draw(st.sampled_from(_ORDERS)),
    )
    attack = AttackModel(
        variant=draw(st.sampled_from(list(AttackVariant))),
        channels=frozenset(draw(st.sets(st.sampled_from(list(Channel))))),
        coverage=draw(st.sampled_from([1.0, 0.6, 0.3])),
    )
    message_bits = draw(st.sampled_from([None, 1, 2, 4]))
    try:
        return RunSpec(config=config, attack=attack, trials=draw(st.integers(1, 7)),
                       seed=draw(st.integers(0, 2**16)), message_bits=message_bits)
    except ConfigError:  # frame plus checks exceed the survivors
        return RunSpec(config=config, attack=attack, trials=3, seed=1, message_bits=None)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(spec=run_specs(), row_cap=st.sampled_from([1, 13, 30, 64, harness.ROW_CAP]))
@example(  # chunks of two trials in which every trial aborts
    spec=RunSpec(
        config=SessionConfig(n_ghz=24, m_auth_check=6),
        attack=AttackModel("intercept", {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB}),
        trials=4, seed=2, message_bits=4,
    ),
    row_cap=48,
)
@example(  # chunks of 3 trials, each full one with all three verdicts, the last one partial
    spec=RunSpec(
        config=SessionConfig(n_ghz=20, m_auth_check=4, error_threshold_msg=0.3),
        attack=AttackModel("intercept", {Channel.TRENT_TO_ALICE}, coverage=0.3),
        trials=8, seed=54, message_bits=2,
    ),
    row_cap=60,
)
def test_chunked_run_matches_trial_by_trial_reference(spec, row_cap):
    with mock.patch.object(harness, "ROW_CAP", row_cap):
        got = run(spec).to_json(include_timestamp=False)
    assert got == reference_run(spec).to_json(include_timestamp=False)


def test_chunks_stay_within_row_cap(monkeypatch):
    rows = []
    auth_phase = protocol.auth_phase

    def recording_auth_phase(config, attack, chunk):
        rows.append(len(chunk.words) * config.n_ghz)
        return auth_phase(config, attack, chunk)

    monkeypatch.setattr(protocol, "auth_phase", recording_auth_phase)
    monkeypatch.setattr(harness, "ROW_CAP", 512)
    base = spec(config=SessionConfig(n_ghz=128, m_auth_check=16), trials=20, message_bits=40)
    run(base)
    assert len(rows) == 5
    assert sum(rows) == 20 * 128
    assert max(rows) <= harness.ROW_CAP
    rows.clear()  # a sweep's rows of 113, 128 and 152 triples, in blocks of four trials
    sweep_detection_curve(base, [1, 16, 40])
    assert sum(rows) == 20 * (113 + 128 + 152)
    assert max(rows) <= harness.ROW_CAP


# ---------------------------------------------------------------------------
# Trial-block-major sweep against one run per m


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    base=run_specs(),
    m_values=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    row_cap=st.sampled_from([1, 13, 30, 64, harness.ROW_CAP]),
)
@example(  # rows of 125, 128 and 132 triples: only the widest row's key has a second block
    base=RunSpec(
        config=SessionConfig(n_ghz=126, m_auth_check=2, error_threshold_auth=0.3),
        attack=AttackModel("intercept", {Channel.TRENT_TO_ALICE, Channel.ALICE_TO_BOB},
                                       coverage=0.5),
        trials=12, seed=27, message_bits=8,
    ),
    m_values=[8, 1, 4, 4],
    row_cap=512,
)
def test_sweep_matches_one_run_per_m(base, m_values, row_cap):
    with mock.patch.object(harness, "ROW_CAP", row_cap):
        got = sweep_detection_curve(base, m_values)
    want = reference_sweep(base, m_values)
    assert got.to_json() == want.to_json()
    assert got.to_csv() == want.to_csv()


def test_sweep_derives_each_trials_keys_once(monkeypatch):
    calls = []
    derive_key = harness.derive_key

    def counting_derive_key(*args, **kwargs):
        calls.append(kwargs["needed"])
        return derive_key(*args, **kwargs)

    monkeypatch.setattr(harness, "derive_key", counting_derive_key)
    base = spec(config=SessionConfig(n_ghz=8, m_auth_check=2),
                attack=AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}), trials=7,
                message_bits=None)
    # Alice's and Bob's key per trial, each long enough for the widest row:
    # n + 1 = 9 triples in the sweep, n in a run.
    for drive, needed in ((lambda: sweep_detection_curve(base, [1, 3, 2]), 9),
                          (lambda: run(base), 8)):
        calls.clear()
        drive()
        assert calls == [needed] * 14


def test_sweep_skips_the_message_phase(monkeypatch):
    """A sweep row reports only the authentication phase, so none of its
    trials plans a message, though the base spec sends one."""
    planned = []  # the trials each call plans, one row of its plan per trial
    plan = protocol.plan_message_positions

    def counting_plan(*args):
        result = plan(*args)
        planned.append(len(result.positions))
        return result

    monkeypatch.setattr(protocol, "plan_message_positions", counting_plan)
    base = spec(config=SessionConfig(n_ghz=24, m_auth_check=2), trials=5, message_bits=8)
    sweep_detection_curve(base, [1, 2, 4])
    assert planned == []
    run(base)  # every honest trial authenticates and plans its message
    assert sum(planned) == 5


def test_perfbench_tracer_wraps_every_call_site(capsys):
    """The benchmark's tracer rebinds library names by string; each must still exist."""
    tracing = load_script("perfbench/tracing.py")
    original_run = harness.run
    tracer = tracing.Tracer()
    try:
        tracer.install(ghzqdc)
        common = ["--n-ghz", "24", "--auth-check-bits", "2", "--trials", "2", "--seed", "1"]
        assert ghzqdc.cli.main(["run", "--message-bits", "4", *common]) == 0
        assert ghzqdc.cli.main(["sweep", "--message-bits", "0", "--m-values", "1,3", *common]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.call_counts()
    assert counts["authkeys.derive_key"] > 0
    assert counts["protocol.plan"] > 0
    assert harness.run is original_run
