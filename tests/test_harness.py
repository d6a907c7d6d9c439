"""Monte Carlo driver: aggregation, reproducibility, sweeps, CLI."""
import csv
import io
import json

import pytest

from ghzqdc.adversary import NO_ATTACK, Channel, entangle_cnot_attack, intercept_resend_attack
from ghzqdc.cli import main as cli_main, parse_complex, parse_message
from ghzqdc.harness import (
    RunSpec,
    detection_rate_reference,
    run,
    sweep_detection_curve,
    trial_seed,
)
from ghzqdc.protocol import CapacityError, ConfigError, SessionConfig


def spec(**overrides) -> RunSpec:
    config = SessionConfig(
        n_ghz=40,
        m_auth_check=4,
        check_fraction_msg=0.25,
        record_transcript=False,
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
    assert report.spec_echo["message"] == "1010101010101010"
    assert report.message["delivery_fidelity"] == 1.0


def test_config_errors_raised_before_trials():
    with pytest.raises(ConfigError):
        run(spec(trials=0))
    with pytest.raises(ConfigError):
        run(spec(fmt="xml"))
    with pytest.raises(ConfigError):
        run(spec(message="10", message_bits=16))
    with pytest.raises(ConfigError):
        # frame + checks exceed survivors
        run(spec(message_bits=64))
    with pytest.raises(CapacityError):
        # a 16-bit frame fits the 36 survivors, but not with 32 check bits
        config = SessionConfig(n_ghz=40, m_auth_check=4, check_fraction_msg=0.9)
        spec(config=config, message_bits=8).validate()


def test_intercept_run_statistics():
    s = spec(
        config=SessionConfig(n_ghz=40, m_auth_check=32, record_transcript=False),
        attack=intercept_resend_attack({Channel.TRENT_TO_ALICE}),
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
        (entangle_cnot_attack({Channel.TRENT_TO_ALICE}), detection_rate_reference),
        (NO_ATTACK, lambda m: 0.0),
    ):
        base = spec(
            config=SessionConfig(
                n_ghz=6, m_auth_check=2, record_transcript=False
            ),
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
    # A malformed flag is a usage error, raised before --out is created.
    out = tmp_path / "r.csv"
    for m_values in ("0,1", "1,x", ","):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--n-ghz", "8", "--m-values", m_values, "--out", str(out)])
        assert exc.value.code == 2
        assert "--m-values" in capsys.readouterr().err
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


def _pin_golden_reports():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "scripts" / "pin_golden_reports.py"
    module_spec = importlib.util.spec_from_file_location("pin_golden_reports", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


GOLDEN = _pin_golden_reports()


@pytest.mark.parametrize("name", sorted(GOLDEN.CONFIGS))
def test_golden_report(name):
    """Reports are byte-stable across versions; refresh the fixture with
    scripts/pin_golden_reports.py --write after an intentional contract change."""
    expected = json.loads(GOLDEN.FIXTURE.read_text(encoding="ascii"))
    assert GOLDEN.report_digest(GOLDEN.CONFIGS[name]) == expected[name]
