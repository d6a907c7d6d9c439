"""Monte Carlo driver: aggregation, reproducibility, sweeps, CLI."""
import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reference_run, reference_sweep

import ghzqdc.cli
from ghzqdc import harness, protocol
from ghzqdc.adversary import (
    NO_ATTACK,
    AttackModel,
    AttackVariant,
    Channel,
    entangle_cnot_attack,
    intercept_resend_attack,
)
from ghzqdc.cli import main as cli_main, parse_complex, parse_message
from ghzqdc.ecc import codec_by_name, format_bits
from ghzqdc.harness import (
    RunSpec,
    _derive_trial_keys,
    _random_bits,
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
    with pytest.raises(ConfigError, match="seed"):
        run(spec(seed=-5))
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
    # A malformed flag is a usage error, raised before --out is created.
    out = tmp_path / "r.csv"
    for m_values in ("0,1", "1,x", ","):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--n-ghz", "8", "--m-values", m_values, "--out", str(out)])
        assert exc.value.code == 2
        assert "--m-values" in capsys.readouterr().err
        assert not out.exists()
    # So is a negative message length or an empty message.
    for flag, value in (("--message-bits", "-3"), ("--message", ""), ("--message", "0x")):
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


def test_trial_draws_known_answer():
    """Identities, keys and random messages of trials 0-49 at seed 0, pinned by digest."""
    digest = hashlib.sha256()
    for t in range(50):
        keys_ss, _ = trial_seed(0, t)
        rng = np.random.default_rng(keys_ss)
        drawn = [_random_bits(rng, 128), _random_bits(rng, 128), _random_bits(rng, 40)]
        keys = _derive_trial_keys(np.random.default_rng(keys_ss), 128)
        for bits in drawn + [k.bits for k in keys]:
            digest.update(format_bits(bits).encode("ascii") + b"\n")
    assert digest.hexdigest() == "c8d23db63fe475afc942c4da7a0a8606dfb8a3b1d5df0b1b2b943831fdab84eb"


@pytest.mark.parametrize("protocol", ["qdc1", "qdc2"])
def test_attack_comparison_script(protocol, capsys):
    """scripts/run_attack_comparison.py prints one row per attack model; the
    general attack lands on the protocol's own message channel."""
    path = Path(__file__).parent.parent / "scripts" / "run_attack_comparison.py"
    module_spec = importlib.util.spec_from_file_location("run_attack_comparison", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
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
        codec=codec_by_name(draw(st.sampled_from(["none", "rep3", "hamming74"]))),
        protocol_variant=draw(st.sampled_from(["qdc1", "qdc2"])),
        measure_order=draw(st.sampled_from(_ORDERS)),
        record_transcript=False,
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
@given(spec=run_specs(), row_cap=st.sampled_from([1, 13, 30, 64, protocol.ROW_CAP]))
@example(  # chunks of two trials in which every trial aborts
    spec=RunSpec(
        config=SessionConfig(n_ghz=24, m_auth_check=6, record_transcript=False),
        attack=intercept_resend_attack({Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB}),
        trials=4, seed=2, message_bits=4,
    ),
    row_cap=48,
)
@example(  # chunks of 3 trials, each full one with all three verdicts, the last one partial
    spec=RunSpec(
        config=SessionConfig(n_ghz=20, m_auth_check=4, error_threshold_msg=0.3,
                             record_transcript=False),
        attack=intercept_resend_attack({Channel.TRENT_TO_ALICE}, coverage=0.3),
        trials=8, seed=54, message_bits=2,
    ),
    row_cap=60,
)
def test_chunked_run_matches_trial_by_trial_reference(spec, row_cap):
    with mock.patch.object(protocol, "ROW_CAP", row_cap):
        got = run(spec).to_json(include_timestamp=False)
    assert got == reference_run(spec).to_json(include_timestamp=False)


def test_chunks_stay_within_row_cap(monkeypatch):
    rows = []
    new_ghz3 = protocol.new_ghz3

    def recording_new_ghz3(count=1):
        rows.append(count)
        return new_ghz3(count)

    monkeypatch.setattr(protocol, "new_ghz3", recording_new_ghz3)
    run(spec(config=SessionConfig(n_ghz=128, m_auth_check=16, record_transcript=False),
             trials=20, message_bits=40))
    assert sum(rows) == 20 * 128
    assert max(rows) <= protocol.ROW_CAP


# ---------------------------------------------------------------------------
# Trial-block-major sweep against one run per m


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    base=run_specs(),
    m_values=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    row_cap=st.sampled_from([1, 13, 30, 64, protocol.ROW_CAP]),
)
@example(  # rows of 125, 128 and 132 triples: only the widest row's key has a second block
    base=RunSpec(
        config=SessionConfig(n_ghz=126, m_auth_check=2, error_threshold_auth=0.3,
                             record_transcript=False),
        attack=intercept_resend_attack({Channel.TRENT_TO_ALICE, Channel.ALICE_TO_BOB},
                                       coverage=0.5),
        trials=12, seed=27, message_bits=8,
    ),
    m_values=[8, 1, 4, 4],
    row_cap=protocol.ROW_CAP,
)
def test_sweep_matches_one_run_per_m(base, m_values, row_cap):
    with mock.patch.object(protocol, "ROW_CAP", row_cap):
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
    base = spec(config=SessionConfig(n_ghz=8, m_auth_check=2, record_transcript=False),
                attack=entangle_cnot_attack({Channel.TRENT_TO_ALICE}), trials=7,
                message_bits=None)
    sweep_detection_curve(base, [1, 3, 2])
    # Alice's and Bob's key per trial, each long enough for the widest row.
    assert calls == [9] * 14


def test_perfbench_tracer_wraps_every_call_site(capsys):
    """The benchmark's tracer rebinds library names by string; each must still exist."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
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
