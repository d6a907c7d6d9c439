"""Eavesdropper models attached to the quantum channel hook points.

Four variants:
  * none: transparent channel.
  * intercept-resend: Eve measures the transiting qubit (z basis by
    default, x as a config option) and forwards the collapsed state.
  * entangle-cnot: Eve appends a |0> ancilla and applies a controlled
    flip, channel qubit as control, ancilla as target.
  * entangle-general: Eve appends an ancilla in a configurable state and
    applies a two-qubit unitary specified by its action on |0>|E> and
    |1>|E>: alpha |0>|e00> + beta |1>|e01> and beta' |0>|e10> +
    alpha' |1>|e11>. The remaining two columns are filled by orthonormal
    completion; they never act because the ancilla always starts in |E>.

All attacks are per-qubit: one fresh ancilla per attacked transmission,
no joint memory across positions. Eve reads the public channel but cannot
forge it. Her observations accumulate in an EveRecord, which only ever
stores outcomes and positions, never key material.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .statevector import (
    ATOL,
    PureState,
    XOutcome,
    append_qubit,
    apply_two_qubit,
    measure_x,
    measure_z,
)


class InvalidAttackError(ValueError):
    """Attack parameters violate the unitarity constraints."""


class AttackVariant(str, Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept"
    ENTANGLE_CNOT = "entangle-cnot"
    ENTANGLE_GENERAL = "entangle-general"


class Channel(str, Enum):
    TRENT_TO_ALICE = "trent-alice"
    TRENT_TO_BOB = "trent-bob"
    ALICE_TO_BOB = "alice-bob"
    ALICE_TO_TRENT = "alice-trent"


_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
_CNOT.setflags(write=False)

# Default general-attack parameters: maximal disturbance, orthogonal
# ancilla marks. Satisfies |a|^2+|b|^2 = |a'|^2+|b'|^2 = 1 and
# a b* + a'* b' = 0, and induces a unitary pair map.
_DEF_ALPHA = complex(1 / np.sqrt(2))
_DEF_BETA = complex(1 / np.sqrt(2))
_DEF_ALPHA_P = complex(1 / np.sqrt(2))
_DEF_BETA_P = complex(-1 / np.sqrt(2))
_KET0 = (complex(1), complex(0))
_KET1 = (complex(0), complex(1))


def _vec2(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.shape[0] != 2:
        raise InvalidAttackError("ancilla states must be single-qubit (2 amplitudes)")
    nrm = float(np.vdot(arr, arr).real)
    if abs(nrm - 1.0) > ATOL:
        raise InvalidAttackError(f"ancilla state norm^2 = {nrm}, not 1")
    return arr


def _read_only(v) -> np.ndarray:
    """A private complex copy of `v` that no caller can write into."""
    arr = np.array(v, dtype=complex)
    arr.setflags(write=False)
    return arr


_CNOT_ANCILLA = _read_only(_KET0)


def _orthonormal_completion(cols: list[np.ndarray], order: str) -> list[np.ndarray]:
    """Extend orthonormal columns to a full basis of C^4 by Gram-Schmidt."""
    candidates = [np.eye(4, dtype=complex)[:, i] for i in range(4)]
    if order == "reversed":
        candidates.reverse()
    out = list(cols)
    for cand in candidates:
        if len(out) == 4:
            break
        v = cand.copy()
        for u in out:
            v -= np.vdot(u, v) * u
        nrm = float(np.vdot(v, v).real)
        if nrm > 1e-12:
            out.append(v / np.sqrt(nrm))
    if len(out) != 4:
        raise InvalidAttackError("could not complete attack unitary")
    return out


def build_entangling_unitary(
    alpha: complex,
    beta: complex,
    alpha_p: complex,
    beta_p: complex,
    e00,
    e01,
    e10,
    e11,
    eve_state=_KET0,
    completion: str = "standard",
) -> np.ndarray:
    """4x4 unitary on the (channel qubit, ancilla) pair.

    Index order: 2*bit(channel) + bit(ancilla). Raises InvalidAttackError
    when the parameters cannot define a unitary.
    """
    e00, e01, e10, e11 = _vec2(e00), _vec2(e01), _vec2(e10), _vec2(e11)
    ev = _vec2(eve_state)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > ATOL:
        raise InvalidAttackError("|alpha|^2 + |beta|^2 must be 1")
    if abs(abs(alpha_p) ** 2 + abs(beta_p) ** 2 - 1.0) > ATOL:
        raise InvalidAttackError("|alpha'|^2 + |beta'|^2 must be 1")
    if abs(alpha * np.conj(beta) + np.conj(alpha_p) * beta_p) > ATOL:
        raise InvalidAttackError("alpha beta* + alpha'* beta' must vanish")

    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    v0 = alpha * np.kron(ket0, e00) + beta * np.kron(ket1, e01)
    v1 = beta_p * np.kron(ket0, e10) + alpha_p * np.kron(ket1, e11)
    if abs(np.vdot(v0, v1)) > ATOL:
        raise InvalidAttackError("the two specified image vectors are not orthogonal")

    ev_perp = np.array([-np.conj(ev[1]), np.conj(ev[0])], dtype=complex)
    ins = [np.kron(ket0, ev), np.kron(ket1, ev), np.kron(ket0, ev_perp), np.kron(ket1, ev_perp)]
    outs = _orthonormal_completion([v0, v1], completion)
    u = sum(np.outer(out, np.conj(inp)) for out, inp in zip(outs, ins))
    if not np.allclose(u @ u.conj().T, np.eye(4), atol=ATOL):
        raise InvalidAttackError("induced pair map is not unitary")
    return u


@dataclass(frozen=True)
class AttackModel:
    """Immutable adversary configuration."""

    variant: AttackVariant = AttackVariant.NONE
    channels: frozenset[Channel] = frozenset()
    coverage: float = 1.0
    intercept_basis: str = "z"  # "z" per the analyzed attack; "x" as an option
    alpha: complex = _DEF_ALPHA
    beta: complex = _DEF_BETA
    alpha_p: complex = _DEF_ALPHA_P
    beta_p: complex = _DEF_BETA_P
    e00: tuple[complex, complex] = _KET0
    e01: tuple[complex, complex] = _KET1
    e10: tuple[complex, complex] = _KET0
    e11: tuple[complex, complex] = _KET1
    eve_state: tuple[complex, complex] = _KET0
    completion: str = "standard"

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise InvalidAttackError("coverage must be in [0, 1]")
        if self.intercept_basis not in ("z", "x"):
            raise InvalidAttackError("intercept basis must be 'z' or 'x'")
        if self.completion not in ("standard", "reversed"):
            raise InvalidAttackError("completion must be 'standard' or 'reversed'")
        object.__setattr__(self, "channels", frozenset(Channel(c) for c in self.channels))
        # Built and validated once here, then shared read-only by every
        # attacked transmission.
        unitary = ancilla = None
        if self.variant == AttackVariant.ENTANGLE_CNOT:
            unitary, ancilla = _CNOT, _CNOT_ANCILLA
        elif self.variant == AttackVariant.ENTANGLE_GENERAL:
            unitary = _read_only(
                build_entangling_unitary(
                    self.alpha,
                    self.beta,
                    self.alpha_p,
                    self.beta_p,
                    self.e00,
                    self.e01,
                    self.e10,
                    self.e11,
                    self.eve_state,
                    self.completion,
                )
            )
            ancilla = _read_only(_vec2(self.eve_state))
        object.__setattr__(self, "_unitary", unitary)
        object.__setattr__(self, "_ancilla", ancilla)

    def unitary(self) -> np.ndarray | None:
        """The read-only 4x4 pair unitary for the entangling variants, else None."""
        return self._unitary

    def ancilla_state(self) -> np.ndarray | None:
        """Eve's read-only fresh ancilla for the entangling variants, else None."""
        return self._ancilla

    def targets(self, channel: Channel) -> bool:
        return self.variant != AttackVariant.NONE and channel in self.channels


NO_ATTACK = AttackModel()


def intercept_resend_attack(channels, coverage: float = 1.0, basis: str = "z") -> AttackModel:
    return AttackModel(
        variant=AttackVariant.INTERCEPT_RESEND,
        channels=frozenset(channels),
        coverage=coverage,
        intercept_basis=basis,
    )


def entangle_cnot_attack(channels, coverage: float = 1.0) -> AttackModel:
    return AttackModel(
        variant=AttackVariant.ENTANGLE_CNOT, channels=frozenset(channels), coverage=coverage
    )


def entangle_general_attack(channels, coverage: float = 1.0, **params) -> AttackModel:
    return AttackModel(
        variant=AttackVariant.ENTANGLE_GENERAL,
        channels=frozenset(channels),
        coverage=coverage,
        **params,
    )


@dataclass
class EveCapture:
    """What Eve holds for one attacked transmission."""

    ghz_position: int
    phase: str  # "auth" | "message"
    channel: Channel
    kind: str  # "intercept" | "ancilla"
    seq_position: int | None = None  # message-phase sequence index
    outcome: int | None = None
    basis: str | None = None
    ancilla_label: str | None = None


@dataclass
class EveRecord:
    """Per-session accumulation of Eve's observations."""

    captures: list[EveCapture] = field(default_factory=list)

    def pending_ancillas(self, ghz_position: int | None = None) -> list[EveCapture]:
        return [
            c
            for c in self.captures
            if c.kind == "ancilla"
            and c.outcome is None
            and (ghz_position is None or c.ghz_position == ghz_position)
        ]


# ---------------------------------------------------------------------------
# Attack operations


def _measure_bit(
    state: PureState, qubit: int, basis: str, rng: np.random.Generator
) -> tuple[int, PureState]:
    """z or x measurement of one qubit; the x outcome reads 0 for |+>, 1 for |->."""
    if basis == "z":
        return measure_z(state, qubit, rng)
    if basis == "x":
        xout, state = measure_x(state, qubit, rng)
        return (0 if xout is XOutcome.PLUS else 1), state
    raise InvalidAttackError(f"unsupported measurement basis: {basis!r}")


def attack_intercept_resend(
    state: PureState,
    qubit: int,
    rng: np.random.Generator,
    record: EveRecord | None = None,
    *,
    basis: str = "z",
    ghz_position: int = -1,
    phase: str = "auth",
    channel: Channel = Channel.TRENT_TO_ALICE,
    seq_position: int | None = None,
) -> PureState:
    """Eve measures the transiting qubit and forwards the collapsed state."""
    value, state = _measure_bit(state, qubit, basis, rng)
    if record is not None:
        record.captures.append(
            EveCapture(
                ghz_position=ghz_position,
                phase=phase,
                channel=channel,
                kind="intercept",
                seq_position=seq_position,
                outcome=value,
                basis=basis,
            )
        )
    return state


def attack_entangle_cnot(state: PureState, qubit: int, ancilla: int) -> PureState:
    """Controlled flip of a |0>-prepared ancilla by the transiting qubit."""
    return apply_two_qubit(state, _CNOT, qubit, ancilla)


def attack_entangle_general(
    state: PureState, qubit: int, ancilla: int, model: AttackModel
) -> PureState:
    """Apply the model's entangling unitary to (channel qubit, ancilla)."""
    u = model.unitary()
    if u is None:
        raise InvalidAttackError("attack model has no entangling unitary")
    return apply_two_qubit(state, u, qubit, ancilla)


def eve_measure_ancilla(
    state: PureState,
    ancilla: int,
    basis: str,
    rng: np.random.Generator,
    capture: EveCapture | None = None,
) -> tuple[int, PureState]:
    """Measure one of Eve's ancillas; outcome is logged on the capture."""
    value, state = _measure_bit(state, ancilla, basis, rng)
    if capture is not None:
        capture.outcome = value
        capture.basis = basis
    return value, state


def _next_ancilla_label(state: PureState) -> str:
    k = sum(1 for lbl in state.labels if lbl.startswith("E"))
    return f"E{k}"


def apply_channel_attack(
    model: AttackModel,
    state: PureState,
    qubit: int,
    *,
    channel: Channel,
    ghz_position: int,
    phase: str,
    eve_rng: np.random.Generator,
    record: EveRecord | None,
    seq_position: int | None = None,
) -> tuple[PureState, EveCapture | None]:
    """Channel hook: possibly act on the transiting qubit.

    Coverage < 1 draws one Bernoulli variate from Eve's own generator per
    targeted transmission, so honest-party randomness is never perturbed
    by the adversary's bookkeeping.
    """
    if not model.targets(channel):
        return state, None
    if model.coverage < 1.0 and eve_rng.random() >= model.coverage:
        return state, None

    if model.variant == AttackVariant.INTERCEPT_RESEND:
        state = attack_intercept_resend(
            state,
            qubit,
            eve_rng,
            record,
            basis=model.intercept_basis,
            ghz_position=ghz_position,
            phase=phase,
            channel=channel,
            seq_position=seq_position,
        )
        capture = record.captures[-1] if record is not None else None
        return state, capture

    label = _next_ancilla_label(state)
    state = append_qubit(state, model.ancilla_state(), label)
    ancilla = state.num_qubits - 1
    if model.variant == AttackVariant.ENTANGLE_CNOT:
        state = attack_entangle_cnot(state, qubit, ancilla)
    else:
        state = attack_entangle_general(state, qubit, ancilla, model)
    capture = EveCapture(
        ghz_position=ghz_position,
        phase=phase,
        channel=channel,
        kind="ancilla",
        seq_position=seq_position,
        ancilla_label=label,
    )
    if record is not None:
        record.captures.append(capture)
    return state, capture


def attack_to_dict(model: AttackModel) -> dict:
    """JSON-friendly echo of the attack configuration."""
    out = {
        "variant": model.variant.value,
        "channels": sorted(c.value for c in model.channels),
        "coverage": model.coverage,
    }
    if model.variant == AttackVariant.INTERCEPT_RESEND:
        out["intercept_basis"] = model.intercept_basis
    if model.variant == AttackVariant.ENTANGLE_GENERAL:
        out["alpha"] = [model.alpha.real, model.alpha.imag]
        out["beta"] = [model.beta.real, model.beta.imag]
        out["alpha_p"] = [model.alpha_p.real, model.alpha_p.imag]
        out["beta_p"] = [model.beta_p.real, model.beta_p.imag]
    return out
