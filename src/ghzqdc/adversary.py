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
forge it. Her ancillas stay in the register of the triple they touched
until she measures them; a session keeps only her message-phase outcomes,
each paired with Alice's bit, never key material.

The hooks act on a whole phase at once: every row of a register is one
triple crossing the channel. An entangling attack gives the register one
ancilla slot per attacked channel; a row whose transmission Eve skipped
(coverage < 1) keeps that slot in her fresh state, a product factor she
never measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .statevector import ATOL, PureState, append_qubit, apply_two_qubit, measure_x, measure_z


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


def _orthonormal_completion(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Extend orthonormal columns to a full basis of C^4 by Gram-Schmidt."""
    out = list(cols)
    for cand in np.eye(4, dtype=complex):
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
    outs = _orthonormal_completion([v0, v1])
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

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise InvalidAttackError("coverage must be in [0, 1]")
        if self.intercept_basis not in ("z", "x"):
            raise InvalidAttackError("intercept basis must be 'z' or 'x'")
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

    @property
    def draws(self) -> bool:
        """Whether attack_draws reads Eve's generator for a targeted transmission."""
        return self.coverage < 1.0 or self.variant == AttackVariant.INTERCEPT_RESEND


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


# ---------------------------------------------------------------------------
# Attack operations


def attack_intercept_resend(
    state: PureState, qubit: int, u, basis: str = "z", where=None
) -> tuple[np.ndarray, PureState]:
    """Eve measures the transiting qubit of each `where` row in z or x and forwards
    the collapsed state; an x outcome reads 0 for |+>, 1 for |->."""
    if basis not in ("z", "x"):
        raise InvalidAttackError(f"unsupported measurement basis: {basis!r}")
    return (measure_z if basis == "z" else measure_x)(state, qubit, u, where)


def eve_measure_ancilla(
    state: PureState, ancilla: int, u, where=None
) -> tuple[np.ndarray, PureState]:
    """z-measure one of Eve's ancilla slots in the `where` rows."""
    return measure_z(state, ancilla, u, where)


def attack_draws(
    model: AttackModel, channels, rows: int, eve_rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Which transmissions Eve attacks, and her intercept uniforms.

    `rows` triples each cross `channels` in the given order. Returns
    (hit, u), both (rows, len(channels)). Eve's generator is read as
    per-transmission hooks in (row, channel) order would read it: for each
    targeted transmission, one coverage variate when coverage < 1, then
    one measurement uniform if an intercept attacks it. `eve_rng` may be
    None when `model.draws` is false.
    """
    hit = np.zeros((rows, len(channels)), dtype=bool)
    u = np.zeros(hit.shape)
    cols = [j for j, c in enumerate(channels) if model.targets(c)]
    intercept = model.variant == AttackVariant.INTERCEPT_RESEND
    for row in range(rows):
        for j in cols:
            if model.coverage < 1.0 and eve_rng.random() >= model.coverage:
                continue
            hit[row, j] = True
            if intercept:
                u[row, j] = eve_rng.random()
    return hit, u


def apply_channel_attack(
    model: AttackModel,
    state: PureState,
    qubit: int,
    channel: Channel,
    hit: np.ndarray,
    u: np.ndarray,
) -> tuple[PureState, np.ndarray | None]:
    """Channel hook: every row's `qubit` crosses `channel`; Eve acts on the `hit` rows.

    Returns the state and, for an intercept, Eve's outcome per row (-1
    where she did not attack), using the row's uniform from `u`. An
    entangling attack appends one ancilla slot to every row as the last
    qubit, labelled E0, E1, ... by slot, and entangles it in the `hit`
    rows only. `hit` and `u` come from attack_draws.
    """
    if not model.targets(channel):
        return state, None
    if model.variant == AttackVariant.INTERCEPT_RESEND:
        outcomes, state = attack_intercept_resend(state, qubit, u, model.intercept_basis, hit)
        return state, outcomes
    label = f"E{sum(lbl.startswith('E') for lbl in state.labels)}"
    state = append_qubit(state, model.ancilla_state(), label)
    return apply_two_qubit(state, model.unitary(), qubit, state.num_qubits - 1, where=hit), None


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
