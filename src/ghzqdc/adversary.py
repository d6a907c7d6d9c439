"""Eavesdropper models attached to the quantum channel hook points.

An attack is one `AttackModel(variant, channels, coverage, ...)`; the
variant is named as on the CLI's --attack flag:
  * "none": transparent channel.
  * "intercept" (intercept-resend): Eve measures the transiting qubit (z
    basis by default, `intercept_basis="x"` as an option) and forwards the
    collapsed state.
  * "entangle-cnot": Eve appends a |0> ancilla and applies a controlled
    flip, channel qubit as control, ancilla as target.
  * "entangle-general": Eve appends an ancilla in a configurable state and
    applies a two-qubit unitary specified by its action on |0>|E> and
    |1>|E>: alpha |0>|e00> + beta |1>|e01> and beta' |0>|e10> +
    alpha' |1>|e11>. The remaining two columns are filled by orthonormal
    completion; they never act because the ancilla always starts in |E>.

All attacks are per-qubit: one fresh ancilla per attacked transmission,
no joint memory across positions. Eve reads the public channel but cannot
forge it. Her ancillas stay in the register of the triple they touched
until she measures them; a session keeps only her message-phase outcomes,
each paired with Alice's bit, never key material.

The hooks act on a whole register at once: every row is one triple
crossing the channel (in the session engine, one state of the branch
table). An entangling attack gives the register one ancilla slot per
attacked channel; a row whose transmission Eve skipped (coverage < 1)
keeps that slot in her fresh state, a product factor she never measures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .statevector import ATOL, append_qubit, apply_two_qubit, complex_constant
from .statevector import measure_z, num_qubits
from .statevector import measure_x  # noqa: F401  (not called here; perfbench's tracer rebinds it)


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


_CNOT = complex_constant(np.eye(4)[[0, 1, 3, 2]])  # swaps |10> and |11>

# Default general-attack parameters: maximal disturbance, orthogonal
# ancilla marks. Satisfies |a|^2+|b|^2 = |a'|^2+|b'|^2 = 1 and
# a b* + a'* b' = 0, and induces a unitary pair map.
_DEF_ALPHA = complex(1 / np.sqrt(2))
_DEF_BETA = complex(1 / np.sqrt(2))
_DEF_ALPHA_P = complex(1 / np.sqrt(2))
_DEF_BETA_P = complex(-1 / np.sqrt(2))
_KET0 = (complex(1), complex(0))
_KET1 = (complex(0), complex(1))
# A general attack's parameters, in `build_entangling_unitary`'s argument order.
_GENERAL_FIELDS = ("alpha", "beta", "alpha_p", "beta_p", "e00", "e01", "e10", "e11", "eve_state")


# Every check below is written `not (... <= ATOL)`, so a NaN parameter fails it.
def _vec2(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.shape[0] != 2:
        raise InvalidAttackError(f"{what} must be a single-qubit state (2 amplitudes)")
    nrm = float(np.vdot(arr, arr).real)
    if not abs(nrm - 1.0) <= ATOL:
        raise InvalidAttackError(f"{what} norm^2 = {nrm}, not 1")
    return arr


_CNOT_ANCILLA = complex_constant(_KET0)


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


def build_entangling_unitary(alpha: complex, beta: complex, alpha_p: complex, beta_p: complex,
                             e00, e01, e10, e11, eve_state=_KET0) -> np.ndarray:
    """4x4 unitary on the (channel qubit, ancilla) pair.

    Index order: 2*bit(channel) + bit(ancilla). Raises InvalidAttackError
    when the parameters cannot define a unitary.
    """
    e00, e01, e10, e11 = _vec2(e00, "e00"), _vec2(e01, "e01"), _vec2(e10, "e10"), _vec2(e11, "e11")
    ev = _vec2(eve_state, "eve_state")
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= ATOL:
        raise InvalidAttackError("|alpha|^2 + |beta|^2 must be 1")
    if not abs(abs(alpha_p) ** 2 + abs(beta_p) ** 2 - 1.0) <= ATOL:
        raise InvalidAttackError("|alpha'|^2 + |beta'|^2 must be 1")
    if not abs(alpha * np.conj(beta) + np.conj(alpha_p) * beta_p) <= ATOL:
        raise InvalidAttackError("alpha beta* + alpha'* beta' must vanish")

    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    v0 = alpha * np.kron(ket0, e00) + beta * np.kron(ket1, e01)
    v1 = beta_p * np.kron(ket0, e10) + alpha_p * np.kron(ket1, e11)
    if not abs(np.vdot(v0, v1)) <= ATOL:
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
    """Immutable adversary configuration, e.g. AttackModel("entangle-cnot", {"trent-alice"}).

    `variant` and each channel may be given by name; both are stored as
    enum members, so an unknown name raises ValueError here. `unitary` and
    `ancilla` are derived: the read-only 4x4 pair unitary and Eve's fresh
    ancilla for the entangling variants, else None. They are built and
    validated once, then shared by every attacked transmission.
    """

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
    unitary: np.ndarray | None = field(init=False, repr=False, compare=False)
    ancilla: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variant", AttackVariant(self.variant))
        if not 0.0 <= self.coverage <= 1.0:
            raise InvalidAttackError("coverage must be in [0, 1]")
        if self.intercept_basis not in ("z", "x"):
            raise InvalidAttackError("intercept basis must be 'z' or 'x'")
        object.__setattr__(self, "channels", frozenset(Channel(c) for c in self.channels))
        unitary = ancilla = None
        if self.variant == AttackVariant.ENTANGLE_CNOT:
            unitary, ancilla = _CNOT, _CNOT_ANCILLA
        elif self.variant == AttackVariant.ENTANGLE_GENERAL:
            unitary = complex_constant(build_entangling_unitary(
                *(getattr(self, name) for name in _GENERAL_FIELDS)))
            ancilla = complex_constant(_vec2(self.eve_state, "eve_state"))
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "ancilla", ancilla)

    def targets(self, channel: Channel) -> bool:
        return self.variant != AttackVariant.NONE and channel in self.channels

    @property
    def draws(self) -> bool:
        """Whether attack_draws reads Eve's generator for a targeted transmission."""
        return self.coverage < 1.0 or self.variant == AttackVariant.INTERCEPT_RESEND


NO_ATTACK = AttackModel()


# ---------------------------------------------------------------------------
# Attack operations


def eve_measure_ancilla(state: np.ndarray, ancilla: int, u) -> tuple[np.ndarray, np.ndarray]:
    """z-measure one of Eve's ancilla slots in every row."""
    return measure_z(state, ancilla, u)


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
    if not model.draws:  # every targeted transmission is hit, and nothing is read
        hit[:, cols] = True
        return hit, u
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
    model: AttackModel, state: np.ndarray, qubit: int, channel: Channel, hit: bool
) -> np.ndarray:
    """Channel hook for the unitary part of an attack: every row's `qubit` crosses `channel`.

    An entangling attack on the channel appends one ancilla slot to every
    row as the last qubit, and entangles it if Eve `hit` the stack. Any
    other attack leaves the state as it is: an intercept is a measurement
    in `model.intercept_basis` of the rows she hit, which the caller makes.
    """
    if not model.targets(channel) or model.unitary is None:
        return state
    state = append_qubit(state, model.ancilla)
    if not hit:  # the slot keeps Eve's fresh state, a product factor
        return state
    return apply_two_qubit(state, model.unitary, qubit, num_qubits(state) - 1)


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
        for name in _GENERAL_FIELDS[:4]:
            value = getattr(model, name)
            out[name] = [value.real, value.imag]
        for name in _GENERAL_FIELDS[4:]:  # the ancilla marks, echoed where not the default
            amplitudes = [complex(a) for a in getattr(model, name)]
            if amplitudes != list(getattr(NO_ATTACK, name)):
                out[name] = [[a.real, a.imag] for a in amplitudes]
    return out
