"""In-memory span tracer wrapped around the public call sites of each layer.

The wrappers live here, not in the library: `install` rebinds the names a
layer imports from another (for example `protocol.apply_gate`, taken from
`statevector`) to a traced function and `uninstall` puts the originals back.
Each span keeps a name, start, end and parent index; self time is the span's
duration minus its children's. A span's name starts with its layer.
"""
from __future__ import annotations

import json
import time
from array import array

LAYERS = ("cli", "harness", "authkeys", "protocol", "ecc", "adversary", "statevector")
KERNELS = ("new_ghz3", "apply_gate", "apply_two_qubit", "append_qubit",
           "measure_z", "measure_x", "measure_bell")

# (module, attribute, span name): the call sites, named by the caller's
# module and the attribute the caller looks up at call time.
CALL_SITES = (
    [("cli", "run", "harness.run"),
     ("cli", "sweep_detection_curve", "harness.sweep"),
     ("adversary", "build_entangling_unitary", "adversary.build_entangling_unitary"),
     ("harness", "run", "harness.run"),
     ("harness", "derive_key", "authkeys.derive_key"),
     ("harness", "run_session", "protocol.session"),
     ("harness", "ecc_encode", "ecc.encode"),
     ("protocol", "auth_phase", "protocol.auth_phase"),
     ("protocol", "plan_message_positions", "protocol.plan"),
     ("protocol", "message_check_and_deliver", "protocol.check_deliver"),
     ("protocol", "ecc_encode", "ecc.encode"),
     ("protocol", "ecc_decode", "ecc.decode"),
     ("protocol", "apply_channel_attack", "adversary.apply_channel_attack"),
     ("protocol", "eve_measure_ancilla", "adversary.eve_measure_ancilla")]
    + [("protocol", k, f"statevector.{k}")
       for k in ("new_ghz3", "apply_gate", "measure_z", "measure_x", "measure_bell")]
    + [("adversary", k, f"statevector.{k}")
       for k in ("append_qubit", "apply_two_qubit", "measure_z", "measure_x")]
)
REPORT_METHODS = (("RunReport", "to_json"), ("RunReport", "to_csv"),
                  ("SweepReport", "to_json"), ("SweepReport", "to_csv"))


class Tracer:
    """Spans in flat arrays (one entry per call) plus named event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, ghzqdc) -> None:
        """Rebind every call site of the imported `ghzqdc` package."""
        hooks = {
            "protocol.auth_phase": lambda t, r: t.count("triples.checked", len(r.checks)),
            "protocol.plan": lambda t, r: t.count("triples.used", len(r.used_positions())),
        }
        for module_name, attr, span in CALL_SITES:
            self._rebind(getattr(ghzqdc, module_name), attr, span, hooks.get(span))
        for cls, method in REPORT_METHODS:
            self._rebind(getattr(ghzqdc.harness, cls), method, "harness.report_serialize")

    def _rebind(self, owner, attr: str, span: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, on_result))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def call_counts(self) -> dict[str, int]:
        """Spans per name."""
        out: dict[str, int] = {}
        for nid in self.name_id:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def totals(self) -> tuple[dict, dict, list[str]]:
        """(total seconds, self seconds) per name, and nesting violations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        outside = []
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    outside.append(i)
        problems = [f"{len(outside)} spans outside their parent, first {outside[0]} "
                    f"({self.names[self.name_id[outside[0]]]})"] if outside else []
        total: dict[str, float] = {}
        self_: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            total[name] = total.get(name, 0.0) + dur[i]
            self_[name] = self_.get(name, 0.0) + dur[i] - child[i]
        return total, self_, problems

    def roots_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def save(self, path: str) -> None:
        """Write the spans out: a JSON header line, then one line per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "start", "end"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_id[i]} {self.parent[i]} {self.start[i]!r} {self.end[i]!r}\n")


def layer_metrics(spans: Tracer, *, exact: dict, exact_sessions: int, sessions: int,
                  invocations: int, wall: float, overhead: float) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced loop, as {name: (value, unit)}.

    Per-session counts come from `exact`, the call counts and counters of a
    fixed set of invocations holding `exact_sessions` sessions, so they
    repeat exactly for one seed; times come from the whole traced loop.
    """
    total, self_, problems = spans.totals()
    calls = spans.call_counts()

    def per_call_us(name, table):
        return 1e6 * table.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def per_session_us(name, table):
        return 1e6 * table.get(name, 0.0) / sessions

    def calls_per_session(name):
        return exact.get(name, 0) / exact_sessions

    layer_self = {layer: 0.0 for layer in LAYERS}
    for k, v in self_.items():
        layer_self[k.split(".", 1)[0]] += v

    m: dict[str, tuple[float, str]] = {}
    for k in KERNELS:
        name = f"statevector.{k}"
        m[f"{name}.calls"] = (calls_per_session(name), "calls/session")
        m[f"{name}.us"] = (per_call_us(name, self_), "us")
    m["statevector.share"] = (layer_self["statevector"] / wall, "ratio")

    m["protocol.session_us"] = (per_session_us("protocol.session", total), "us")
    m["protocol.session.self_us"] = (per_session_us("protocol.session", self_), "us")
    m["protocol.auth_phase_us"] = (per_session_us("protocol.auth_phase", total), "us")
    m["protocol.auth_phase.self_us"] = (per_session_us("protocol.auth_phase", self_), "us")
    m["protocol.plan_us"] = (per_session_us("protocol.plan", total), "us")
    emd = sum(total.get(k, 0.0) * sign for k, sign in (
        ("protocol.session", 1), ("protocol.auth_phase", -1),
        ("protocol.plan", -1), ("protocol.check_deliver", -1)))
    m["protocol.encode_measure_decode_us"] = (1e6 * emd / sessions, "us")
    m["protocol.check_deliver_us"] = (per_session_us("protocol.check_deliver", total), "us")
    prepared = exact.get("statevector.new_ghz3", 0)
    m["protocol.triples.count"] = (prepared / exact_sessions, "triples/session")
    useful = exact.get("triples.checked", 0) + exact.get("triples.used", 0)
    m["protocol.triple_utilization"] = (useful / prepared if prepared else 0.0, "ratio")

    name = "adversary.build_entangling_unitary"
    m[f"{name}.calls"] = (calls_per_session(name), "calls/session")
    m[f"{name}_us"] = (per_call_us(name, total), "us")
    name = "adversary.apply_channel_attack"
    m[f"{name}.calls"] = (calls_per_session(name), "calls/session")
    m[f"{name}.self_us"] = (per_call_us(name, self_), "us")
    m["adversary.eve_measure_ancilla.self_us"] = (
        per_call_us("adversary.eve_measure_ancilla", self_), "us")

    m["authkeys.derive_key.calls"] = (calls_per_session("authkeys.derive_key"), "calls/session")
    m["authkeys.derive_key_us"] = (per_call_us("authkeys.derive_key", total), "us")
    m["harness.trial_overhead_us"] = (per_session_us("harness.run", self_), "us")
    m["ecc.encode_us"] = (per_call_us("ecc.encode", total), "us")
    m["ecc.decode_us"] = (per_call_us("ecc.decode", total), "us")
    m["harness.report_serialize_ms"] = (
        1e3 * total.get("harness.report_serialize", 0.0) / invocations, "ms")
    m["cli.main.self_ms"] = (1e3 * self_.get("cli.main", 0.0) / invocations, "ms")

    for layer in LAYERS:
        m[f"layer.{layer}.self_us"] = (1e6 * layer_self[layer] / sessions, "us")
    remainder = wall - spans.roots_seconds()
    accounted = sum(layer_self.values()) + remainder
    if remainder < 0 or abs(accounted - wall) > 1e-6 * wall:
        problems.append(f"layer self times + remainder = {accounted!r} s != traced wall {wall!r} s")
    m["trace.overhead"] = (overhead, "ratio")
    return m, problems
