"""Outside-in tracing of the cdiqkd layers for the benchmark's traced run.

Shims replace the names one module looks up in another (for example
``cdiqkd.protocol.keygen``, which is ``cdiqkd.etcf.keygen`` as the protocol
engine sees it), so a call nested inside one module is never counted twice.
Each call becomes a span (name, start, end, parent, op id) held in compact
arrays; self time is a span's duration minus the time its child spans cover.

Stream derivation (``SeedSequence.spawn`` and the ``PCG64`` constructions)
has no public boundary, so it shows only inside the self time of
``run_session`` until the program records spans of its own.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from cdiqkd import devices, harness, postprocess, protocol
from cdiqkd.devices import DeviceStrategy

# (calling module, name as that module looks it up, span name)
SHIMS = [
    *((protocol, fn, f"etcf.{fn}") for fn in ("keygen", "invert", "check_preimage")),
    *((protocol, fn, f"quantum.{fn}") for fn in (
        "apply_gate", "measurement_probabilities", "pauli_correction", "tensor", "ket",
        "plus_minus",
    )),
    (protocol, "win_condition", "protocol.win_condition"),
    (devices, "claw_partner", "etcf.claw_partner"),
    *((devices, fn, f"quantum.{fn}") for fn in (
        "teleport_cz", "apply_gate", "measure", "tensor", "make_bell", "ket", "plus_minus",
    )),
    (harness, "run_session", "protocol.run_session"),
    (harness, "win_condition", "protocol.win_condition"),
    (harness, "reconcile", "postprocess.reconcile"),
    (harness, "privacy_amplify", "postprocess.privacy_amplify"),
    (harness, "final_length", "postprocess.final_length"),
    (harness, "session_rate_report", "keyrate.session_rate_report"),
    (harness, "bell_test_qber", "harness.bell_test_qber"),
    (harness, "write_transcript", "harness.write_transcript"),
    (harness, "write_trapdoor_store", "harness.write_trapdoor_store"),
    # Calls the benchmark itself makes into the program.
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "replay_verify", "harness.replay_verify"),
    (postprocess, "reconcile", "postprocess.reconcile"),
    (postprocess, "final_length", "postprocess.final_length"),
    (postprocess, "privacy_amplify", "postprocess.privacy_amplify"),
]
DEVICE_METHODS = ("on_keys", "on_challenges", "on_questions")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = 0

    def wrap(self, fn, span_name: str):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._ids[span_name]
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self):
        """Put every shim in place; returns a function that takes them out again."""
        saved = []
        for module, attr, span_name in SHIMS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))
        make_device = harness.make_device
        saved.append((harness, "make_device", make_device))
        harness.make_device = lambda spec: TracedDevice(make_device(spec), self)

        def restore() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> "SpanTotals":
        return SpanTotals(self.names, **self.arrays())


class TracedDevice(DeviceStrategy):
    """Proxy for the device ``make_device`` returns; its message handlers are spans."""

    def __init__(self, inner: DeviceStrategy, tracer: Tracer) -> None:
        self._inner = inner
        for method in DEVICE_METHODS:
            setattr(self, method, tracer.wrap(getattr(inner, method), f"devices.{method}"))

    def reset(self, rng) -> None:
        self._inner.reset(rng)


class SpanTotals:
    """Per-name call counts, inclusive times and self times, in nanoseconds."""

    def __init__(self, names, start_ns, end_ns, name, parent, op) -> None:
        self.names = list(names)
        duration = (end_ns - start_ns).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_ns = duration - covered
        width = len(self.names)
        self._calls = np.bincount(name, minlength=width)
        self._total = np.bincount(name, weights=duration, minlength=width)
        self._self = np.bincount(name, weights=self_ns, minlength=width)
        # Direct children of run_session, by name: the session time budget.
        if "protocol.run_session" in self.names:
            session_id = self.names.index("protocol.run_session")
            in_session = has_parent & (name[np.maximum(parent, 0)] == session_id)
            self._session_children = np.bincount(
                name[in_session], weights=duration[in_session], minlength=width)
        else:
            self._session_children = np.zeros(width)

    def _get(self, table, span_name: str) -> float:
        if span_name not in self.names:
            return 0.0
        return float(table[self.names.index(span_name)])

    def calls(self, span_name: str) -> float:
        return self._get(self._calls, span_name)

    def total_ns(self, span_name: str) -> float:
        return self._get(self._total, span_name)

    def self_ns(self, span_name: str) -> float:
        return self._get(self._self, span_name)

    def prefix(self, layer: str) -> tuple[float, float]:
        """Calls and inclusive time of every span whose name starts with ``layer``."""
        picked = [i for i, n in enumerate(self.names) if n.startswith(layer)]
        return float(self._calls[picked].sum()), float(self._total[picked].sum())

    def session_children_ns(self) -> dict[str, float]:
        return {n: float(self._session_children[i]) for i, n in enumerate(self.names)
                if self._session_children[i]}
