"""The names the benchmark under bench/ reaches into the program by must keep resolving."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


def test_traced_names_resolve(bench):
    spans, _ = bench
    from cdiqkd import harness

    for module, attr, span_name in spans.SHIMS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span_name})"
    assert callable(harness.make_device)


def test_session_workload_configs_validate(bench, tmp_path):
    _, workloads = bench
    for workload, spec in workloads.SESSIONS.items():
        for rounds in (None, spec.check_rounds):
            config = workloads.session_config(workload, 1, 0, str(tmp_path), rounds)
            config.validate()
