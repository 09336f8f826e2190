"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gaussprg.cli  # noqa: E402
import gaussprg.generator  # noqa: E402
import gaussprg.harness  # noqa: E402
from gaussprg import _bits, designs, ptf  # noqa: E402

import run  # noqa: E402
from tracer import TARGETS, Span, Tracer, layer_metrics, metric_prefix, self_times  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _as_bytes(x) -> bytes:
    x = np.asarray(x)
    if x.dtype == object:
        return repr(x.tolist()).encode()
    return f"{x.dtype.str}{x.shape}".encode() + x.tobytes()


def _public_calls():
    cfg = gaussprg.generator.plan(3, 1, 1, 0.4, ell_cap=4)
    key = _bits.derive_key("ab", "test")
    poly = ptf.random_ptf(ptf.RandomPolyConfig(3, 2, 7)).poly
    X = np.random.default_rng(0).standard_normal((50, 3))
    seeds = np.arange(2 * cfg.kwise_order).reshape(2, -1) % cfg.q
    # Every call looks its function up at call time, as the package does.
    return [
        lambda: gaussprg.harness.sample_batch(cfg, "ab", 40, start=3),
        lambda: gaussprg.generator.sample_batch(cfg, "ab", 7),
        lambda: _bits.stream_words(key, 5, 4, 3),
        lambda: _bits.stream_bytes(key, 5, 4, 20),
        lambda: _bits.extract_blocks(_bits.stream_bytes(key, 0, 3, 40), 4, 61),
        lambda: poly.evaluate_batch(X),
        lambda: designs.design_sample_batch(cfg.sampler, seeds),
        lambda: ptf.eval_ptf_batch(ptf.PTF(poly), X),
    ]


def test_wrapped_functions_return_identical_bytes():
    calls = _public_calls()
    plain = [_as_bytes(call()) for call in calls]
    tracer = Tracer()
    with tracer.installed():
        traced = [_as_bytes(call()) for call in calls]
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"generator.sample_batch", "bits.stream_words", "bits.extract_blocks",
            "hermite.evaluate_batch", "designs.kwise_eval_batch"} <= names


def test_cli_output_identical_with_tracing(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))

    def sample(out):
        argv = ["sample", "--config", str(cfg), "--seed", "0bee", "--samples", "300", "--out", str(out)]
        assert gaussprg.cli.main(argv) == 0
        return out.read_bytes()

    plain = sample(tmp_path / "plain.jsonl")
    tracer = Tracer()
    with tracer.installed():
        traced = sample(tmp_path / "traced.jsonl")
    assert traced == plain
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]


def test_every_target_is_wrapped_and_restored():
    tracer = Tracer()
    before = {}
    for module, qualname in TARGETS:
        mod = sys.modules[f"gaussprg.{module}"]
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        before[(owner, attr)] = getattr(owner, attr)
    with tracer.installed():
        for (owner, attr), fn in before.items():
            assert getattr(owner, attr) is not fn, f"{owner}.{attr} not wrapped"
    for (owner, attr), fn in before.items():
        assert getattr(owner, attr) is fn


def _span(sid, start, end, parent=None, thread=1, name="x"):
    return Span(sid, name, start, end, parent, thread)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 5.0, 9.0, parent=0),
        _span(3, 6.0, 7.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_of_spans_on_two_threads():
    # A run_experiment span on the main thread (1) with pool spans on threads
    # 2 and 3 attached to it: they do not reduce its self time.
    spans = [
        _span(0, 0.0, 10.0, name="harness.run_experiment"),
        _span(1, 0.5, 6.0, parent=0, thread=2, name="generator.sample_batch"),
        _span(2, 1.0, 2.0, parent=1, thread=2, name="bits.stream_words"),
        _span(3, 0.5, 9.5, parent=0, thread=3, name="generator.sample_batch"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10.0, 1: 4.5, 2: 1.0, 3: 9.0})
    metrics = layer_metrics(spans, {}, wall_s=10.0, jobs=2, main_thread=1)
    assert metrics["harness.run_experiment.self_s"][0] == pytest.approx(10.0)
    assert metrics["generator.sample_batch.self_s"][0] == pytest.approx(13.5)
    assert metrics["generator.sample_batch.calls"][0] == 2
    assert metrics["layer.bits.self_s"][0] == pytest.approx(1.0)
    assert metrics["harness.parallel_efficiency"][0] == pytest.approx((5.5 + 9.0) / 20.0)
    assert metrics["trace.self_coverage"][0] == pytest.approx(1.0)


def test_pool_spans_attach_to_enclosing_experiment():
    tracer = Tracer()
    leaf = tracer.wrap("harness.estimate_gap", lambda i: i)

    def experiment():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(leaf, range(4)))

    assert tracer.wrap("harness.run_experiment", experiment)() == [0, 1, 2, 3]
    (root,) = [s for s in tracer.spans if s.name == "harness.run_experiment"]
    pool = [s for s in tracer.spans if s.name == "harness.estimate_gap"]
    assert len(pool) == 4
    assert all(s.parent == root.id and s.thread != threading.get_ident() for s in pool)
    assert self_times(tracer.spans)[root.id] == pytest.approx(root.duration)


def test_metric_names():
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.fullmatch(name), name
    produced = set(layer_metrics([], {}, wall_s=1.0, jobs=1, main_thread=1)) | {"trace.overhead"}
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}
    for module, qualname in TARGETS:
        assert NAME.fullmatch(metric_prefix(module, qualname) + ".calls")


def test_workload_tables_agree():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(WORKLOADS) == set(run.WORKLOAD_JOBS)


def test_seed_fixes_inputs(tmp_path):
    for name in WORKLOADS:
        assert op_seed(name, 7, 3) == op_seed(name, 7, 3)
        assert op_seed(name, 7, 3) != op_seed(name, 8, 3)
        assert op_seed(name, 7, 3) != op_seed(name, 7, 4)
    a = WORKLOADS["wide-q"](7, str(tmp_path), 1)
    b = WORKLOADS["wide-q"](7, str(tmp_path), 1)
    c = WORKLOADS["wide-q"](8, str(tmp_path), 1)
    assert a.seed_hex(0) == b.seed_hex(0) != c.seed_hex(0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "wide-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
