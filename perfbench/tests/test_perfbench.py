"""Tests of the benchmark itself: span arithmetic, hook restoration, inputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, by_name, coverage, self_times  # noqa: E402

# item [0, 10] holds a [1, 6] and d [7, 9]; a holds b [2, 4] and c [4.5, 5]
TREE = [
    ["item", 0.0, 10.0, None, 1],
    ["a", 1.0, 6.0, 0, 1],
    ["b", 2.0, 4.0, 1, 1],
    ["c", 4.5, 5.0, 1, 1],
    ["d", 7.0, 9.0, 0, 1],
]


def test_self_times_subtract_direct_children():
    assert self_times(TREE) == pytest.approx([3.0, 2.5, 2.0, 0.5, 2.0])


def test_by_name_and_coverage():
    spans = TREE + [["b", 10.0, 11.0, None, 2]]
    table = by_name(spans)
    assert table["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert table["a"]["self_s"] == pytest.approx(2.5)
    assert coverage(TREE) == pytest.approx(0.7)


def test_wrappers_nest_and_originals_come_back():
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules["fake_layer"] = mod
    seen = []
    try:
        with Tracer() as tracer:
            tracer.install([
                ("outer", [("fake_layer", "outer")], None),
                ("inner", [("fake_layer", "inner")],
                 lambda t, args, kwargs, result: seen.append(result)),
                (None, [("fake_layer", "absent")], None),
            ])
            assert tracer.run_item(7, mod.outer, 1) == 4
        assert mod.inner is inner and mod.outer is outer
    finally:
        del sys.modules["fake_layer"]
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("item", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert seen == [2]
    assert tracer.missing == ["fake_layer.absent"]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_melcert_hooks_install_and_restore():
    import importlib

    targets = [(m, a) for _name, pairs, _after in layers.HOOKS for m, a in pairs]
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    tracer = Tracer()
    tracer.install(layers.HOOKS)
    try:
        assert tracer.missing == []
        for (m, a), original in before.items():
            assert getattr(importlib.import_module(m), a) is not original
    finally:
        tracer.uninstall()
    for (m, a), original in before.items():
        assert getattr(importlib.import_module(m), a) is original


def _take(stream, n):
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", ["sweep", "high_degree"])
def test_count_inputs_deterministic_per_seed(name):
    w = workloads.make(name, run.ROOT, {})
    first = _take(w.inputs(3), 12)
    assert first == _take(w.inputs(3), 12)
    assert first != _take(w.inputs(4), 12)
    # a second pass revisits the whole pool with fresh factors
    size = w.pool_size
    passes = _take(w.inputs(3), 2 * size)
    assert sorted(k for k, *_ in passes[:size]) == list(range(size))
    assert sorted(k for k, *_ in passes[size:]) == list(range(size))
    assert passes[:size] != passes[size:]


def test_oracle_and_cli_inputs_deterministic_per_seed():
    oracle = workloads.make("oracle", run.ROOT, {})
    assert _take(oracle.inputs(3), 5) == _take(oracle.inputs(3), 5)
    assert _take(oracle.inputs(3), 5) != _take(oracle.inputs(4), 5)
    cli = workloads.make("cli", run.ROOT, {})
    pairs = len(cli.pairs())
    assert _take(cli.inputs(3), pairs) == _take(cli.inputs(3), pairs)
    assert _take(cli.inputs(3), pairs) != _take(cli.inputs(4), pairs)


class _Passes:
    """Three-item passes; item 5 fails its check."""

    pass_size = 3

    def run(self, item):
        return item

    def check(self, item, out):
        return "wrong" if item == 5 else None

    def undecided(self, out):
        return False


def test_measure_times_only_complete_passes():
    # a long deadline ends the loop only when the stream runs out
    result = run.measure(_Passes(), iter(range(8)), seconds=60)
    assert result["attempted"] == 8
    assert len(result["failures"]) == 1
    # passes 0-2 and 3-5 completed; 6 and 7 are checked but not timed
    assert len(result["latencies"]) == 5
    assert result["untimed"] == 2


def test_sweep_item_checks_against_reference():
    w = workloads.make("sweep", run.ROOT, {})
    item = next(w.inputs(0))
    report = w.run(item)
    assert w.check(item, report) is None
    k, fam, coeffs, ref = item
    wrong = [ref[0], ref[1] + 1, ref[2] + 1, ref[3]]
    assert "reference" in w.check((k, fam, coeffs, wrong), report)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
