"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import sys
from fractions import Fraction

import pytest

from run import ROOT, Runner

sys.path.insert(0, str(ROOT / "src"))

import teichkit.cli  # noqa: E402
import teichkit.flags  # noqa: E402
import teichkit.linalg  # noqa: E402
import teichkit.surface  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # op [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 4]; a also had
    # 0.5 s of leaf calls and b 0.25 s of tracer bookkeeping
    spans = [
        ["bench.op", 0.0, 10.0, -1, "0:0", 0.0],
        ["snakes.transport", 1.0, 6.0, 0, "0:0", 0.5],
        ["linalg.mat_prod", 2.0, 4.0, 1, "0:0", 0.0],
        ["surface.path_matrix", 7.0, 9.0, 0, "0:0", 0.25],
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 2.0, 1.75]

    tracer = tracing.Tracer()
    tracer.spans = spans
    tracer.leaf = {"linalg.mat_mul": [4, 0.5]}
    tracer.overhead_s = 0.25
    metrics, op_s, accounted = tracing.per_layer(tracer)
    assert op_s == accounted == 10.0
    assert metrics["snakes.self_s"] == 2.5
    assert metrics["linalg.self_s"] == 2.5
    assert metrics["surface.self_s"] == 1.75
    assert metrics["bench.self_s"] == 3.25
    assert metrics["linalg.mat_mul.calls"] == 4


def _fingerprint(op):
    args = op.args
    if op.kind == "holonomy":
        args = tuple(open(p).read() for p in args)
    elif op.kind == "fhs":
        args = {t: sorted(a.values.items()) for t, a in args.items()}
    return op.key, op.cls, repr(args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    def round_of(seed):
        ops = workloads.make_round(workload, seed, 1, tmp_path / str(seed))
        return [_fingerprint(op) for op in ops]

    first = round_of(5)
    assert first == round_of(5)
    assert first != round_of(6)
    counts = {}
    for _, cls, _ in first:
        counts[cls] = counts.get(cls, 0) + 1
    assert counts == {
        workloads.class_label(k, n): c for k, n, c in workloads.CLASSES[workload]
    }


def test_flag_filters_match_teichkit():
    rng = workloads.random.Random(1)
    for _ in range(20):
        rows = workloads.generic_triple(rng, 3)
        assert teichkit.flags.general_position(*(teichkit.flags.Flag(r) for r in rows))
        rows = workloads.degenerate_triple(rng, 3)
        assert not teichkit.flags.general_position(*(teichkit.flags.Flag(r) for r in rows))
        assert not workloads.direct_sum_generic(*rows)
    # a triple whose first lines are coplanar: general position, not direct sum
    coplanar = ([[0, 0, 2], [0, -1, 1], [1, -1, 2]],
                [[2, 0, 0], [1, 1, 0], [0, 1, 2]],
                [[2, 0, 1], [-1, 1, 2], [0, 1, 1]])
    assert workloads.intersections_generic(*coplanar)
    assert not workloads.direct_sum_generic(*coplanar)


def _small_ops(workload, seed, max_n=3, kind=None):
    ops = workloads.make_round(workload, seed, 0, Runner(workload, seed).input_dir)
    return [op for op in ops if op.n <= max_n and kind in (None, op.kind)][:20]


def test_clean_ops_pass():
    runner = Runner("glued-transport", workloads.DEFAULT_SEED)
    for op in _small_ops("glued-transport", workloads.DEFAULT_SEED):
        runner.run_op(op)
    assert runner.failures == []


def test_wrong_verdict_counts_as_failed(monkeypatch):
    # the CLI imported is_scalar_matrix by name, so substitute it there too
    for mod in (teichkit.linalg, teichkit.cli):
        monkeypatch.setattr(mod, "is_scalar_matrix", lambda a: None)
    runner = Runner("glued-transport", 3)
    ops = _small_ops("glued-transport", 3, kind="verify")[:4]
    ops += _small_ops("glued-transport", 3, kind="fhs")[:2]
    for op in ops:
        runner.run_op(op)
    failed = {f.split()[1].rstrip(":") for f in runner.failures}
    assert len(runner.failures) / runner.attempted > 0
    assert {"transport-n3", "fhs-n3"} <= failed


def test_projectively_equal_but_different_output_fails_the_digest(monkeypatch):
    # doubling every loop matrix keeps the loop product scalar, so only the
    # default seed's reference digests can notice
    real = teichkit.surface.path_matrix

    def doubled(surf, word):
        return teichkit.linalg.mat_scale(Fraction(2), real(surf, word))

    monkeypatch.setattr(teichkit.surface, "path_matrix", doubled)
    runner = Runner("glued-transport", workloads.DEFAULT_SEED)
    fhs = _small_ops("glued-transport", workloads.DEFAULT_SEED, kind="fhs")
    assert fhs
    for op in fhs:
        assert workloads.check(op, workloads.execute(op))
        runner.run_op(op)
    assert len(runner.failures) == len(fhs)
    assert all("reference.json" in f for f in runner.failures)


def test_traced_ops_give_the_same_outputs_and_add_up():
    runner = Runner("flag-config", workloads.DEFAULT_SEED)
    runner.tracer = tracing.Tracer()
    runner.tracer.install()
    try:
        for op in _small_ops("flag-config", workloads.DEFAULT_SEED, max_n=4):
            runner.run_op(op)
    finally:
        runner.tracer.op_id = None
    assert runner.failures == []
    metrics, op_s, accounted = tracing.per_layer(runner.tracer)
    assert abs(op_s - accounted) <= 1e-9 * op_s
    assert metrics["flags.general_position.calls"] > 0
    assert metrics["surface.self_s"] == 0.0
