"""Self-tests of the benchmark's own oracles and tracer, on hand-made cases.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_ranking_brute_force_hand_case():
    # q0 (id 0, cam 0): g0 shares id and camera and is dropped; the match g2 is 2nd.
    # q1 (id 1, cam 0): matches g1 (1st) and g4, which ties g2 at 0.3 and loses
    #   on gallery index, so it is 4th: AP = (1/1 + 2/4) / 2.
    # q2 (id 2, cam 0): its only same-id entry g3 shares its camera: excluded.
    dist = np.array([[0.1, 0.2, 0.3, 0.4, 0.5],
                     [0.5, 0.05, 0.3, 0.1, 0.3],
                     [0.1, 0.2, 0.3, 0.4, 0.5]])
    qid, qcam = np.array([0, 1, 2]), np.array([0, 0, 0])
    gid, gcam = np.array([0, 1, 0, 2, 1]), np.array([0, 1, 1, 0, 1])
    cmc, mean_ap, excluded = oracles.ranking_brute_force(dist, qid, gid, qcam, gcam, 3)
    assert cmc.tolist() == [0.5, 1.0, 1.0]
    assert mean_ap == (0.5 + 0.75) / 2
    assert excluded == 1


def test_batch_hard_triplet_hand_case():
    # 1-d points 0, 1 (label 0) and 3, 6 (label 1); only anchor 3 is active:
    # farthest positive 3, nearest negative 2 -> 0.3 + 3 - 2 = 1.3, over 4 anchors.
    features = np.array([[0.0], [1.0], [3.0], [6.0]])
    assert math.isclose(oracles.batch_hard_triplet(features, [0, 0, 1, 1], 0.3), 1.3 / 4)


def test_label_smoothed_ce_hand_cases():
    log_z = math.log(math.exp(2.0) + 2.0)
    expected = log_z - 2.0 * (0.9 + 0.1 / 3)
    assert math.isclose(oracles.label_smoothed_ce([[2.0, 0.0, 0.0]], [0], 0.1), expected)
    assert math.isclose(oracles.label_smoothed_ce(np.zeros((2, 4)), [1, 3], 0.25), math.log(4))


def test_pk_batch():
    assert oracles.is_pk_batch([3, 3, 1, 1], 2, 2)
    assert not oracles.is_pk_batch([3, 3, 3, 1], 2, 2)
    assert not oracles.is_pk_batch([0, 0, 1, 1, 2, 2], 2, 2)


def _ticks():
    state = {"now": 0}

    def clock():
        state["now"] += 1
        return float(state["now"])       # one second, 1000 ms, per reading
    return clock


def test_backward_split_sums_to_engine_time_with_a_fake_clock():
    from cstnet import tensor as t
    tracer = tracing.Tracer(clock=_ticks())
    tracer.install()
    try:
        x = t.Tensor(np.ones(3), requires_grad=True)
        h = tracer.scoped("stage2", "fwd.stage2_ms", lambda a: t.mul(a, a), (x,), {})
        loss = tracer.scoped("loss", "losses.ms", lambda a: t.tsum(t.relu(a)), (h,), {})
        t.scale(loss, 2.0).backward()
    finally:
        tracer.remove()
    layer = tracer.report(1)
    # four backward rules, two readings (1000 ms) each; the engine's own
    # readings bracket them: 9 readings apart
    assert layer["bwd.stage2_ms"] == 1000.0
    assert layer["bwd.loss_ms"] == 2000.0
    assert layer["bwd.other_ms"] == 1000.0
    assert layer["engine.backward_ms"] == 9000.0
    assert layer["bwd.engine_ms"] == 5000.0
    assert layer["bwd_op.elementwise_ms"] == 4000.0
    assert layer["graph.nodes"] == 4
    assert layer["graph.saved_mb"] == 2 * x.data.nbytes / 2 ** 20    # x (shared) and relu's input
    assert run.backward_split_check(layer)[1]
    assert x.grad.tolist() == [4.0, 4.0, 4.0]


def test_backward_split_on_a_small_model():
    from cstnet.losses import label_smooth_ce
    from cstnet.model import Cstnet, CstnetConfig
    cfg = CstnetConfig(num_identities=4, clip_len=2, frame_h=16, frame_w=8,
                       stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                       csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                       sti_channels=4, sti_pool_h=2, sti_pool_w=1, dtype="f64", seed=3)
    net = Cstnet(cfg)
    clips = np.random.default_rng(0).random((2, 2, 3, 16, 8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, logits = net(clips)
        label_smooth_ce(logits, np.array([0, 1]), 0.1).backward()
    finally:
        tracer.remove()
    layer = tracer.report(1)
    for module in tracing.MODULES:
        assert layer[f"fwd.{module}_ms"] > 0, module
        assert layer[f"bwd.{module}_ms"] > 0, module
    assert layer["bwd.engine_ms"] >= 0
    assert run.backward_split_check(layer)[1]
    assert net.stage2.__class__.__name__ == "ResidualStage"        # stand-ins removed


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_METRICS
