"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import vpcme  # noqa: E402
import vpcme.cli  # noqa: E402
import vpcme.ensemble  # noqa: E402
import vpcme.metrics  # noqa: E402
import vpcme.mlknn  # noqa: E402

import run  # noqa: E402
from spans import Tracer, op_metrics  # noqa: E402
from workloads import average_precision, hamming_loss  # noqa: E402


def test_smoke_emits_every_named_metric_with_its_unit(tmp_path):
    assert run.smoke(tmp_path) == []


def test_tracer_wraps_every_binding_and_restores_them():
    bindings = [
        (vpcme.mlknn, "fit_mlknn"),
        (vpcme.ensemble, "fit_mlknn"),
        (vpcme, "fit_mlknn"),
        (vpcme.cli, "cross_validate"),
    ]
    originals = [getattr(module, attr) for module, attr in bindings]
    with Tracer():
        wrapped = [getattr(module, attr) for module, attr in bindings]
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert wrapped[0] is wrapped[1] is wrapped[2]
    assert [getattr(module, attr) for module, attr in bindings] == originals


def test_absent_functions_read_zero():
    metrics = op_metrics([], 1.0)
    assert metrics["mlknn.train_predict_s"] == 0.0
    assert metrics["constraints.calls"] == 0
    assert metrics["projection.kept_dim_ratio"] == 0.0


def test_traced_training_accounts_for_its_wall_time():
    ds = vpcme.synthetic_dataset(60, 5, 3, seed=0)
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        vpcme.ensemble.train_vpcme(ds, vpcme.VpcmeConfig(ensemble_size=2, k_neighbors=3))
        wall = time.perf_counter() - start
    metrics = op_metrics(tracer.spans, wall)
    assert metrics["ensemble.members"] == 2
    assert metrics["constraints.calls"] == 2
    assert metrics["projection.eigen_order"] == 5
    assert metrics["mlknn.train_predict_s"] > 0.0
    assert metrics["mlknn.test_predict_s"] == 0.0
    assert metrics["mlknn.distance_evals"] == 2 * (60 * 60 + 60 * 60)
    assert 0.9 < metrics["trace.accounted_ratio"] <= 1.0


def test_quality_functions_match_the_library_metrics():
    rng = np.random.default_rng(3)
    truth = rng.random((200, 6)) < 0.3
    truth[np.arange(200), rng.integers(0, 6, 200)] = True
    scores = np.round(rng.random((200, 6)), 1)  # coarse, so ties occur
    predicted = scores > 0.5
    assert hamming_loss(truth, predicted) == vpcme.metrics.hamming_loss(truth, predicted)
    ranks = vpcme.metrics.rank_from_scores(scores)
    assert np.isclose(average_precision(truth, scores), vpcme.metrics.average_precision(truth, ranks))
