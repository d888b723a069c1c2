"""The numpy/BLAS kernels against exact oracles: a brute-force stable argsort
for the neighbor search, scipy's LAPACK routine for the eigensolve, and a
plain-python sequential loop for the pair routing. Then the thread pool:
item order, the one-thread BLAS hold, exceptions and nested calls, and
results that do not depend on the BLAS thread count."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from vpcme import _kernels, ensemble, harness
from vpcme.constraints import ConstraintConfig, sample_constraints
from vpcme.dataset import MultiLabelDataset, save_csv, synthetic_dataset
from vpcme.ensemble import VpcmeConfig, predict_ensemble, train_single_mlknn, train_vpcme
from vpcme.harness import ExperimentConfig, cross_validate
from vpcme.mlknn import fit_mlknn, posterior_scores
from vpcme.projection import symmetric_eigen

SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_knn(train, queries, k, exclude_self):
    d2 = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(d2, order, axis=1)


def point_sets():
    rng = np.random.Generator(np.random.PCG64(2))
    yield "normal", rng.normal(size=(150, 7))
    yield "wide-scale", rng.normal(size=(120, 5)) * np.geomspace(1e-4, 1e4, 5)
    yield "offset", rng.normal(size=(100, 4)) + 1e5
    # duplicate-heavy integer grid: whole blocks of exact distance ties
    yield "grid", rng.integers(0, 3, size=(200, 3)).astype(float)
    yield "duplicates", np.repeat(rng.normal(size=(12, 6)), 15, axis=0)[rng.permutation(180)]
    # near-ties: clusters whose members differ in the last few bits
    centers = rng.normal(size=(30, 5))
    yield "near-ties", centers[rng.integers(0, 30, 160)] * (1.0 + 1e-15 * rng.integers(-4, 5, (160, 5)))
    # |q|^2 dwarfs the distances: the screen leaves it out of the product
    yield "offset-1e7", rng.normal(size=(100, 4)) + 1e7


POINTS = dict(point_sets())


def block_sizes(points):
    """The default KNN_BLOCK, then blocks of 7 rows (a ragged last block) and
    of one row, where the self-excluded diagonal and |q|^2 go per block."""
    return _kernels.KNN_BLOCK, 7 * len(points), len(points)


@pytest.mark.parametrize("name", list(POINTS))
@pytest.mark.parametrize("k", [1, 4, 10, 25])
def test_knn_self_search_matches_oracle(name, k, monkeypatch):
    points = POINTS[name]
    want_idx, want_dist = oracle_knn(points, points, k, True)
    for block in block_sizes(points):
        monkeypatch.setattr(_kernels, "KNN_BLOCK", block)
        idx, dist = _kernels.knn(points, points, k, exclude_self=True)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)


@pytest.mark.parametrize("name", list(POINTS))
@pytest.mark.parametrize("k", [1, 4, 10, 25])
def test_knn_query_search_matches_oracle(name, k, monkeypatch):
    points = POINTS[name]
    rng = np.random.Generator(np.random.PCG64(k))
    # half the queries are training rows, so exact ties with self occur too
    queries = np.concatenate([points[rng.integers(0, len(points), 40)],
                              points[:40] + rng.normal(size=(40, points.shape[1])) * 1e-3])
    want_idx, want_dist = oracle_knn(points, queries, k, False)
    for block in block_sizes(points):
        monkeypatch.setattr(_kernels, "KNN_BLOCK", block)
        idx, dist = _kernels.knn(points, queries, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)


@pytest.mark.parametrize("exclude_self", [True, False])
def test_knn_screen_needs_no_fallback_on_normal_data(exclude_self, monkeypatch):
    # a loose tolerance or a misplaced |q|^2 would quietly send rows to the
    # brute-force search; on well-separated data none should go there
    rng = np.random.Generator(np.random.PCG64(11))
    train = rng.normal(size=(2000, 31))
    queries = train if exclude_self else rng.normal(size=(500, 31))
    calls = []
    brute_force = _kernels._brute_force

    def spy(*args):
        calls.append(args[2].size)
        return brute_force(*args)

    monkeypatch.setattr(_kernels, "_brute_force", spy)
    _kernels.knn(train, queries, 10, exclude_self=exclude_self)
    assert calls == []


@pytest.mark.parametrize("shape", ["shared", "gathered"])
def test_squared_distances_equal_the_plain_expression(shape):
    rng = np.random.Generator(np.random.PCG64(12))
    for scale in (np.ones(9), np.geomspace(1e-6, 1e6, 9)):
        queries = rng.normal(size=(30, 9)) * scale
        rows = rng.normal(size=(40, 9) if shape == "shared" else (30, 18, 9)) * scale
        plain = ((queries[:, None, :] - rows) ** 2).sum(-1)
        assert plain.tobytes() == _kernels._squared_distances(queries, rows).tobytes()


def test_knn_small_sets_and_blocking(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(5))
    points = rng.integers(0, 4, size=(9, 2)).astype(float)
    for k in range(1, 9):  # every candidate count up to the whole set
        idx, _ = _kernels.knn(points, points, k, exclude_self=True)
        assert np.array_equal(idx, oracle_knn(points, points, k, True)[0])
    # tiny blocks: the result must not depend on how rows are grouped
    points = rng.normal(size=(70, 4))
    whole = _kernels.knn(points, points, 6, exclude_self=True)
    monkeypatch.setattr(_kernels, "KNN_BLOCK", 50)
    blocked = _kernels.knn(points, points, 6, exclude_self=True)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def test_knn_duplicates_break_ties_by_index():
    train = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 3)
    assert _kernels.knn(train, train, 3, exclude_self=True)[0][0].tolist() == [1, 2, 3]
    assert _kernels.knn(train, train, 3, exclude_self=True)[0][2].tolist() == [0, 1, 3]
    assert _kernels.knn(train, train[5:6], 3)[0].tolist() == [[4, 5, 6]]


@pytest.mark.parametrize("k", [2, 3, 6, 12, 40])
def test_symmetric_eigen_matches_scipy(k):
    rng = np.random.Generator(np.random.PCG64(k))
    base = rng.normal(size=(k, k))
    a = (base + base.T) / 2.0
    values, vectors = symmetric_eigen(a)
    ref_values, ref_vectors = scipy.linalg.eigh(a)
    assert np.allclose(values, ref_values[::-1], rtol=0, atol=1e-10)
    assert np.all(np.diff(values) <= 0.0)
    # same eigenvectors up to sign; the sign rule makes the largest entry positive
    assert np.allclose(np.abs(vectors.T @ ref_vectors[:, ::-1]), np.eye(k), atol=1e-8)
    lead = np.argmax(np.abs(vectors), axis=0)
    assert np.all(vectors[lead, np.arange(k)] > 0.0)
    assert np.max(np.abs(vectors @ np.diag(values) @ vectors.T - a)) < 1e-10
    assert np.max(np.abs(vectors.T @ vectors - np.eye(k))) < 1e-12


def test_symmetric_eigen_repeated_values_and_zero_matrix():
    values, vectors = symmetric_eigen(np.diag([1.0, 3.0, 3.0, -2.0]))
    assert values.tolist() == [3.0, 3.0, 1.0, -2.0]
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, np.diag([1.0, 3.0, 3.0, -2.0]))
    values, vectors = symmetric_eigen(np.zeros((3, 3)))
    assert values.tolist() == [0.0, 0.0, 0.0]
    assert np.allclose(vectors.T @ vectors, np.eye(3))


def route_sequential(cumw, uniforms, labels, theta, target_must, target_cannot):
    """One attempt at a time, as the sampling procedure is defined."""
    n = len(cumw)
    must, cannot = [], []
    for a in range(len(uniforms) // 2):
        if len(must) >= target_must and len(cannot) >= target_cannot:
            break
        i = min(int(np.searchsorted(cumw, uniforms[2 * a], side="right")), n - 1)
        j = min(int(np.searchsorted(cumw, uniforms[2 * a + 1], side="right")), n - 1)
        if i == j:
            continue
        inter = sum(1 for t in range(labels.shape[1]) if labels[i, t] and labels[j, t])
        denom = (int(labels[i].sum()) + int(labels[j].sum())) / 2.0
        ratio = 1.0 if denom == 0.0 else inter / denom
        if ratio >= theta:
            if len(must) < target_must:
                must.append((i, j))
        elif len(cannot) < target_cannot:
            cannot.append((i, j))
    return must, cannot


@pytest.mark.parametrize("first_step", [0, _kernels.ROUTE_FIRST_STEP])  # 0: steps of 1, 2, 4, ...
@pytest.mark.parametrize("theta", [0.0, 0.4, 0.8, 1.0])
def test_route_pairs_matches_sequential_reference(theta, first_step, monkeypatch):
    monkeypatch.setattr(_kernels, "ROUTE_FIRST_STEP", first_step)
    rng = np.random.Generator(np.random.PCG64(3))
    ds = synthetic_dataset(25, 3, 4, seed=1, label_noise=0.3)
    weights = rng.random(25)
    weights /= weights.sum()
    for targets in ((30, 30), (5, 60), (0, 12), (40, 0), (0, 0)):
        cfg = ConstraintConfig(theta=theta, target_must=targets[0], target_cannot=targets[1],
                               max_attempts=max(sum(targets), 1) * 3)
        sets = sample_constraints(ds, weights, cfg, np.random.Generator(np.random.PCG64(9)))
        uniforms = np.random.Generator(np.random.PCG64(9)).random(2 * cfg.max_attempts)
        must, cannot = route_sequential(np.cumsum(weights), uniforms, ds.labels, theta, *targets)
        assert sets.must.tolist() == [list(p) for p in must]
        assert sets.cannot.tolist() == [list(p) for p in cannot]


@pytest.mark.parametrize("k", [1, 3, 10])
def test_training_posteriors_match_a_second_search(k):
    rng = np.random.Generator(np.random.PCG64(k))
    # integer grid: many exact duplicates, so self lands behind lower-index twins
    points = rng.integers(0, 3, size=(150, 2)).astype(float)
    labels = rng.random((150, 4)) < 0.4
    model = fit_mlknn(points, labels, k, 1.0)
    assert np.array_equal(model.train_neighbors, oracle_knn(points, points, k, False)[0])
    searched = dataclasses.replace(model, train_neighbors=None)
    assert np.array_equal(posterior_scores(model, points.copy()), posterior_scores(searched, points))
    # a query matrix that differs in one entry is searched, not looked up
    moved = points.copy()
    moved[7, 0] += 0.5
    assert np.array_equal(posterior_scores(model, moved), posterior_scores(searched, moved))


def test_training_rows_are_scored_without_a_second_search(monkeypatch):
    ds = synthetic_dataset(80, 4, 3, seed=2)
    model = fit_mlknn(ds.features, ds.labels, 5, 1.0)
    calls = []
    monkeypatch.setattr(_kernels, "knn", lambda *args, **kwargs: calls.append(args))
    posterior_scores(model, ds.features)
    assert calls == []


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_cv_report_independent_of_blas_threads(tmp_path):
    # folds of 400 rows, so the kNN products are 400 x 400 GEMMs; the third
    # run is pinned to one CPU, so its folds run inline with BLAS at 2 threads
    ds = synthetic_dataset(600, 40, 4, seed=3, label_noise=0.1)
    data = tmp_path / "data.csv"
    save_csv(MultiLabelDataset(ds.features, ds.labels), data)
    reports = []
    runs = [("1", None), ("2", None)]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("2", _pin_to_one_cpu))
    for i, (threads, preexec) in enumerate(runs):
        out = tmp_path / f"report-{i}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "vpcme.cli", "cv", "--data", str(data), "--labels", "4",
             "--ensemble-size", "3", "--folds", "3", "--repeats", "1", "--out", str(out)],
            env=env, check=True, capture_output=True, preexec_fn=preexec,
        )
        reports.append(out.read_bytes())
    assert all(report == reports[0] for report in reports[1:])


def test_model_arrays_independent_of_blas_threads(tmp_path):
    # at 600 x 103 the scatter products and eigensolves round differently
    # with BLAS at 2 threads; training holds it at one, so every array of
    # the model file matches across thread counts and CPU counts
    data = tmp_path / "data.csv"
    save_csv(synthetic_dataset(600, 103, 14, seed=0), data)
    runs = [("1", None), ("2", None)]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("2", _pin_to_one_cpu))
    models = []
    for i, (threads, preexec) in enumerate(runs):
        out = tmp_path / f"model-{i}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "vpcme.cli", "train", "--data", str(data), "--labels", "14",
             "--ensemble-size", "3", "--seed", "1", "--out", str(out)],
            env=env, check=True, capture_output=True, preexec_fn=preexec,
        )
        with np.load(out) as model:
            models.append({key: model[key] for key in model.files})
    for other in models[1:]:
        assert other.keys() == models[0].keys()
        for key, value in models[0].items():
            assert other[key].tobytes() == value.tobytes(), key


# ---------------------------------------------------------------------------
# parallel_map: the thread pool under cross_validate and predict_ensemble
# ---------------------------------------------------------------------------


@pytest.fixture()
def two_workers(monkeypatch):
    """Open a two-worker pool even on a one-CPU machine."""
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)


@pytest.fixture()
def blas_at_two_threads():
    """OpenBLAS at 2 threads, so that a pool's hold at 1 shows; skip without OpenBLAS."""
    before = _kernels.blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
    _kernels._OPENBLAS[1](2)
    yield _kernels.blas_threads()
    _kernels._OPENBLAS[1](before)


def _tiny_cv_config(**overrides):
    return ExperimentConfig(**dict(ensemble_size=2, k_neighbors=3, folds=3, repeats=2, seed=4, **overrides))


def test_parallel_map_keeps_item_order(two_workers):
    def slow_first(i):
        time.sleep(0.02 * (5 - i))
        return i * i

    assert _kernels.parallel_map(slow_first, range(6)) == [i * i for i in range(6)]
    assert _kernels.parallel_map(slow_first, []) == []


def test_pool_holds_blas_at_one_thread_and_restores_it(two_workers, blas_at_two_threads):
    seen = _kernels.parallel_map(lambda _: _kernels.blas_threads(), range(4))
    assert seen == [1, 1, 1, 1]
    assert _kernels.blas_threads() == blas_at_two_threads

    ds = synthetic_dataset(60, 5, 3, seed=1)
    cross_validate(_tiny_cv_config(), ds)
    assert _kernels.blas_threads() == blas_at_two_threads
    model = train_vpcme(ds, VpcmeConfig(ensemble_size=3, k_neighbors=3))
    predict_ensemble(model, ds.features)
    assert _kernels.blas_threads() == blas_at_two_threads


def test_inline_training_holds_blas_at_one_thread_and_restores_it(monkeypatch, blas_at_two_threads):
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 1)
    seen = []
    fit_mlknn_ = ensemble.fit_mlknn

    def spy(*args):
        seen.append(_kernels.blas_threads())
        return fit_mlknn_(*args)

    monkeypatch.setattr(ensemble, "fit_mlknn", spy)
    ds = synthetic_dataset(60, 5, 3, seed=1)
    train_vpcme(ds, VpcmeConfig(ensemble_size=3, k_neighbors=3))
    assert _kernels.blas_threads() == blas_at_two_threads
    train_single_mlknn(ds, VpcmeConfig(k_neighbors=3))
    assert _kernels.blas_threads() == blas_at_two_threads
    assert seen == [1, 1, 1, 1]
    assert _kernels.parallel_map(lambda _: _kernels.blas_threads(), range(3)) == [1, 1, 1]
    assert _kernels.blas_threads() == blas_at_two_threads


def test_fold_unit_exception_reaches_the_caller(two_workers, monkeypatch):
    cfg = _tiny_cv_config()
    failing_seed = harness._train_seed(cfg.seed, 0, 1)
    boom = RuntimeError("fold unit failed")
    train_method = harness.train_method

    def flaky(cfg, train_ds, seed):
        if seed == failing_seed:
            raise boom
        return train_method(cfg, train_ds, seed)

    monkeypatch.setattr(harness, "train_method", flaky)
    before = _kernels.blas_threads()
    with pytest.raises(RuntimeError) as info:
        cross_validate(cfg, synthetic_dataset(60, 5, 3, seed=1))
    assert info.value is boom
    assert _kernels.blas_threads() == before


def test_parallel_map_in_a_worker_runs_inline(two_workers):
    def outer(_):
        inner = _kernels.parallel_map(lambda _: threading.get_ident(), range(3))
        return threading.get_ident(), inner

    results = _kernels.parallel_map(outer, range(2))
    for ident, inner in results:
        assert ident != threading.get_ident()
        assert inner == [ident, ident, ident]


def test_concurrent_pools_share_one_blas_hold(monkeypatch, blas_at_two_threads):
    # more pools and workers than cores, with fast thread switching: a lost
    # update on the shared hold would let an item see BLAS above one thread
    # or leave it at one after the last pool closes
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 4)
    seen = []

    def item(_):
        time.sleep(0.001)
        return _kernels.blas_threads()

    def caller():
        for _ in range(20):
            seen.extend(_kernels.parallel_map(item, range(8)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert seen == [1] * (6 * 20 * 8)
    assert _kernels.blas_threads() == blas_at_two_threads
