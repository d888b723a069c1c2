"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured margin (run with ``pytest tests/test_acceptance.py -v -s``).

Every oracle here is self-contained: brute-force neighbor searches, direct
pair enumeration, and set arithmetic written against the definitions, not
against the library internals.
"""

import json
import os
import time

import numpy as np
import pytest

from vpcme.cli import main as cli_main
from vpcme.constraints import ConstraintConfig, PairConstraintSets, sample_constraints
from vpcme.dataset import MultiLabelDataset, load_csv, save_csv, synthetic_dataset
from vpcme.ensemble import VpcmeConfig, predict_ensemble, train_vpcme
from vpcme.harness import ExperimentConfig, SweepSpec, compare_methods, cross_validate, run_sweep
from vpcme.metrics import evaluate_all, rank_from_scores
from vpcme.mlknn import fit_mlknn, posterior_scores
from vpcme.projection import fit_projection, scatter_matrices


def report(criterion, detail):
    print(f"[acceptance] PASS criterion {criterion}: {detail}")


def random_constraint_problem(rng, max_k=8):
    n = int(rng.integers(6, 24))
    k = int(rng.integers(2, max_k + 1))
    x = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0)
    y = rng.random((n, 3)) < rng.uniform(0.2, 0.8)
    ds = MultiLabelDataset(x, y)

    def pair_list(count):
        if count == 0:
            return np.empty((0, 2), np.int64)
        ii = rng.integers(0, n, size=count)
        jj = rng.integers(0, n, size=count)
        fix = ii == jj
        jj[fix] = (ii[fix] + 1) % n
        return np.stack([ii, jj], axis=1).astype(np.int64)

    sets = PairConstraintSets(
        must=pair_list(int(rng.integers(0, 2 * n))),
        cannot=pair_list(int(rng.integers(0, 2 * n))),
    )
    return ds, sets


def test_criterion_1_projection_correctness():
    """Orthonormal columns and the trace identity on 200 random problems."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2024))
    worst_gram = 0.0
    worst_trace = 0.0
    for _ in range(200):
        ds, sets = random_constraint_problem(rng)
        model = fit_projection(ds, sets)
        gram_err = np.max(np.abs(model.w.T @ model.w - np.eye(model.reduced_dim)))
        pair = scatter_matrices(ds, sets)
        diff = pair.s_cannot - model.scaling_r * pair.s_must
        trace = float(np.trace(model.w.T @ diff @ model.w))
        trace_err = abs(trace - model.objective)
        worst_gram = max(worst_gram, gram_err)
        worst_trace = max(worst_trace, trace_err)
        assert gram_err < 1e-8
        assert trace_err < 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"200 problems, worst orthonormality {worst_gram:.2e}, "
              f"worst trace gap {worst_trace:.2e}, {elapsed:.1f}s")


def one_direction_problem(seed):
    """Cannot-link pairs stretched along one axis force a one-dim keep set."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, k = 14, 4
    x = rng.normal(size=(n, k)) * 0.3
    direction = rng.normal(size=k)
    direction /= np.linalg.norm(direction)
    x[n // 2 :] += direction * 5.0
    ds = MultiLabelDataset(x, rng.random((n, 3)) < 0.5)
    cannot = np.array([(i, j) for i in range(n // 2) for j in range(n // 2, n)][:10])
    must = np.array(
        [(i, i + 1) for i in range(0, n // 2 - 1)]
        + [(i, i + 1) for i in range(n // 2, n - 1)]
    )
    return ds, PairConstraintSets(must=must, cannot=cannot)


def test_criterion_2_projection_optimality():
    """Fitted objective beats 1000 random unit directions in 50 d=1 cases."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(4048))
    checked = 0
    seed = 0
    min_margin = np.inf
    while checked < 50:
        ds, sets = one_direction_problem(seed)
        seed += 1
        model = fit_projection(ds, sets)
        if model.reduced_dim != 1:
            continue
        pair = scatter_matrices(ds, sets)
        diff = pair.s_cannot - model.scaling_r * pair.s_must
        u = rng.normal(size=(1000, ds.feature_count))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rayleigh = np.einsum("ij,jk,ik->i", u, diff, u)
        assert model.objective >= rayleigh.max()
        min_margin = min(min_margin, model.objective - rayleigh.max())
        checked += 1
    assert seed <= 200, "generator failed to produce enough d=1 cases"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"50 cases x 1000 directions, smallest margin {min_margin:.2e}, {elapsed:.1f}s")


# --- criterion 3: brute-force MLKNN oracle ---------------------------------


def brute_neighbors(points, query, k, exclude=None):
    ranked = []
    for j, p in enumerate(points):
        if exclude is not None and j == exclude:
            continue
        dist = sum((float(a) - float(b)) ** 2 for a, b in zip(query, p))
        ranked.append((dist, j))
    ranked.sort()
    return [j for _, j in ranked[:k]]


def brute_mlknn(points, labels, k, s, queries):
    n, r = len(points), len(labels[0])
    prior = [(s + sum(row[l] for row in labels)) / (2 * s + n) for l in range(r)]
    freq_pos = [[0] * (k + 1) for _ in range(r)]
    freq_neg = [[0] * (k + 1) for _ in range(r)]
    for i in range(n):
        neigh = brute_neighbors(points, points[i], k, exclude=i)
        for l in range(r):
            c = sum(1 for j in neigh if labels[j][l])
            (freq_pos if labels[i][l] else freq_neg)[l][c] += 1
    all_scores = []
    for query in queries:
        neigh = brute_neighbors(points, query, k)
        row = []
        for l in range(r):
            c = sum(1 for j in neigh if labels[j][l])
            n_pos = sum(freq_pos[l])
            like_pos = (s + freq_pos[l][c]) / (s * (k + 1) + n_pos)
            like_neg = (s + freq_neg[l][c]) / (s * (k + 1) + (n - n_pos))
            num = prior[l] * like_pos
            row.append(num / (num + (1 - prior[l]) * like_neg))
        all_scores.append(row)
    return prior, freq_pos, freq_neg, all_scores


def test_criterion_3_mlknn_oracle_equivalence():
    """Tables and posteriors match the brute-force recount on 100 datasets."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(99))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 26))
        d = int(rng.integers(1, 5))
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(6, n)))
        points = rng.normal(size=(n, d))
        labels = rng.random((n, r)) < rng.uniform(0.2, 0.8)
        queries = rng.normal(size=(3, d))
        model = fit_mlknn(points, labels, k_neighbors=k, smoothing=1.0)
        scores = posterior_scores(model, queries)
        prior, fpos, fneg, want_scores = brute_mlknn(
            points.tolist(), labels.tolist(), k, 1.0, queries.tolist()
        )
        assert np.array_equal(model.freq_pos, fpos)
        assert np.array_equal(model.freq_neg, fneg)
        prior_err = np.max(np.abs(model.prior_pos - prior))
        score_err = np.max(np.abs(scores - want_scores))
        worst = max(worst, prior_err, score_err)
        assert prior_err < 1e-12
        assert score_err < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"100 datasets, worst deviation {worst:.2e}, {elapsed:.1f}s")


# --- criterion 4: metric enumeration oracles --------------------------------


def enum_metrics(y, z, ranks):
    m = len(ranks)
    rel = {l for l in range(m) if y[l]}
    irr = set(range(m)) - rel
    out = {"hamming": sum(1 for l in range(m) if y[l] != z[l]) / m}
    out["ranking"] = (
        sum(1 for a in rel for b in irr if ranks[a] > ranks[b]) / (len(rel) * len(irr))
        if rel and irr
        else None
    )
    if rel:
        top = min(range(m), key=lambda l: ranks[l])
        out["one_error"] = 0.0 if top in rel else 1.0
        out["avgprec"] = sum(
            sum(1 for l2 in rel if ranks[l2] <= ranks[l]) / ranks[l] for l in rel
        ) / len(rel)
    else:
        out["one_error"] = None
        out["avgprec"] = None
    out["coverage"] = max((ranks[l] for l in rel), default=1) - 1 if rel else 0
    pred = {l for l in range(m) if z[l]}
    denom = len(rel) + len(pred)
    out["f1"] = 1.0 if denom == 0 else 2 * len(rel & pred) / denom
    if rel:
        out["recall"] = len(rel & pred) / len(rel)
    else:
        out["recall"] = 1.0 if not pred else None
    return out


def test_criterion_4_metric_oracles():
    """Seven metrics vs exhaustive enumeration on 1000 random instances."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(314))
    names = {
        "hamming": "hamming_loss",
        "ranking": "ranking_loss",
        "one_error": "one_error",
        "coverage": "coverage",
        "avgprec": "average_precision",
        "f1": "f1",
        "recall": "recall",
    }
    instances = 0
    while instances < 1000:
        n = int(rng.integers(4, 50))
        m = int(rng.integers(2, 7))
        truths = rng.random((n, m)) < rng.uniform(0.2, 0.8)
        truths[0] = False
        truths[0, 0] = True  # keep the skipping metrics defined
        preds = rng.random((n, m)) < 0.5
        scores = rng.random((n, m))
        ties = rng.random(n) < 0.3  # tied scores exercise the rank tie rule
        scores[ties] = np.round(scores[ties], 1)
        ranks = rank_from_scores(scores)
        per_instance = [
            enum_metrics(truths[i].tolist(), preds[i].tolist(), ranks[i].tolist())
            for i in range(n)
        ]
        got = evaluate_all(truths, preds, scores)
        for short, full in names.items():
            kept = [row[short] for row in per_instance if row[short] is not None]
            if not kept:
                continue
            want = sum(kept) / len(kept)
            assert abs(got[full].value - want) < 1e-12, full
        instances += n

    # worked single-instance examples, reproduced exactly as their hand
    # evaluations: 1/2, and (1/1 + 2/3)/2 = 5/6
    assert evaluate_all([[1, 0, 0]], [[1, 0, 0]], [[0.5, 0.9, 0.1]])["ranking_loss"].value == 0.5
    assert (
        evaluate_all([[1, 1, 0]], [[1, 1, 0]], [[0.9, 0.2, 0.5]])["average_precision"].value
        == (1 / 1 + 2 / 3) / 2
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"{instances} instances enumerated, worked examples exact, {elapsed:.1f}s")


def test_criterion_5_constraint_routing():
    """1e5 sampled pairs re-checked against direct ratio evaluation."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(55))
    ds = synthetic_dataset(80, 3, 4, seed=8)
    label_sets = [set(np.flatnonzero(row)) for row in ds.labels]
    weights = np.full(80, 1 / 80)
    total_pairs = 0
    for theta in (0.0, 0.3, 0.6, 1.0):
        cfg = ConstraintConfig(theta=theta, target_must=20_000, target_cannot=20_000)
        sets = sample_constraints(ds, weights, cfg, rng)
        for kind, pairs in (("must", sets.must), ("cannot", sets.cannot)):
            for i, j in pairs:
                si, sj = label_sets[i], label_sets[j]
                denom = (len(si) + len(sj)) / 2.0
                ratio = 1.0 if denom == 0 else len(si & sj) / denom
                if kind == "must":
                    assert ratio >= theta
                else:
                    assert ratio < theta
            total_pairs += len(pairs)
        # degenerate thresholds must terminate through the attempt cap with
        # one side empty
        if theta == 0.0:
            assert sets.n_cannot == 0 and sets.n_must == 20_000
        if theta == 1.0:
            assert sets.n_cannot == 20_000
    assert total_pairs >= 100_000
    elapsed = time.perf_counter() - started
    report(5, f"{total_pairs} routed pairs verified across four thresholds, {elapsed:.1f}s")


def test_criterion_6_ensemble_size_trend():
    """Desk-scale ensemble-size sweep: S=20 at least matches S=1."""
    started = time.perf_counter()
    h1, h20, a1, a20 = [], [], [], []
    for seed in range(20):
        ds = synthetic_dataset(300, 6, 3, seed=1000 + seed, label_noise=0.1)
        cfg = ExperimentConfig(method="vpcme", k_neighbors=10, folds=5, repeats=1, seed=seed)
        by_size = dict(run_sweep(cfg, SweepSpec("ensemble_size", (1, 20)), dataset=ds))
        h1.append(by_size[1].metrics["hamming_loss"].mean)
        h20.append(by_size[20].metrics["hamming_loss"].mean)
        a1.append(by_size[1].metrics["average_precision"].mean)
        a20.append(by_size[20].metrics["average_precision"].mean)
    elapsed = time.perf_counter() - started
    mean_h1, mean_h20 = np.mean(h1), np.mean(h20)
    mean_a1, mean_a20 = np.mean(a1), np.mean(a20)
    assert mean_h20 <= mean_h1 + 0.005
    assert mean_a20 >= mean_a1 - 0.005
    assert elapsed < 180.0
    report(6, f"hamming {mean_h1:.4f}->{mean_h20:.4f}, "
              f"avg precision {mean_a1:.4f}->{mean_a20:.4f} over 20 seeds, {elapsed:.1f}s")


def test_criterion_7_byte_identical_reports(tmp_path):
    """Two identical cv invocations write byte-identical JSON."""
    ds = synthetic_dataset(40, 3, 3, seed=5, label_noise=0.1)
    data = str(tmp_path / "data.csv")
    save_csv(ds, data)
    argv = [
        "cv", "--data", data, "--labels", "3", "--method", "vpcme",
        "--ensemble-size", "2", "--k", "5", "--folds", "3", "--repeats", "2",
        "--seed", "11",
    ]
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert cli_main(argv + ["--out", out_a]) == 0
    assert cli_main(argv + ["--out", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    assert bytes_a == bytes_b
    report(7, f"two cv runs, {len(bytes_a)} identical bytes")


def _public_dataset(name, label_count):
    root = os.environ.get("VPCME_DATASETS")
    if not root:
        pytest.skip("set VPCME_DATASETS to a directory with yeast.csv/scene.csv")
    path = os.path.join(root, f"{name}.csv")
    if not os.path.exists(path):
        pytest.skip(f"{path} not found")
    return load_csv(path, label_count)


@pytest.mark.parametrize(
    "name,label_count,reference_hamming",
    [("yeast", 14, 0.1929), ("scene", 6, 0.0890)],
)
def test_criterion_8_public_datasets(name, label_count, reference_hamming):
    """Dataset-dependent check against the published MLKNN numbers."""
    ds = _public_dataset(name, label_count)
    single_cfg = ExperimentConfig(
        method="mlknn_single", k_neighbors=10, folds=5, repeats=1, seed=0
    )
    single = cross_validate(single_cfg, dataset=ds)
    single_hamming = single.metrics["hamming_loss"].mean
    assert abs(single_hamming - reference_hamming) <= 0.02
    ensemble_cfg = ExperimentConfig(
        method="vpcme", theta=0.6, ensemble_size=30, k_neighbors=10,
        folds=5, repeats=1, seed=0,
    )
    ensemble = cross_validate(ensemble_cfg, dataset=ds)
    assert (
        ensemble.metrics["ranking_loss"].mean
        <= single.metrics["ranking_loss"].mean
    )
    report(8, f"{name}: single hamming {single_hamming:.4f} "
              f"(reference {reference_hamming}), ensemble ranking loss "
              f"{ensemble.metrics['ranking_loss'].mean:.4f} <= "
              f"{single.metrics['ranking_loss'].mean:.4f}")
