import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme.dataset import (
    MultiLabelDataset,
    compute_stats,
    kfold_split,
    load_csv,
    load_features,
    save_csv,
    synthetic_dataset,
)
from vpcme.errors import ConfigError, CsvFormatError, ValidationError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# the dataset reader and the features reader share one parser; each
# malformed-input case below runs through both
LOADERS = [load_csv, load_features]


class TestLoadCsv:
    def test_two_line_file(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1,0\n3.0,4.0,0,1\n")
        ds = load_csv(path, label_count=2)
        assert ds.instance_count == 2
        assert ds.feature_count == 2
        assert ds.label_count == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [[True, False], [False, True]])

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = write(tmp_path, "1.0,x,1,0\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError, match="line 1"):
                loader(path, label_count=2)

    def test_label_count_consumes_all_columns(self, tmp_path):
        path = write(tmp_path, "1,0,1\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError, match="no feature columns"):
                loader(path, label_count=3)

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1,0\n1.0,1,0\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError, match="line 2"):
                loader(path, label_count=2)

    def test_label_outside_zero_one(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1,2\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError, match="line 1"):
                loader(path, label_count=2)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = write(tmp_path, "inf,2.0,1,0\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError, match="line 1"):
                loader(path, label_count=2)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError):
                loader(path, label_count=2)

    def test_single_label_column_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1\n")
        with pytest.raises(ValidationError):
            load_csv(path, label_count=1)

    def test_round_trip_identity(self, tmp_path):
        ds = synthetic_dataset(25, 5, 3, seed=11)
        path = str(tmp_path / "rt.csv")
        save_csv(ds, path)
        back = load_csv(path, label_count=3)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)

    def test_savetxt_round_trip_keeps_float_bits(self, tmp_path):
        x = np.random.default_rng(5).normal(size=(30, 4)) * np.array([1e-300, 1.0, 1e12, 3.0])
        path = str(tmp_path / "q.csv")
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        features, labels = load_features(path)
        assert features.tobytes() == x.tobytes()
        assert labels.shape == (30, 0)

    def test_features_reader_strips_labels(self, tmp_path):
        path = write(tmp_path, "1.5,2.0,1\n3.0,-4.0,0\n")
        features, labels = load_features(path, label_count=1)
        assert np.array_equal(features, [[1.5, 2.0], [3.0, -4.0]])
        assert np.array_equal(labels, [[True], [False]])
        assert features.flags.c_contiguous

    def test_first_bad_line_wins(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1,0\nnan,2.0,1,0\n1.0,2.0,1,5\n1.0,1,0\n")
        with pytest.raises(CsvFormatError, match="line 2 has a non-finite"):
            load_features(path, label_count=2)
        path = write(tmp_path, "1.0,2.0,1,0\n1.0,1,0\nnan,2.0,1,0\n")
        with pytest.raises(CsvFormatError, match="line 2 has 3 fields"):
            load_features(path, label_count=2)

    def test_blank_first_line_names_line_one(self, tmp_path):
        path = write(tmp_path, "\n1.0,2.0,1,0\n3.0,4.0,0,1\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError) as info:
                loader(path, label_count=2)
            assert str(info.value) == f"{path}: line 1 has 1 fields, expected 4"

    def test_blank_line_mid_file(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,1,0\n\n3.0,4.0,0,1\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError) as info:
                loader(path, label_count=2)
            assert str(info.value) == f"{path}: line 2 has 1 fields, expected 4"

    def test_underscore_digits_parse_as_float_does(self, tmp_path):
        path = write(tmp_path, "1_5,2.0,1,0\n3.0,4.0,0,1\n")
        assert np.array_equal(load_csv(path, 2).features, [[15.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(load_features(path, 2)[0], [[15.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["\ufeff1.0,2.0,1,0\n", "1.0,2.0,1,0\n#1.0,2.0,1,0\n"])
    def test_bom_and_hash_are_non_numeric(self, tmp_path, text):
        path = write(tmp_path, text)
        lineno = text.count("\n")
        for loader in LOADERS:
            with pytest.raises(CsvFormatError) as info:
                loader(path, label_count=2)
            assert str(info.value) == f"{path}: line {lineno} has a non-numeric field"

    def test_checks_name_a_later_line(self, tmp_path):
        cases = [
            ("3.0,4.0,0,2\n", "line 3 has label value 2.0 outside {0, 1}"),
            ("3.0,nan,0,1\n", "line 3 has a non-finite feature"),
            ("-inf,4.0,0,1\n", "line 3 has a non-finite feature"),
        ]
        for bad, message in cases:
            path = write(tmp_path, "1.0,2.0,1,0\n3.0,4.0,0,1\n" + bad + "5.0,6.0,1,1\n")
            for loader in LOADERS:
                with pytest.raises(CsvFormatError) as info:
                    loader(path, label_count=2)
                assert str(info.value) == f"{path}: {message}"

    def test_crlf_lines_parse_like_lf(self, tmp_path):
        lf = write(tmp_path, "1.5,2.0,1,0\n3.0,-4.0,0,1\n", name="lf.csv")
        crlf = str(tmp_path / "crlf.csv")
        with open(crlf, "wb") as handle:
            handle.write(b"1.5,2.0,1,0\r\n3.0,-4.0,0,1\r\n")
        for a, b in zip(load_features(lf, 2), load_features(crlf, 2)):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=30))
    def test_float_bits_match_python_float(self, values):
        formats = (repr, "{:.17g}".format, "{:.3e}".format)
        cells = [[fmt(v) for fmt in formats] for v in values]
        expected = np.array([[float(c) for c in row] for row in cells])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "floats.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(",".join(row) + "\n" for row in cells))
            features, _ = load_features(path)
        assert features.tobytes() == expected.tobytes()

    def test_negative_label_count(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n")
        with pytest.raises(ConfigError):
            load_features(path, label_count=-1)


class TestComputeStats:
    def test_hand_counted(self):
        ds = MultiLabelDataset(
            np.zeros((3, 1)),
            np.array([[1, 0], [1, 0], [0, 1]], dtype=bool),
        )
        stats = compute_stats(ds)
        assert stats.distinct == 2
        assert stats.cardinality == 1.0
        assert stats.density == 0.5

    def test_all_zero_labels(self):
        ds = MultiLabelDataset(np.zeros((4, 2)), np.zeros((4, 3), dtype=bool))
        stats = compute_stats(ds)
        assert stats.cardinality == 0.0
        assert stats.density == 0.0
        assert stats.distinct == 1

    def test_density_times_labels_is_cardinality(self):
        ds = synthetic_dataset(40, 3, 5, seed=2)
        stats = compute_stats(ds)
        assert abs(stats.density * stats.labels - stats.cardinality) <= 1e-12


def round_robin_sizes(n, folds):
    # independent restatement of the deal: position t of the shuffle goes
    # to fold t % folds, so fold f gets ceil((n - f) / folds) instances
    return sorted(-(-(n - f) // folds) for f in range(folds))


class TestKfoldSplit:
    def test_ten_into_five(self):
        assignment = kfold_split(10, 5, seed=1)
        test_folds = [assignment.test_indices(f) for f in range(5)]
        assert all(len(t) == 2 for t in test_folds)
        assert sorted(np.concatenate(test_folds).tolist()) == list(range(10))

    def test_deterministic(self):
        a = kfold_split(100, 5, seed=9)
        b = kfold_split(100, 5, seed=9)
        assert np.array_equal(a.fold_of_instance, b.fold_of_instance)

    def test_seven_into_five_sizes(self):
        assignment = kfold_split(7, 5, seed=3)
        sizes = sorted(len(assignment.test_indices(f)) for f in range(5))
        assert sizes == round_robin_sizes(7, 5) == [1, 1, 1, 2, 2]

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            kfold_split(4, 5, seed=0)

    def test_too_few_folds(self):
        with pytest.raises(ConfigError):
            kfold_split(10, 1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), folds=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_partition_properties(self, n, folds, seed):
        if folds > n:
            folds = n
        assignment = kfold_split(n, folds, seed)
        all_test = np.concatenate([assignment.test_indices(f) for f in range(folds)])
        assert sorted(all_test.tolist()) == list(range(n))
        sizes = [len(assignment.test_indices(f)) for f in range(folds)]
        assert max(sizes) - min(sizes) <= 1
        for f in range(folds):
            train = set(assignment.train_indices(f).tolist())
            test = set(assignment.test_indices(f).tolist())
            assert not train & test


class TestDatasetValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            MultiLabelDataset(np.zeros((3, 2)), np.zeros((2, 2), dtype=bool))

    def test_non_finite_features(self):
        x = np.zeros((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            MultiLabelDataset(x, np.zeros((2, 2), dtype=bool))

    def test_immutable_after_load(self):
        ds = synthetic_dataset(5, 2, 2, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_subset_keeps_order(self):
        ds = synthetic_dataset(10, 2, 2, seed=0)
        sub = ds.subset([4, 1, 7])
        assert np.array_equal(sub.features, ds.features[[4, 1, 7]])
        assert np.array_equal(sub.labels, ds.labels[[4, 1, 7]])


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_dataset(20, 3, 3, seed=5, label_noise=0.1)
        b = synthetic_dataset(20, 3, 3, seed=5, label_noise=0.1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_flips_labels(self):
        clean = synthetic_dataset(200, 3, 3, seed=5)
        noisy = synthetic_dataset(200, 3, 3, seed=5, label_noise=0.1)
        flips = (clean.labels != noisy.labels).mean()
        assert 0.05 < flips < 0.15
