"""The k-nearest-neighbor search, plus the thread pool that runs
independent units of work side by side.

The search is plain numpy over BLAS. Its output does not depend on the
BLAS thread count: the matrix product only screens neighbor candidates, and
the candidates are ranked by distances recomputed exactly.
"""

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Neighbor candidates kept per row beyond k, so that ties at the k-th place
# do not force the exact fallback. With k = 10, no row of 2000 x 50 normal
# data falls back at any value from 0 to 16; on a 2000 x 5 grid of integers
# 0..9, 67% of rows fall back with no extra candidates, 9% with 4 and 0.4%
# with 8.
KNN_EXTRA = 8
# Elements in one block of screening values; bounds the search's memory and
# keeps a block near cache. At 1933 training rows a block is 271 rows, 4 MB.
# Self-search of a yeast-shaped training fold (1933 x 31, k = 10, one BLAS
# thread, min of 15) on a 2-core AMD EPYC KVM guest (2 MiB of L2 per core,
# 32 MiB of L3), from 2^16 to 2^21: 13.4, 12.1, 12.2, 12.9, 14.7, 16.1 ms;
# at the scene shape (1925 x 129): 24.7, 22.2, 22.6, 25.8, 27.4, 30.9 ms.
# Unless a larger freed block has lifted glibc's mmap and trim thresholds, as
# the CLI's parse of a full-precision CSV does, a block's two temporaries go
# back to the system between blocks and are faulted in afresh. Yeast shape,
# 5 folds, 1 repeat, 2 workers, getrusage per op after a warm-up: `vpcme cv`
# in-process faults 10-7k times per op at 1 and at 30 members, but 11k-27k
# times (4-53 ms system) on the same rows written at 4 decimals (1.9 MB, not
# 4.9 MB), as the real yeast file is; a library cross_validate at 30 members,
# 0.73-0.86 M times per repeat, with 0.63-0.76 s system of 2.8-3.1 s.
KNN_BLOCK = 1 << 19


# ---------------------------------------------------------------------------
# k-nearest-neighbor search, squared Euclidean distance.
#
# Candidates are screened with s = |t|^2 - 2 q.t, which one GEMM of the
# augmented rows [q, 1] against [-2t, |t|^2] yields; |q|^2 is the same along
# a row, so the argpartition that keeps k + KNN_EXTRA per row does not need
# it. The candidates' distances are then recomputed exactly as
# ((q - t)**2).sum(-1) and ranked by (distance, index), so ties go to the
# lower training index.
#
# Error bound, with u = eps / 2 the unit roundoff and the first-order terms
# of Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1.
# Scaling by -2 is exact. The (d + 1)-term dot product is off by at most
# (d + 1) u (2 sum |q_i t_i| + |t|^2) <= (d + 1) u (|q|^2 + 2 |t|^2), the
# norms |t|^2 and |q|^2 by d u |t|^2 and d u |q|^2, and adding |q|^2 back
# by 2 u (|q|^2 + |t|^2). The exact sum adds d non-negative terms, each with
# relative error 3u, so it is off by at most (d + 2) u |q - t|^2
# <= 2 (d + 2) u (|q|^2 + |t|^2). So s + |q|^2 and the exact distance
# differ by at most (5 d + 8) u (|q|^2 + |t|^2). The screen's tolerance,
# 8 (d + 2) eps (|q|^2 + max |t|^2) = 16 (d + 2) u (...), is at least three
# times that, which leaves room for the second-order terms and for the
# rounding of the norms in the tolerance itself. Every non-candidate's s is
# at least that of the nearest one, which alone gets |q|^2 added back. A row
# is searched again by brute force unless that value exceeds its k-th exact
# distance by more than the tolerance; then no non-candidate can rank
# before the k-th.
# ---------------------------------------------------------------------------


def _squared_distances(queries, rows):
    """Exact squared distances of (m, d) queries to (n, d) shared rows, or
    to (m, c, d) rows gathered per query; ``((q - t)**2).sum(-1)``, squared
    in place."""
    diff = np.subtract(queries[:, None, :], rows)
    np.square(diff, out=diff)
    return diff.sum(axis=-1)


def _brute_force(train, queries, k):
    """Exact search of every query row; the reference tie rule."""
    n, d = train.shape
    idx = np.empty((queries.shape[0], k), np.int64)
    step = max(1, KNN_BLOCK // max(1, n * d))
    for start in range(0, queries.shape[0], step):
        d2 = _squared_distances(queries[start : start + step], train)
        idx[start : start + step] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx


def knn(train, queries, k):
    """Indices of each query row's k nearest training rows.

    Rows come back ordered by (distance, training index), so a training row
    queried against its own set lists itself after any lower-index exact
    duplicate. Returns an (m, k) int64 array.
    """
    train = np.ascontiguousarray(train, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    k = int(k)
    m = queries.shape[0]
    n, d = train.shape
    c = min(k + KNN_EXTRA, n)
    if c == n:  # nothing to screen out
        return _brute_force(train, queries, k)

    idx = np.empty((m, k), np.int64)
    t_sq = np.einsum("ij,ij->i", train, train)
    screen = np.empty((n, d + 1))
    np.multiply(train, -2.0, out=screen[:, :d])
    screen[:, d] = t_sq
    q_aug = np.ones((m, d + 1))
    q_aug[:, :d] = queries
    tol_scale = 8.0 * (d + 2) * np.finfo(np.float64).eps
    t_sq_max = float(t_sq.max())
    step = max(1, KNN_BLOCK // max(n, c * d))
    for start in range(0, m, step):
        q = queries[start : start + step]
        b = q.shape[0]
        local = np.arange(b)
        q_sq = np.einsum("ij,ij->i", q, q)
        with one_blas_thread():  # small: BLAS threads would only compete for the cores
            approx = q_aug[start : start + b] @ screen.T  # |t|^2 - 2 q.t
        part = np.argpartition(approx, c, axis=1)
        nearest_outside = approx[local, part[:, c]] + q_sq
        cand = part[:, :c]
        exact = _squared_distances(q, train[cand])
        order = np.lexsort((cand, exact), axis=-1)[:, :k]
        block_idx = np.take_along_axis(cand, order, axis=1)
        kth_dist = exact[local, order[:, -1]]
        tol = tol_scale * (q_sq + t_sq_max)
        unsure = np.flatnonzero(~(nearest_outside - tol > kth_dist))
        if unsure.size:
            block_idx[unsure] = _brute_force(train, q[unsure], k)
        idx[start : start + b] = block_idx
    return idx


# ---------------------------------------------------------------------------
# Thread pool for independent units (cross-validation folds, ensemble
# members). The units are small GEMMs and single-threaded argpartitions, so
# they gain from running side by side and lose when BLAS threads compete
# with the pool's: numpy's bundled OpenBLAS is held at one thread while the
# units run. The kNN screen holds it too, for speed; the projection, for its bits.
# ---------------------------------------------------------------------------


def _find_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                put.restype = None
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


_OPENBLAS = _find_openblas()
_cap_lock = threading.Lock()
_cap_depth = 0
_cap_saved = None
_worker = threading.local()


def blas_threads():
    """Current OpenBLAS thread count, or None where numpy's BLAS is not OpenBLAS."""
    return None if _OPENBLAS is None else _OPENBLAS[0]()


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread; the count read on entry comes back on
    exit. Nested and concurrent holders share the hold: the first one in
    saves the count and the last one out restores it."""
    global _cap_depth, _cap_saved
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    with _cap_lock:
        if _cap_depth == 0:
            _cap_saved = get()
            put(1)
        _cap_depth += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_depth -= 1
            if _cap_depth == 0:
                put(_cap_saved)


def _mark_worker():
    _worker.active = True


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_map(fn, items):
    """``[fn(item) for item in items]``, run on a thread pool.

    One worker per CPU the process may run on, at most one per item.
    Runs inline with one worker, or when called from inside a worker, so
    nested calls start no second pool. Results come back in item order.
    The exception of the lowest item index that raises is raised as it
    is, once the items before it have finished; the items not yet started
    by then are cancelled. BLAS is held at one thread either way, for
    speed only: the bit-sensitive BLAS calls, in the projection, hold it
    themselves.
    """
    items = list(items)
    workers = min(len(items), _cpu_count())
    with one_blas_thread():
        if workers <= 1 or getattr(_worker, "active", False):
            return [fn(item) for item in items]
        with ThreadPoolExecutor(workers, initializer=_mark_worker) as pool:
            return list(pool.map(fn, items))
