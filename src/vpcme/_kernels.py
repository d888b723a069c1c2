"""Hot numeric kernels: the k-nearest-neighbor search and pair routing,
plus the thread pool that runs independent units of work side by side.

The kernels are plain numpy over BLAS. Their outputs do not depend on the
BLAS thread count: the matrix product only screens neighbor candidates, and
every reported distance is recomputed exactly.
"""

import ctypes
import glob
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Neighbor candidates kept per row beyond k, so that ties at the k-th place
# do not force the exact fallback. With k = 10, no row of 2000 x 50 normal
# data falls back at any value from 0 to 16; on a 2000 x 5 grid of integers
# 0..9, 67% of rows fall back with no extra candidates, 9% with 4 and 0.4%
# with 8.
KNN_EXTRA = 8
# Elements in one block's distance temporaries; bounds the search's memory.
KNN_BLOCK = 1 << 21
# First routing step covers this many times the combined targets in attempts;
# each later step doubles.
ROUTE_FIRST_STEP = 2


# ---------------------------------------------------------------------------
# k-nearest-neighbor search, squared Euclidean distance.
#
# Candidates come from the GEMM expansion |q|^2 + |t|^2 - 2 q.t and an
# argpartition that keeps k + KNN_EXTRA per row. Their distances are then
# recomputed exactly as ((q - t)**2).sum(-1) and ranked by (distance, index),
# so ties go to the lower training index.
#
# Error bound, with u = eps / 2 the unit roundoff and the first-order terms
# of Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1. The
# exact sum adds d non-negative terms, each with relative error 3u, so it is
# off by at most (d + 2) u |q - t|^2 <= 2 (d + 2) u (|q|^2 + |t|^2). In the
# expansion, the doubled dot product is off by at most d u (|q|^2 + |t|^2),
# the two norms by d u (|q|^2 + |t|^2) together, and the two additions by
# 4 u (|q|^2 + |t|^2). So the two values differ by at most
# 4 (d + 2) u (|q|^2 + |t|^2) = 2 (d + 2) eps (|q|^2 + |t|^2). The screen
# uses four times that, 8 (d + 2) eps (|q|^2 + max |t|^2), which leaves room
# for the second-order terms and for the rounding of the norms in the
# tolerance itself. A row is searched again by brute force unless its
# nearest non-candidate's expansion exceeds its k-th exact distance by more
# than that tolerance; then no non-candidate can rank before the k-th.
# ---------------------------------------------------------------------------


def _squared_distances(queries, rows):
    """Exact squared distances of (m, d) queries to (n, d) shared rows, or
    to (m, c, d) rows gathered per query."""
    return ((queries[:, None, :] - rows) ** 2).sum(axis=-1)


def _brute_force(train, queries, rows, k, exclude_self):
    """Exact search for the query rows ``rows``; the reference tie rule."""
    n, d = train.shape
    idx = np.empty((rows.size, k), np.int64)
    dist = np.empty((rows.size, k))
    step = max(1, KNN_BLOCK // max(1, n * d))
    for start in range(0, rows.size, step):
        sel = rows[start : start + step]
        d2 = _squared_distances(queries[sel], train)
        if exclude_self:
            d2[np.arange(sel.size), sel] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        idx[start : start + sel.size] = order
        dist[start : start + sel.size] = np.take_along_axis(d2, order, axis=1)
    return idx, dist


def knn(train, queries, k, exclude_self=False):
    """Indices and squared distances of each query row's k nearest rows.

    Rows come back ordered by (distance, training index). With
    ``exclude_self`` the queries are the training rows themselves and row i
    never lists i. Returns two (m, k) arrays: int64 indices, float64
    distances.
    """
    train = np.ascontiguousarray(train, dtype=np.float64)
    queries = train if exclude_self else np.ascontiguousarray(queries, dtype=np.float64)
    k = int(k)
    m = queries.shape[0]
    n, d = train.shape
    available = n - 1 if exclude_self else n
    c = min(k + KNN_EXTRA, available)
    if c == available:  # nothing to screen out
        return _brute_force(train, queries, np.arange(m), k, exclude_self)

    idx = np.empty((m, k), np.int64)
    dist = np.empty((m, k))
    t_sq = np.einsum("ij,ij->i", train, train)
    tol_scale = 8.0 * (d + 2) * np.finfo(np.float64).eps
    t_sq_max = float(t_sq.max())
    step = max(1, KNN_BLOCK // max(n, c * d))
    for start in range(0, m, step):
        q = queries[start : start + step]
        b = q.shape[0]
        local = np.arange(b)
        q_sq = np.einsum("ij,ij->i", q, q)
        approx = q @ train.T
        approx *= -2.0
        approx += q_sq[:, None]
        approx += t_sq
        if exclude_self:
            approx[local, start + local] = np.inf
        part = np.argpartition(approx, c, axis=1)
        nearest_outside = approx[local, part[:, c]]
        cand = part[:, :c]
        exact = _squared_distances(q, train[cand])
        order = np.lexsort((cand, exact), axis=-1)[:, :k]
        block_idx = np.take_along_axis(cand, order, axis=1)
        block_dist = np.take_along_axis(exact, order, axis=1)
        tol = tol_scale * (q_sq + t_sq_max)
        unsure = np.flatnonzero(~(nearest_outside - tol > block_dist[:, -1]))
        if unsure.size:
            block_idx[unsure], block_dist[unsure] = _brute_force(
                train, queries, start + unsure, k, exclude_self
            )
        idx[start : start + b] = block_idx
        dist[start : start + b] = block_dist
    return idx, dist


# ---------------------------------------------------------------------------
# Pair routing for constraint sampling. Consumes a pre-drawn block of
# uniforms (two per attempt), maps each to an instance index by inverse-CDF
# lookup on the cumulative weights, and routes the pair to the must or
# cannot list by comparing the label-overlap ratio against theta. Attempts
# with i == j are rejected but still consume their uniforms; pairs whose
# list is already full are discarded. Attempts are routed in growing steps
# that stop once both lists are full; the outcome is that of routing the
# attempts one at a time.
# ---------------------------------------------------------------------------


def route_pairs(cumw, uniforms, labels, sizes, theta, target_must, target_cannot):
    """(must, cannot) pair arrays, each (count, 2) int64, in attempt order.

    ``labels`` is the (n, r) bool label matrix and ``sizes`` its row sums.
    """
    n = sizes.shape[0]
    attempts = uniforms.shape[0] // 2
    need = {"must": int(target_must), "cannot": int(target_cannot)}
    found = {"must": [np.empty((0, 2), np.int64)], "cannot": [np.empty((0, 2), np.int64)]}
    start = 0
    step = max(1, ROUTE_FIRST_STEP * (need["must"] + need["cannot"]))
    while start < attempts and (need["must"] or need["cannot"]):
        stop = min(start + step, attempts)
        pair = np.minimum(np.searchsorted(cumw, uniforms[2 * start : 2 * stop], side="right"), n - 1)
        ii = pair[0::2]
        jj = pair[1::2]
        valid = ii != jj
        ii = ii[valid]
        jj = jj[valid]
        inter = np.count_nonzero(labels[ii] & labels[jj], axis=1)
        denom = (sizes[ii] + sizes[jj]) / 2.0
        ratio = np.where(denom == 0.0, 1.0, inter / np.where(denom == 0.0, 1.0, denom))
        to_must = ratio >= theta
        for kind, mask in (("must", to_must), ("cannot", ~to_must)):
            take = np.flatnonzero(mask)[: need[kind]]
            found[kind].append(np.stack([ii[take], jj[take]], axis=1))
            need[kind] -= take.size
        start = stop
        step *= 2
    return np.concatenate(found["must"]), np.concatenate(found["cannot"])


# ---------------------------------------------------------------------------
# Thread pool for independent units (cross-validation folds, ensemble
# members). The units are small GEMMs and single-threaded argpartitions, so
# they gain from running side by side and lose when BLAS threads compete
# with the pool's: numpy's bundled OpenBLAS is held at one thread while a
# pool is open. Results do not depend on either thread count.
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
def _one_blas_thread():
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
    The first exception cancels the items not yet started and is raised
    as it is; of several, the one of the lowest item index wins.
    """
    items = list(items)
    workers = min(len(items), _cpu_count())
    if workers <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    with _one_blas_thread():
        pool = ThreadPoolExecutor(workers, initializer=_mark_worker)
        try:
            futures = [pool.submit(fn, item) for item in items]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]
