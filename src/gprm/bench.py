"""Benchmarks: parallel merge sort and strided list processing.

Merge sort follows the recursive-halving cost model: a single-threaded run
costs k*n*log2(n), a run on p threads costs k*(n/p)*log2(n/p) for the leaf
sorts plus k*n*(1 + 1/2 + ... ) for the merge levels (the top merge is always
serial).  k is fitted from the measured single-thread run and the model
column in the CSV comes from that fit.

List chase: worker k owns elements k, NTH+k, 2*NTH+k, ... so there is no
contention; a naive strategy where every worker walks the whole list and
claims nodes under a lock is included for comparison.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .compiler import compile_text
from .gpc import compile_gpc
from .kernels import ChaseList, standard_registry
from .vm import Machine


class VerificationError(Exception):
    pass


@dataclass
class BenchConfig:
    benchmark: str
    size: int
    threads: tuple = (1, 2, 4)
    reps: int = 3
    seed: int = 1
    csv_path: str = ""
    work: tuple = (3, 3)  # ackermann (m, x) per element
    strategy: str = "strided"

    def __post_init__(self):
        """Refuse what `gprm bench` refuses as a usage error, and a rep count
        too small to time."""
        if self.reps < 3:
            raise VerificationError("repetitions must be >= 3 for timing stability")
        if not _ints_at_least(self.work, 0) or len(self.work) != 2:
            raise VerificationError(f"work must be two non-negative integers "
                                    f"(Ackermann m, x), got {self.work!r}")
        if not _ints_at_least((self.size,), 0):
            raise VerificationError(f"size must be a non-negative integer, got {self.size!r}")
        if not self.threads or not _ints_at_least(self.threads, 1):
            raise VerificationError(f"thread counts must be integers >= 1, got {self.threads!r}")
        if self.benchmark == "mergesort" and self.size < max(self.threads):
            raise VerificationError("size must be >= thread count (every leaf "
                                    "needs at least one element)")


def _ints_at_least(values, least):
    return isinstance(values, (tuple, list)) and all(
        isinstance(v, int) and v >= least for v in values)


MERGESORT_GPC = """
GPRM::Kernel::MergeSort ms;

void ms_rec(int n, int nmax, int* a) {
  if (n >= nmax) {
    ctrl.run(ms.leaf(n, a), n);
  } else {
    ctrl.run(ms.stem(ms_rec(2*n, nmax, a), ms_rec(2*n+1, nmax, a), a), n);
  }
}

int* GPRM::merge_sort(int* a) {
  ms_rec(1, NUM_THREADS, a);
  return a;
}
"""


def mergesort_gpir(threads):
    return compile_gpc(MERGESORT_GPC, num_threads=threads)


def listchase_gpir(threads, strategy="strided"):
    """A fold of per-worker ctrl.run calls; worker k lands on tile k."""
    method = {"strided": "chase.strided", "contended": "chase.contended"}[strategy]
    calls = [
        f"(ctrl.run '({method} '{k} '{threads} (ctrl.reg '0)) '{k})"
        for k in range(threads)
    ]
    total = calls[0]
    for c in calls[1:]:
        total = f"(+ {total} {c})"
    return total


def fit_k(t_seconds, n, p=1):
    return t_seconds / _model_ops(n, p)


def _model_ops(n, p):
    leaf = (n / p) * math.log2(n / p) if n > p else 0.0
    merges = 2.0 * n * (1.0 - 1.0 / p)
    return leaf + merges


def model_seconds(k, n, p):
    return k * _model_ops(n, p)


def _checksum(a):
    v = a.view(np.uint32)
    return (int(v.sum(dtype=np.uint64)), int(np.bitwise_xor.reduce(v)), len(a))


def _verify_sorted(a, want_checksum):
    bad = np.nonzero(a[:-1] > a[1:])[0]
    if bad.size:
        raise VerificationError(f"output out of order at index {int(bad[0])}")
    if _checksum(a) != want_checksum:
        raise VerificationError("output is not a permutation of the input")


def _timed_rows(cfg, gpir, reset, verify, model=None):
    """One CSV row per thread count, with the median time of cfg.reps runs.

    For each thread count the program `gpir(p)` is compiled once; each rep
    then resets the data (`reset()` returns it), boots a machine, times one
    run and verifies it with `verify(data, p, value)`.  `model(medians, p0)`
    returns a {threads: model seconds} map, or None leaves the column empty."""
    medians = {}
    for p in cfg.threads:
        registry = standard_registry()
        image = compile_text(gpir(p), p, registry)
        times = []
        for _ in range(cfg.reps):
            data = reset()
            with Machine(image, registry, p) as m:
                m.register_data(data)
                t0 = time.perf_counter()
                value = m.run_value(timeout=3600.0)
                times.append(time.perf_counter() - t0)
            verify(data, p, value)
        medians[p] = statistics.median(times)
    p0 = 1 if 1 in medians else min(medians)
    modelled = model(medians, p0) if model else {}
    return [{
        "benchmark": cfg.benchmark,
        "n": cfg.size,
        "threads": p,
        "rep": cfg.reps,
        "seconds": medians[p],
        "speedup": medians[p0] / medians[p],
        "model_seconds": modelled.get(p, ""),
    } for p in cfg.threads]


def run_mergesort(cfg):
    """Returns CSV rows: one aggregated row per thread count (median time)."""
    rng = np.random.default_rng(cfg.seed)
    base = rng.integers(-(2**31), 2**31, size=cfg.size, dtype=np.int32)
    want = _checksum(np.sort(base))

    def model(medians, p0):
        k = fit_k(medians[p0], cfg.size, p0)
        return {p: model_seconds(k, cfg.size, p) for p in cfg.threads}

    return _timed_rows(cfg, mergesort_gpir, base.copy,
                       lambda arr, p, value: _verify_sorted(arr, want), model)


def run_listchase(cfg):
    data = ChaseList(cfg.size, *cfg.work)

    def reset():
        data.reset()
        return data

    return _timed_rows(cfg, lambda p: listchase_gpir(p, cfg.strategy), reset,
                       lambda d, p, total: verify_chase(d, p, total,
                                                        strided=cfg.strategy == "strided"))


def verify_chase(data, threads, total, strided=True):
    """Every element processed exactly once; strided runs also own-check."""
    if total != data.n:
        raise VerificationError(f"processed {total} of {data.n} elements")
    for i, c in enumerate(data.counts):
        if c != 1:
            raise VerificationError(f"element {i} processed {c} times")
        if strided and data.owners[i] != [i % threads]:
            raise VerificationError(
                f"element {i} touched by {data.owners[i]}, want [{i % threads}]")


CSV_COLUMNS = ("benchmark", "n", "threads", "rep", "seconds", "speedup", "model_seconds")


def write_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def run_benchmark(cfg):
    if cfg.benchmark == "mergesort":
        rows = run_mergesort(cfg)
    elif cfg.benchmark == "listchase":
        rows = run_listchase(cfg)
    else:
        raise VerificationError(f"unknown benchmark '{cfg.benchmark}'")
    if cfg.csv_path:
        write_csv(rows, cfg.csv_path)
    return rows
