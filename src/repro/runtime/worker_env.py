"""Worker-process environment: thread caps, pre-imports, and the job entry point.

Every execution backend that runs jobs in a separate process — the local
process pool (:class:`~repro.runtime.executors.LocalPoolExecutorBackend`) and
the filesystem-spool fleet workers (:mod:`repro.runtime.spool`, ``msropm
fleet worker``) — prepares its workers the same way:

* cap the BLAS/OpenMP thread pools and the exact tier's replica threads
  (:func:`repro.core.engine.replica_thread_budget`) to one thread per worker
  process (the runtime's parallelism is process-level; letting every
  worker's GEMM or replica batch spawn ``cpu_count`` threads oversubscribes
  the machine),
* pre-import the solver stack so module import latency is paid once, outside
  any job's critical path.

Centralizing that here keeps a fleet worker's per-job environment identical
to a pool worker's, which is one ingredient of the cross-topology bit-identity
invariant (the other being that jobs are pure functions of their seeds).
"""

from __future__ import annotations

import os
from typing import Dict

from repro.core.engine import cap_replica_threads
from repro.runtime.jobs import Job

#: Thread-pool environment caps applied to worker processes (and defaulted in
#: the parent before a pool forks/spawns, so the libraries that read them at
#: import time see them).  One BLAS/OpenMP thread per worker process.
WORKER_THREAD_CAPS: Dict[str, str] = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


#: C-interface ``set_num_threads`` entry points of the math libraries
#: numpy/scipy may have loaded: plain and ILP64-suffixed OpenBLAS builds, the
#: scipy-openblas wheels, OpenMP runtimes, MKL.  Deliberately excludes the
#: Fortran-mangled variants (trailing ``_`` after the ILP64 suffix), which
#: take their argument by reference and crash when called by value.
_THREAD_SETTER_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "omp_set_num_threads",
    "MKL_Set_Num_Threads",
)

#: Basename prefixes of the runtime libraries worth probing.  The filter is
#: deliberately narrow: matching on substrings like ``omp`` would also catch
#: CPython extension modules (``_decomp_*.so``), which must not be re-opened
#: outside the import machinery.
_THREAD_LIBRARY_PREFIXES = (
    "libopenblas",
    "libscipy_openblas",
    "libblas",
    "libcblas",
    "libmkl_rt",
    "libgomp",
    "libiomp",
    "libomp",
)


def limit_math_threads(limit: int) -> bool:
    """Cap the thread pools of *already loaded* BLAS/OpenMP libraries.

    Environment variables only configure a math library at import time, so
    under the ``fork`` start method (the Linux default) a worker inherits the
    parent's fully initialized, ``cpu_count``-threaded OpenBLAS no matter what
    the initializer exports.  This applies the cap in-process instead: through
    ``threadpoolctl`` when it is installed, otherwise by calling the first
    recognized ``*_set_num_threads`` entry point of every BLAS/OpenMP runtime
    library the process has mapped (re-``dlopen``-ing a mapped library returns
    the live handle).  Returns whether any pool was actually capped
    (``False`` e.g. on non-Linux without threadpoolctl, where the environment
    route is the only one available).
    """
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=limit)
        return True
    except Exception:
        pass
    applied = False
    try:
        import ctypes

        paths = set()
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                tail = line.rsplit(None, 1)[-1]
                basename = tail.rsplit("/", 1)[-1].lower()
                if basename.startswith(_THREAD_LIBRARY_PREFIXES) and ".so" in basename:
                    paths.add(tail)
        for path in sorted(paths):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in _THREAD_SETTER_SYMBOLS:
                setter = getattr(library, symbol, None)
                if setter is None:
                    continue
                try:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(ctypes.c_int(limit))
                    applied = True
                except Exception:
                    pass
                break  # one setter per library; the variants share one pool
    except Exception:
        return applied
    return applied


def _worker_init(thread_caps: Dict[str, str]) -> None:
    """Worker initializer: cap math-library threads and pre-import the solver.

    Runs once per worker process before any job.  The caps are applied twice
    over: via the environment (authoritative under ``spawn``/``forkserver``,
    where numpy is imported afterwards, and for any library not yet loaded)
    and via :func:`limit_math_threads` for the libraries a forked worker
    inherited already initialized.  The same limit caps the replica threads
    of exact-tier solves (:func:`repro.core.engine.cap_replica_threads`).
    Pre-importing the solver stack moves module import latency out of the
    first job's critical path.
    """
    os.environ.update(thread_caps)
    if thread_caps:
        limit = int(thread_caps.get("OMP_NUM_THREADS", "1"))
        limit_math_threads(limit)
        cap_replica_threads(limit)
    # Pre-import the heavy modules every job needs.
    import repro.analysis.results_io  # noqa: F401
    import repro.core.machine  # noqa: F401
    import repro.workloads.registry  # noqa: F401


def _execute_job(job: Job) -> Dict:
    """Worker entry point: run one job and return its persisted-form payload.

    Module-level (not a closure) so it pickles under every multiprocessing
    start method; the dict payload keeps the parent<->worker wire format
    identical to the cache format for every job type.
    """
    return job.execute()
