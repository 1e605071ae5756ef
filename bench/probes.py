"""Measurements made outside the workload loop.

* machine(): provenance of a result (nproc, versions, BLAS, load).
* reference(): a fixed piece of work owned by the benchmark, timed next to
  the workload so that times can be expressed at a nominal host speed
  (see run.py).
* setup_once(): set-up time of a workload in a fresh interpreter, from
  before ``import qtsp`` to the first VMC step, followed by the reference
  set-up (a fresh interpreter importing numpy and calling reference()).
  It runs this file as two child processes:
  ``python3 bench/probes.py setup <workload> <seed> <dir>`` and
  ``python3 bench/probes.py reference``.
* kernel_probe(): microseconds per configuration of both networks' log psi
  on N=12 tours at fixed batch sizes, and the computed size of the
  log-derivative (O) matrix of the qubit network.

numpy is imported inside the functions, so that the child times the
whole import of qtsp.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_BATCHES = (8, 64, 512)
KERNEL_METRICS = (
    *(f"nqs.{net}_log_psi_us.b{batch}" for net in ("cnn", "rbm") for batch in KERNEL_BATCHES),
    "vmc.o_matrix_mb.qubit_n8", "vmc.o_matrix_mb.qubit_n12",
)
# what each workload's own entry point imports; the set-up probe times it
SETUP_IMPORTS = {"qudit-n12-solve": ("qtsp", "qtsp.cli")}
REFERENCE_SETUP_CALLS = 10    # reference() calls in the reference set-up child
# nominal times of reference() and of the reference set-up child: about
# their medians over many runs on a shared 2-core Xeon at 2.0 GHz
REFERENCE_NOMINAL_S = 0.0075
REFERENCE_SETUP_NOMINAL_S = 0.2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def use_checkout() -> bool:
    """Import qtsp from this checkout's src/ and cap BLAS threads at nproc.

    Returns False when the checkout holds no qtsp sources.
    """
    if not (SRC / "qtsp" / "__init__.py").is_file():
        return False
    for var in BLAS_ENV:
        os.environ.setdefault(var, str(nproc()))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "machine": platform.machine(),
        "load_1m_start": os.getloadavg()[0],
    }


@functools.cache
def _reference_data():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal(64),
            rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160)))


def reference() -> float:
    """Seconds taken by a fixed piece of work that does not touch qtsp.

    It mixes the three kinds of work in a VMC step: an interpreted Python
    loop (the sampler's bookkeeping), small numpy calls (log psi of a few
    chains) and complex matrix products on the BLAS threads (the
    gradient). About 7.5 ms on a 2-core Xeon at 2.0 GHz.
    """
    import numpy as np

    vector, matrix = _reference_data()
    t0 = perf_counter()
    x = 0
    for i in range(40_000):
        x += i * i % 7
    for _ in range(400):
        np.exp(vector).sum()
    for _ in range(3):
        matrix @ matrix
    return perf_counter() - t0


def _child(*args: str) -> dict:
    """Run this file with `args` in a fresh interpreter; its last JSON line,
    or {"error": ...}."""
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__)), *args],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"{args[0]} probe timed out"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        return {"error": f"{args[0]} probe failed: {lines[-1]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def setup_once(workload: str, seed: int, scratch: Path) -> dict:
    """Run the set-up probe, then the reference set-up, each in a fresh
    interpreter.

    Returns their timings, or {"error": ...} when either failed.
    """
    result = _child("setup", workload, str(seed), str(scratch))
    if "error" not in result:
        result.update(_child("reference"))
    return {"seed": seed, **result}


def kernel_probe(seed: int, repeats: int = 5, budget_s: float = 0.03) -> dict:
    """Median microseconds per configuration of each network's log psi,
    keyed by the names in KERNEL_METRICS; a network that is absent has no
    entries."""
    import numpy as np
    from qtsp import harness, nqs
    from qtsp.encoding import tours_to_sigma

    n = 12
    rng = np.random.default_rng(seed)
    qudit = harness.midpoint_hyperparams(n, "qudit")
    qubit = harness.midpoint_hyperparams(n, "qubit")
    nets = {
        "cnn": (getattr(nqs, "cnn_log_psi", None),
                lambda: nqs.init_params("cnn", (qudit["kernel_size"], qudit["n_channels"]),
                                        0.02, seed),
                lambda tours: tours.astype(float)),
        "rbm": (getattr(nqs, "rbm_log_psi", None),
                lambda: nqs.init_params("rbm", (n * n, qubit["n_hidden"]), 0.02, seed),
                tours_to_sigma),
    }
    out = {}
    for net, (log_psi, make_params, encode) in nets.items():
        if log_psi is None:
            continue
        params = make_params()
        for batch in KERNEL_BATCHES:
            tours = rng.permuted(np.tile(np.arange(1, n + 1), (batch, 1)), axis=1)
            x = encode(tours)
            log_psi(params, x)
            samples = []
            for _ in range(repeats):
                calls, t0 = 0, perf_counter()
                while True:
                    log_psi(params, x)
                    calls += 1
                    elapsed = perf_counter() - t0
                    if elapsed >= budget_s:
                        break
                samples.append(elapsed / (calls * batch) * 1e6)
            out[f"nqs.{net}_log_psi_us.b{batch}"] = sorted(samples)[repeats // 2]
    for size in (8, 12):
        hyper = harness.midpoint_hyperparams(size, "qubit")
        params = nqs.init_params("rbm", (size * size, hyper["n_hidden"]), 0.02, seed)
        # S x 2P complex128 entries, as train builds it for the gradient
        o_bytes = hyper["sample_size"] * params.n_real_params * 16
        out[f"vmc.o_matrix_mb.qubit_n{size}"] = o_bytes / 1e6
    return out


def _setup_child(workload: str, seed: int, scratch: Path) -> None:
    if not use_checkout():
        sys.exit("qtsp sources not found")
    t0 = perf_counter()
    for module in SETUP_IMPORTS.get(workload, ("qtsp",)):  # timed: part of set-up
        importlib.import_module(module)
    import_s = perf_counter() - t0
    import workloads

    rest_s = workloads.WORKLOADS[workload].setup(seed, scratch)
    print(json.dumps({"import_s": import_s, "setup_s": import_s + rest_s}))


def _reference_child() -> None:
    t0 = perf_counter()
    import numpy  # noqa: F401  (timed, as qtsp's import of it is in set-up)

    for _ in range(REFERENCE_SETUP_CALLS):
        reference()
    print(json.dumps({"reference_s": perf_counter() - t0}))


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        _reference_child()
    elif len(sys.argv) == 5 and sys.argv[1] == "setup":
        _setup_child(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    else:
        sys.exit("usage: probes.py setup <workload> <seed> <scratch dir> | probes.py reference")
