"""Run environment: BLAS/OpenMP thread pinning, the seisreg import from the
checkout's own source tree, and the record of versions each result carries.

Import this module before anything imports numpy: the thread counts are
read from the environment when the BLAS library loads.
"""

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_seisreg():
    """Import seisreg from <checkout>/src and nowhere else."""
    if not (SRC / "seisreg" / "__init__.py").is_file():
        raise MissingProgram(f"no seisreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import seisreg
    if Path(seisreg.__file__).resolve().parent != SRC / "seisreg":
        raise MissingProgram(f"seisreg imported from {seisreg.__file__}, "
                             f"not from {SRC}")


def record(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }
