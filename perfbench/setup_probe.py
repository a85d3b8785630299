"""One set-up of a workload, in a fresh process: import, generate the inputs
(every graph of the run) and, for ``serve``, fit and save the artifact.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED OUTDIR``.  Prints one
JSON line with the set-up time and its parts.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import pin_blas_threads  # noqa: E402

pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, seed: int, outdir: Path) -> dict:
    import repro  # noqa: F401
    import numpy as np
    import workloads

    imported = time.perf_counter()
    graph = workloads.make_inputs(workload, seed)[0]
    generated = time.perf_counter()
    result = {"import_s": imported - START, "generate_s": generated - imported,
              "setup_s": generated - START}
    if workload == "serve":
        fitted = workloads.fit(workload, graph)
        fitted_at = time.perf_counter()
        outdir.mkdir(parents=True, exist_ok=True)
        result["artifact"] = fitted.save(str(outdir / "artifact"))
        saved = time.perf_counter()
        np.save(outdir / "probabilities.npy", fitted.fit_report.probabilities)
        result.update(fit_s=fitted_at - generated, save_s=saved - fitted_at,
                      setup_s=saved - START)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
