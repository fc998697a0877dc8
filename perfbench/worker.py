"""The studies of one benchmark run in one fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke \
        --out DIR --spawned T [--seconds S] [--min-studies K] [--trace] \
        [--emit-means] [--reference FILE] [--setup-only]

``--spawned`` is the ``time.monotonic()`` reading of the parent just before
it started this process, so ``setup_s`` covers interpreter start, imports and
argument handling. With ``--setup-only`` the process stops there and reports
``setup_s`` alone. Otherwise it runs one study after another, each in its
own output directory, while the next one is expected to end within
``--seconds`` of ``--spawned`` and until ``--min-studies`` are done (of each
kind, with ``--trace``, which alternates untraced and traced studies; by
default one more study than the run has inputs, so that one input runs
twice, or with ``--trace`` one study of each input of each kind). The
studies of each kind take the run's inputs (``workloads.INPUTS``) in turn:
study j runs seed ``--seed`` + j mod INPUTS. The timed section of a study is
the study alone; checks, ESS and the draw digest come after it.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _blas_facts() -> dict:
    """BLAS vendor and version from numpy's build record, and the thread
    count OpenBLAS reports at run time (None when it cannot be read)."""
    import ctypes

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS")}


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.STUDIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=tuple(workloads.SIZES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-studies", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--emit-means", action="store_true")
    parser.add_argument("--reference")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True)
    reference = {}
    if args.reference:
        reference = json.loads(Path(args.reference).read_text()).get(args.workload, {})
    inputs = workloads.INPUTS[args.workload]
    min_studies = args.min_studies or (inputs if args.trace else inputs + 1)
    plain, traced = [], []
    last = 0.0
    try:
        while True:
            elapsed = time.monotonic() - args.spawned
            enough = (len(plain) >= min_studies
                      and (not args.trace or len(traced) >= min_studies))
            if enough and elapsed + last > args.seconds:
                break
            want_trace = args.trace and len(traced) < len(plain)
            seed = args.seed + len(traced if want_trace else plain) % inputs
            study = _study(args, seed, out / f"study{len(plain) + len(traced)}",
                           want_trace, reference.get(str(seed)))
            last = time.monotonic() - args.spawned - elapsed
            (traced if want_trace else plain).append(study)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s, "plain": plain, "traced": traced,
        "facts": {"numpy": np.__version__, "scipy": __import__("scipy").__version__,
                  "python": sys.version.split()[0], **_blas_facts()},
        "kernels": workloads.kernel_counts(args.workload, args.size, out, args.seed),
    }))
    return 0


def _study(args, seed: int, out: Path, trace: bool, reference) -> dict:
    out.mkdir()
    tracer = None
    if trace:
        tracer = spans.Tracer(f"{args.workload}-s{seed}-p{os.getpid()}")
        tracer.install()
    t0 = time.perf_counter()
    try:
        state = workloads.run(args.workload, args.size, out, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    study_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_mb = _dir_mb(out)

    check, chains, ess = workloads.inspect(args.workload, args.size, out, seed, state)
    result = {
        "seed": seed,
        "study_s": study_s,
        "ess_per_s": sum(float(np.mean(e)) for e in ess) / study_s,
        "peak_rss_mb": peak_rss_mb,
        "out_mb": out_mb,
        "kept_draws": sum(len(x) for x in chains),
        "digest": workloads.digest(chains),
        "reference": workloads.compare_reference(check, reference, chains, ess),
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
    }
    if args.emit_means:
        result["means"] = [m.tolist() for m in workloads.means_and_errors(chains, ess)[0]]
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans)
        layers["experiments.failed_trials"] = sum(
            len(json.loads((Path(d) / "manifest.json").read_text())["failures"])
            for d in state.get("dirs", ()))
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write(out.parent.parent / f"spans_{args.workload}.csv")
    shutil.rmtree(out, ignore_errors=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
