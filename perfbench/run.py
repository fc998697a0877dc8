"""Study-level benchmark of orthant-gibbs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference 0-19,7919-7922

Run from the root of a source tree; nothing needs installing. One run is a
closed loop with one client. It first starts SETUP_PROBES processes that only
set up (interpreter, imports, argument handling) and exit, then one fresh
worker process that runs one study after another while the next study is
expected to end within ``--seconds`` of the run's start. The studies take
the run's inputs in turn, the seeds ``--seed``, ``--seed`` + 1, ... (as many
as ``workloads.INPUTS`` gives the workload), and at least one input runs
twice. Every study of one input must produce the same draw digest. BLAS is
pinned to one thread in the workers.

``--trace 0`` reports every end-to-end metric of BENCHMARK.json as the
median over the run's inputs of the median over each input's studies, and
``setup_s`` as the median over the probes and the worker. ``--trace 1``
alternates untraced and traced studies and reports every per-layer metric,
in the same way, over the traced ones, plus ``trace.overhead_s``, traced
minus untraced study time.

The last line of standard output is the result object; the line before it is
a record with the machine facts, every study's figures and the draw digest.
``--smoke`` runs every workload at minimal size in both modes and exits
non-zero unless each declared metric is emitted with its declared unit.
``--record-reference`` records draw digests and posterior means for the
given seeds in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 2
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class StudyFailed(Exception):
    pass


def spawn(workload: str, seed: int, size: str, *, timeout: float, setup_only=False,
          seconds: float = 0.0, min_studies: int | None = None, trace=False,
          emit_means=False) -> dict:
    """Start one worker process and return what it printed. The worker runs
    the studies of a run, or with ``setup_only`` only measures set-up."""
    env = {k: v for k, v in os.environ.items() if k != "ORTHANT_GIBBS_SEED"}
    env.update(PINNED_ENV)
    out = RUNS / f"{workload}-p{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--seconds", repr(seconds)]
    if min_studies is not None:
        cmd += ["--min-studies", str(min_studies)]
    if trace:
        cmd.append("--trace")
    if emit_means:
        cmd.append("--emit-means")
    if size == "full" and REFERENCE.exists() and not emit_means:
        cmd += ["--reference", str(REFERENCE)]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise StudyFailed(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise StudyFailed(f"{workload} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    # a checkout that is not a git repository has no rev; src_sha256 then
    # identifies the sources
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        rev = head.read_text().strip()
        ref = ROOT / ".git" / rev.removeprefix("ref: ")
        if ref.is_file():
            rev = ref.read_text().strip()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "git_rev": rev,
            "src_sha256": src.hexdigest()}


def run_studies(workload: str, seed: int, size: str, seconds: float, trace: bool):
    """SETUP_PROBES processes that only set up, then one worker process that
    runs studies for the rest of ``seconds``. Returns the set-up times, the
    worker's report and the errors."""
    started = time.monotonic()
    setups, errors = [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, size, setup_only=True,
                                timeout=DEADLINE_S)["setup_s"])
        remaining = seconds - (time.monotonic() - started)
        report = spawn(workload, seed, size, seconds=remaining, trace=trace,
                       timeout=DEADLINE_S - (time.monotonic() - started))
    except StudyFailed as exc:
        errors.append(str(exc))
        return setups, None, errors
    setups.append(report["setup_s"])
    return setups, report, errors


def _median(studies, key):
    """Median over the run's inputs of the median over each input's studies."""
    by_seed: dict[int, list[float]] = {}
    for s in studies:
        by_seed.setdefault(s["seed"], []).append(s[key])
    return statistics.median(statistics.median(v) for v in by_seed.values())


def summarize(workload, seed, size, setups, report, units):
    plain, traced = report["plain"], report["traced"]
    studies = plain + traced
    attempted = sum(s["attempted"] for s in studies)
    failed = sum(s["failed"] for s in studies)
    notes = [n for s in studies for n in s["notes"]]
    digests: dict[int, set] = {}
    for s in studies:
        digests.setdefault(s["seed"], set()).add(s["digest"])
    # the comparison of the digests of each input's studies is one more check
    for input_seed, found in sorted(digests.items()):
        attempted += 1
        if len(found) != 1:
            failed += 1
            notes.append(f"studies of seed {input_seed} gave {len(found)} different draw digests")
    if traced:
        names = [n for n, (_, layer) in units.items() if layer]
        values = {n: _median([{**s["layers"], "seed": s["seed"]} for s in traced], n)
                  for n in names if n != "trace.overhead_s"}
        values["trace.overhead_s"] = _median(traced, "study_s") - _median(plain, "study_s")
    else:
        names = [n for n, (_, layer) in units.items() if not layer]
        values = {n: _median(plain, n) for n in names if n != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    metrics = {n: {"value": values[n], "unit": units[n][0]} for n in names}
    record = {
        "workload": workload, "seed": seed, "size": size,
        "studies": len(plain), "traced_studies": len(traced),
        "setup_s": setups,
        "per_study": {k: [s[k] for s in plain] for k in
                      ("seed", "study_s", "ess_per_s", "peak_rss_mb", "out_mb")},
        "kept_draws": {s["seed"]: s["kept_draws"] for s in studies},
        "digest": {k: sorted(v) if len(v) > 1 else next(iter(v))
                   for k, v in sorted(digests.items())},
        "reference": sorted({s["reference"] for s in studies}),
        "library": report["facts"], "kernels": report["kernels"],
        "absent_spans": sorted({a for s in traced for a in s.get("absent", ())}),
        "notes": notes,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def declared_units(spec) -> dict:
    """name -> (unit, is per-layer) from BENCHMARK.json."""
    units = {m["name"]: (m["unit"], False) for m in spec["end_to_end"]}
    units.update({m["name"]: (m["unit"], True) for m in spec["per_layer"]})
    return units


def bench(args, units) -> int:
    facts = machine_facts()
    setups, report, errors = run_studies(args.workload, args.seed, "full",
                                         args.seconds, bool(args.trace))
    if report is None:
        print("\n".join(errors), file=sys.stderr)
        return 1
    record, result = summarize(args.workload, args.seed, "full", setups, report, units)
    facts["loadavg_end"] = os.getloadavg()
    print(json.dumps({"record": {"machine": facts, **record}}))
    print(json.dumps(result))
    return 0


def smoke(workloads, units) -> int:
    """Every workload at minimal size, untraced and traced: each declared
    metric must be emitted with its declared unit."""
    missing = []
    for workload in workloads:
        for trace in (False, True):
            setups, report, errors = run_studies(workload, 0, "smoke", 0.0, trace)
            if report is None:
                missing.append(f"{workload}: {errors}")
                continue
            _, result = summarize(workload, 0, "smoke", setups, report, units)
            expect = {n: u for n, (u, layer) in units.items() if layer == trace}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != expect or not result["correct"]:
                missing.append(f"{workload} trace={int(trace)}: "
                               f"{sorted(set(expect) ^ set(got))} correct={result['correct']}")
            print(f"{workload} trace={int(trace)}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    for line in missing:
        print(f"smoke failed: {line}", file=sys.stderr)
    return 1 if missing else 0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_reference(workloads, seeds) -> int:
    """Digest and posterior means of each workload at each seed. A seed whose
    checks fail is recorded too, and its failures are printed."""
    table = {}
    for workload in workloads:
        for seed in seeds:
            study = spawn(workload, seed, "full", timeout=DEADLINE_S, min_studies=1,
                          emit_means=True)["plain"][0]
            table.setdefault(workload, {})[str(seed)] = {
                "digest": study["digest"],
                "means": [[float(f"{v:.6g}") for v in m] for m in study["means"]]}
            print(f"{workload} seed {seed}: {study['digest'][:12]} "
                  f"failed checks: {study['notes']}")
    REFERENCE.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", metavar="SEEDS")
    args = parser.parse_args()
    if not (ROOT / "src" / "orthant_gibbs" / "__init__.py").is_file():
        print(f"error: no orthant_gibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(spec)
    if args.smoke:
        return smoke(workloads, units)
    if args.record_reference:
        return record_reference(workloads, parse_seeds(args.record_reference))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return bench(args, units)


if __name__ == "__main__":
    sys.exit(main())
