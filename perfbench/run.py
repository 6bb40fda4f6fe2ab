"""Benchmark of the fknne batch CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload extract-mias --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated from the
seed, then fresh single-threaded worker processes import the package from
``src/`` and run the workload's fknne command in-process, repeatedly, for
the given number of seconds. Every repetition's outputs are checked.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from the traced repetitions. A summary for
people comes first; the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics. The full record (input
properties, computed work counts, every repetition, environment) is
written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import corpus as corpora
from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Pairs of fresh processes: one times the import of fknne.cli, the next
# the import of the worker's REFERENCE_MODULES. Half the pairs run before
# the worker and half after, so one slow spell of the host does not set the
# median. Set-up time is reported at the host speed where the reference
# import takes REFERENCE_IMPORT_S.
SETUP_PAIRS = 8
REFERENCE_IMPORT_S = 0.06
# Throughput is reported at a reference host speed: the speed at which the
# worker's timing kernel takes this long. See worker.SAMPLE_EVERY_S.
KERNEL_REF_S = 0.0015
DEADLINE_S = 170  # the whole run must end within 180 s



def _environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # not a git checkout; the source hash still identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fknne").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _worker(args: list[str], deadline: float):
    """Run worker.py in a fresh process; return the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(c: corpora.Corpus, reps: list[dict], alloc_peak_mb) -> dict:
    """Per-layer metrics: medians over the traced repetitions of each span's
    self time, call counts, boundary counts, and work counts computed from
    the inputs."""
    traced = [r for r in reps if r.get("traced")]
    plain = [r["wall_s"] for r in reps if not r.get("traced")]

    def self_s(name):
        return _median([r["spans"].get(name, {}).get("self_s", 0.0) for r in traced])

    def total_s(name):
        return _median([r["spans"].get(name, {}).get("total_s", 0.0) for r in traced])

    def calls(name):
        return traced[-1]["spans"].get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    w = c.work
    m = {f"{name}.self_s": (self_s(name), "s") for name in SPAN_NAMES}
    read_bytes = w.get("read_pgm_bytes", 0)
    pixels = w.get("roi_pixel_directions", 0)
    distances = w.get("predict_distances", 0)
    m.update({
        "ingestion.read_pgm.calls": (calls("ingestion.read_pgm"), "count"),
        "ingestion.read_pgm.bytes": (read_bytes, "B"),
        "ingestion.read_pgm.mb_per_s": (ratio(read_bytes / 1e6, self_s("ingestion.read_pgm")), "MB/s"),
        "ingestion.read_pgm.distinct_ratio": (ratio(w.get("distinct_images", 0),
                                                    calls("ingestion.read_pgm")), "ratio"),
        "ingestion.border_clamped": (traced[-1]["counts"].get("ingestion.border_clamped", 0), "count"),
        "texture.pixels": (pixels, "count"),
        "texture.us_per_pixel": (ratio(1e6 * total_s("texture.extract_all"), pixels), "us"),
        "classifiers.predict.calls": (calls("classifiers.predict"), "count"),
        "classifiers.predict.distances": (distances, "count"),
        "classifiers.predict.us_per_query_sample": (
            ratio(1e6 * self_s("classifiers.predict"), distances), "us"),
        "classifiers.fit.calls": (calls("classifiers.fit"), "count"),
        "classifiers.fit.pair_distances": (w.get("fit_pair_distances", 0), "count"),
        "classifiers.fit.peak_alloc_mb": (alloc_peak_mb or 0.0, "MB"),
        "trace.overhead_ratio": (ratio(_median([r["wall_s"] for r in traced]), _median(plain)) - 1.0,
                                 "ratio"),
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fknne CLI benchmark")
    p.add_argument("--workload", choices=corpora.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fknne" / "cli.py").is_file():
        print(f"no fknne source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / tag
    results = ROOT / ".perfbench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        c = corpora.build(args.workload, work / "inputs", args.seed)
        spec = {"argv": c.argv, "work_dir": str(work / "out"), "seconds": args.seconds,
                "trace": args.trace, "alloc_probe": c.alloc_probe,
                "spans_out": str(results / f"{tag}.spans.jsonl")}
        (work / "spec.json").write_text(json.dumps(spec))
        def setup_pairs():
            return [(_worker(["--setup"], deadline), _worker(["--reference-import"], deadline))
                    for _ in range(SETUP_PAIRS // 2)]

        pairs = setup_pairs()
        res = _worker([str(work / "spec.json")], deadline)
        pairs += setup_pairs()

        if Path(res["fknne_file"]).resolve() != (ROOT / "src" / "fknne" / "cli.py").resolve():
            raise RuntimeError(f"worker imported fknne from {res['fknne_file']}")
        # Every repetition's outputs are checked; repetition 0 also checked
        # each prediction in the worker.
        checks = []
        for rep in res["reps"]:
            outcome = check.check(c, work / "out" / rep["dir"], rep["exit"], args.seed)
            rep["failed"], rep["problems"] = outcome.failed, outcome.problems
            rep["identical_to_reference"] = outcome.identical
            checks.append(outcome)
        checks[0].failed = min(c.ops, checks[0].failed + res["predictions_bad"])
        attempted = c.ops * len(checks)
        failed = sum(o.failed for o in checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in res["reps"] if not r.get("traced")]
    walls = [r["wall_s"] for r in timed]
    ops_per_s = _median([c.ops / w for w in walls])
    e2e = {
        "ops_per_ref_s": (_median([c.ops / r["wall_s"] * r["kernel_s"] / KERNEL_REF_S
                                   for r in timed]), "1/s"),
        "setup_s": (_median([t * REFERENCE_IMPORT_S / ref for t, ref in pairs]), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    layers = _layer_metrics(c, res["reps"], res["alloc_peak_mb"]) if args.trace else {}
    metrics = layers if args.trace else e2e
    correct = failed == 0 and not any(o.problems for o in checks)

    record = {
        "workload": args.workload,
        "operation": c.operation,
        "ops_per_command": c.ops,
        "argv": ["fknne", *c.argv],
        "environment": _environment(args.seed),
        "input_properties": c.properties,
        "work_computed": c.work,
        "setup_pairs_s": pairs,  # (import fknne.cli, import reference modules)
        "reference_import_s": REFERENCE_IMPORT_S,
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "ops_per_s": ops_per_s,
        "kernel_ref_s": KERNEL_REF_S,
        "check": {"attempted": attempted, "failed": failed,
                  "error_rate": failed / attempted,
                  "predictions_checked": res["predictions_checked"],
                  "predictions_bad": res["predictions_bad"],
                  "tolerance": {"rel": check.REL_TOL, "abs": check.ABS_TOL},
                  "reference_seed": check.REFERENCE_SEED},
        "repetitions": res["reps"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layers}.items()},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    identical = [r["identical_to_reference"] for r in record["repetitions"]]
    print(f"fknne benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  command: fknne {' '.join(c.argv[:1])} ... ({c.ops} {c.operation} per command)")
    print(f"  inputs: {json.dumps(c.properties)}")
    print(f"  {c.operation}_per_s = {ops_per_s:.4f} 1/s "
          f"(median of {len(walls)} untraced repetitions)")
    print(f"  ops_per_ref_s = {e2e['ops_per_ref_s'][0]:.4f} 1/s ({c.operation}_per_s at the "
          f"host speed where the timing kernel takes {KERNEL_REF_S * 1e3:g} ms; it took a "
          f"median {_median([r['kernel_s'] for r in timed]) * 1e3:.3f} ms)")
    print(f"  setup_s = {e2e['setup_s'][0]:.4f} s (import of fknne.cli at the host speed where "
          f"the reference import takes {REFERENCE_IMPORT_S * 1e3:g} ms; raw median "
          f"{_median([t for t, _ in pairs]):.4f} s over {len(pairs)} fresh imports)")
    print(f"  peak_rss_mb = {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"  error_rate = {failed / attempted:.4g} ratio ({failed} of {attempted} operations failed)")
    if identical[0] is not None:
        print(f"  byte-identical to reference: {identical[0]} of {len(c.outputs)} output files"
              f" (repetition 0); all repetitions: {min(identical)} of {len(c.outputs)}")
    for rep in record["repetitions"]:
        for problem in rep["problems"]:
            print(f"  problem in {rep['dir']}: {problem}")
    for name, (value, unit) in layers.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  record: {results / f'{tag}.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
