"""One benchmark worker: a fresh, single-threaded process that imports the
package and drives the real CLI in-process through ``fknne.cli.main``.

    python3 perfbench/worker.py SPEC.json             # run the workload
    python3 perfbench/worker.py --setup               # only time the import
    python3 perfbench/worker.py --reference-import    # time REFERENCE_MODULES

Only ``sys`` and ``time`` are loaded before an import is timed, so the
measured set-up is what every CLI user pays: importing fknne.cli, which
imports numpy. The result is one JSON value on standard output.
"""

import sys
import time

# Standard-library modules that neither fknne nor numpy imports. Importing
# them in a fresh process is the yardstick for the host's speed at imports,
# taken in a process of its own so that what fknne imports cannot change it.
REFERENCE_MODULES = ("decimal", "email.parser", "xml.dom.minidom", "http.client", "logging",
                     "unittest", "tarfile", "zipfile", "sqlite3", "asyncio")


def _seconds_to_import(*modules) -> float:
    t0 = time.perf_counter()
    for name in modules:
        __import__(name)
    return time.perf_counter() - t0


# The host the benchmark was written on changes speed by up to 1.75x over
# spells of seconds to minutes, separately on each CPU. While a repetition
# runs, a timer signal times a fixed interpreter kernel in this thread every
# SAMPLE_EVERY_S, which tells how fast this CPU ran meanwhile at a cost of
# under 1 % of the repetition. Do not change the kernel: results are only
# comparable with the same one.
SAMPLE_EVERY_S = 0.25


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - t0


def main() -> int:
    if sys.argv[1:] == ["--reference-import"]:
        print(_seconds_to_import(*REFERENCE_MODULES))
        return 0
    setup_s = _seconds_to_import("fknne.cli")
    if sys.argv[1:] == ["--setup"]:
        print(setup_s)
        return 0

    import json

    import contextlib
    import gc
    import io
    import math
    import resource
    import signal
    import statistics
    import tracemalloc
    from pathlib import Path

    import fknne.cli
    from fknne.classifiers import ClassifierConfig, fit
    from fknne.formats import read_feature_csv
    from check import SCORE_TOL
    from spans import Tracer, patched

    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["work_dir"])

    def run_cli(rep: int):
        out_dir = work / f"rep{rep}"
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [a.replace("{out}", str(out_dir)) for a in spec["argv"]]
        gc.collect()
        buf = io.StringIO()
        samples = []
        signal.signal(signal.SIGALRM, lambda *_: samples.append(_kernel_seconds()))
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = fknne.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            finally:
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append(_kernel_seconds())
        return {"dir": out_dir.name, "exit": code, "wall_s": wall, "cpu_s": cpu,
                "kernel_s": statistics.median(samples), "kernel_samples": len(samples),
                "log": buf.getvalue()[-2000:]}

    # Repetition 0 also checks every prediction the CLI makes: scores
    # finite, in [0, 1] and summing to 1 within SCORE_TOL, and the label
    # holding the top score. The check costs under 1 % of the repetition.
    checked = {"predictions": 0, "bad": 0}

    def checking(predict):
        def wrapper(model, x):
            p = predict(model, x)
            s = [float(v) for v in p.scores]
            ok = (len(s) == len(p.classes) and p.label in p.classes
                  and all(math.isfinite(v) and -SCORE_TOL <= v <= 1.0 + SCORE_TOL for v in s)
                  and abs(sum(s) - 1.0) <= SCORE_TOL and p.score(p.label) == max(s))
            checked["predictions"] += 1
            checked["bad"] += not ok
            return p
        return wrapper

    # Repetitions until the next one would pass the deadline. A traced run
    # alternates untraced and traced repetitions, so the tracing overhead is
    # measured under the same conditions; it has at least one of each.
    reps = []
    tracer = None
    start = time.perf_counter()
    while True:
        i = len(reps)
        if i == 0:
            with patched([("fknne.evaluation", "predict", checking)]):
                rep = run_cli(i)
        elif spec["trace"] and i % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                rep = run_cli(i)
            rep.update(traced=True, spans=tracer.summary(), counts=dict(tracer.counts))
        else:
            rep = run_cli(i)
        reps.append(rep)
        if (time.perf_counter() - start + rep["wall_s"] > spec["seconds"]
                and (tracer is not None or not spec["trace"])):
            break

    if tracer is not None:
        with open(spec["spans_out"], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    # Peak memory of one fit on the workload's largest training set, in a
    # pass of its own because tracemalloc slows every allocation.
    alloc_peak_mb = None
    probe = spec.get("alloc_probe")
    if spec["trace"] and probe:
        data = read_feature_csv(probe["features"])
        train = data.subset(data.ids[: probe["train_size"]])
        cfg = ClassifierConfig(**probe["config"])
        tracemalloc.start()
        fit(train, cfg)
        alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()

    print(json.dumps({
        "setup_s": setup_s,  # this process's own import; setup_s comes from the probe pairs
        "fknne_file": fknne.cli.__file__,
        "predictions_checked": checked["predictions"],
        "predictions_bad": checked["bad"],
        "reps": reps,
        "alloc_peak_mb": alloc_peak_mb,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
