"""Run one benchmark workload, or all of them, and report its metrics.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric; with ``--trace 1`` it
holds every per-layer metric instead: each operation then runs once untraced
and once more with the wrappers installed. Full results, the environment
record and, when traced, the spans go to ``.perfbench-out/``. ``--workload
all`` runs each workload in its own process and prints their reports.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np  # a dependency, loaded before the timed import of ccoe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT_DIR, ROOT, WORKLOADS, load_ccoe  # noqa: E402
from perfbench.stats import latency_summary, percentile  # noqa: E402

SETUP_REPEATS = 3

# name -> (unit, meaning); every workload reports all of them. Times in
# "ref" are divided by the time of the reference loop (see reference.py) run
# just before them, which keeps them steady while the shared machine's speed
# drifts.
END_TO_END = {
    "setup_s": ("s", "import of ccoe (NumPy already loaded), plus the median of "
                     f"{SETUP_REPEATS} registry loads from checkpoints with warm-up"),
    "op_p50_ref": ("ref", "median latency of a gated request (serve) or of one training "
                          "cycle through all seven phase calls (train), in reference loops"),
    "work_per_kref": ("1/kref", "serve: tokens generated by gated requests, train: training "
                                "examples, per 1000 reference loops of operation time"),
    "peak_rss_mb": ("MB", "peak resident set of the workload's own process"),
}


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_at_start: tuple[float, float, float]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "loadavg_at_start": load_at_start,
    }


def end_to_end_metrics(workload: str, setup_s: float, out, peak_rss_mb: float) -> dict[str, float]:
    if workload == "train_phases":
        work, ops = out.examples, out.cycles
    else:
        work, ops = out.tokens, out.of("gated")
    return {
        "setup_s": setup_s,
        "op_p50_ref": percentile([t.ref for t in ops], 50),
        "work_per_kref": 1e3 * work / sum(t.ref for t in out.timings),
        "peak_rss_mb": peak_rss_mb,
    }


def summary(workload: str, setup_s: float, out, reg, peak_rss_mb: float,
            attempted: int, failed: int) -> list[tuple]:
    """Rows (name, value, unit, samples) for every end-to-end figure that
    applies to the workload, in milliseconds as measured and, for latencies,
    in reference loops as well."""
    rows = [("setup_s", setup_s, "s", SETUP_REPEATS)]

    def latency(prefix: str, timings: list) -> None:
        for unit in ("ms", "ref"):
            s = latency_summary([getattr(t, unit) for t in timings])
            if "p50" in s:
                rows.append((f"{prefix}_p50_{unit}", s["p50"], unit, s["n"]))
            if "tail" in s:
                rows.append((f"{prefix}_p{s['tail_pct']}_{unit}", s["tail"], unit, s["n"]))

    if workload == "train_phases":
        kinds = (("pretrain", ("pretrain",)), ("expert", ("GL", "FB", "FE", "MD", "BE")),
                 ("planner", ("planner",)))
        for kind, tags in kinds:
            steps = sum(out.phase_steps.get(t, 0) for t in tags)
            rows.append((f"{kind}_step_ms", sum(t.ms for t in out.of(*tags)) / steps, "ms", steps))
        for tag in kinds[1][1]:
            steps = out.phase_steps.get(tag, 0)
            rows.append((f"expert_step_ms.{tag}", sum(t.ms for t in out.of(tag)) / steps, "ms", steps))
        latency("cycle", out.cycles)
        for kind, losses in sorted(out.final_loss.items()):
            rows.append((f"final_loss.{kind}", statistics.median(losses), "nats", len(losses)))
    else:
        rows.append(("tokens_per_s", out.tokens / out.wall_s, "1/s", out.tokens))
        latency("req", out.of("gated"))
        if out.routed_steps:
            latency("route", out.of("routed"))
            rows.append(("route_steps_per_query", statistics.mean(out.routed_steps), "steps",
                         len(out.routed_steps)))
        if out.of("update"):
            latency("update", out.of("update"))
    rows.append(("resident_bytes", reg.total_bytes(), "B", 1))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", 1))
    rows.append(("error_rate", failed / attempted, "ratio", attempted))
    return rows


def run_workload(args) -> int:
    load_at_start = os.getloadavg()
    t0 = time.perf_counter()
    try:
        load_ccoe()
    except ImportError as exc:
        print(f"perfbench: cannot import the ccoe package of this checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from ccoe import checkpoint

    from perfbench import harness, layers, spans
    from perfbench import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    ckpt_dir = OUT_DIR / f"ckpt-{os.getpid()}"
    ckpt_dir.mkdir()
    try:
        paths = harness.write_components(ckpt_dir)
        loads = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            reg = harness.set_up(paths, args.workload)
            loads.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(loads)
        digest = checkpoint.digest(reg.backbone)

        traced = None
        if args.trace:
            tracer = spans.Tracer()
            patched = spans.install(tracer, layers.TARGETS, "ccoe")
            try:
                with tracer.root("setup", -1):
                    traced = (harness.set_up(paths, args.workload), tracer)
            finally:
                spans.uninstall(patched)
        stream = wl.GENERATORS[args.workload](args.seed)
        out, traced_out = harness.run(args.workload, reg, stream,
                                      time.perf_counter() + args.seconds, traced)
        passes = [(reg, out)] + ([(traced[0], traced_out)] if traced else [])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for r, o in passes:
            harness.check_served(r, o)
            o.attempted += 1
            if checkpoint.digest(r.backbone) != digest:
                o.fail("backbone digest changed during the workload")
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    attempted = sum(o.attempted for _, o in passes)
    failed = sum(o.failed for _, o in passes)
    if traced:
        overhead = traced_out.wall_s / out.wall_s - 1
        values = layers.per_layer_metrics(tracer.spans, traced[0].ledger(), overhead)
        units = dict(layers.per_layer_spec())
    else:
        values = end_to_end_metrics(args.workload, setup_s, out, peak_rss_mb)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    rows = summary(args.workload, setup_s, out, reg, peak_rss_mb, attempted, failed)

    props = (wl.stream_properties(out.ops) if args.workload != "train_phases"
             else {"cycles": len(out.ops), "phases": {
                 "pretrain": wl.PRETRAIN, "expert": wl.EXPERT, "planner": wl.PLANNER}})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(load_at_start),
        "properties": props, "summary": [list(r) for r in rows],
        "final_loss": out.final_loss, "errors": [e for _, o in passes for e in o.errors],
        "attempted": attempted, "failed": failed,
        "metrics": values,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        tracer.write(OUT_DIR / f"{tag}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# properties {json.dumps(props)}")
    for name, value, unit, n in rows:
        print(f"{name:28s} {value:14.4f} {unit:6s} n={n}")
    print(f"# checks: {attempted - failed}/{attempted} passed; results in {OUT_DIR / tag}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{name:28s} {m['value']:14.4f} {m['unit']:6s} (gated metric)")
        print(f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
        status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
