"""The pentaplanar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload theorem|enumerate|query \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` (no build step: the active kernel backend is whatever imports).
Every unit runs in a fresh interpreter started by this script (see
`worker.py`).  With `--trace 0` the last stdout line holds the end-to-end
metrics, with `--trace 1` the per-layer metrics of a separate traced run.
Human-readable lines (metrics with units, checks, provenance) come first.
Each result is also saved under `perfbench/out/`; a rerun with the same
workload, seed, trace flag and source must repeat its exact counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import SAME_RUN_KEYS, count_differences, setup_differences

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170          # a run must end within 180 s
SETUP_PROBES = 3            # extra set-up-only interpreters per run

# Worker count per workload: theorem runs `verify --workers 1`, enumerate
# runs `enumerate --workers 2`, query has no pool (see worker.py).
WORKERS = {"theorem": 1, "enumerate": 2, "query": 1}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "classes_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "enumeration.s": "s", "enumeration.last_level_s": "s", "enumeration.dump_s": "s",
    "enumeration.children": "count", "enumeration.classes": "count",
    "enumeration.accept_ratio": "ratio", "enumeration.children_per_s": "1/s",
    "pool.workers": "count", "pool.speedup": "ratio", "pool.child_peak_rss_mb": "MB",
    **{f"kernels.{k}.{m}": u for k in ("embedding_min_code", "cycle_counts", "c5_per_edge",
                                       "paths3_per_edge", "paths3_between")
       for m, u in (("calls", "count"), ("s", "s"))},
    "verification.theorem.s": "s",
    **{f"verification.{k}.{m}": u for k in ("lemma1", "lemma2", "lemma3", "remark4")
       for m, u in (("s", "s"), ("checked", "count"))},
    "verification.monotonicity.s": "s", "verification.monotonicity.edges_tested": "count",
    "embeddings.planar_embed.calls": "count", "embeddings.planar_embed.s": "s",
    "embeddings.planar_embed.reject_ratio": "ratio",
    "counting.cycle_report.s": "s", "graphs.parse_graph6.s": "s",
    "canon.canonical_form.calls": "count", "canon.canonical_form.s": "s",
    "canon.canonical_form.max_ms": "ms", "canon.symmetric_s": "s",
    **{f"{m}.self_s": "s" for m in ("enumeration", "verification", "kernels", "counting",
                                    "embeddings", "canon", "graphs")},
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker interpreters, each in its own process group, and never
    lets the run exceed its time limit."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = now() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.setup_samples: list[float] = []
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self.backends: set[str] = set()
        self.kernel_env: set = set()

    def spawn(self, mode: str, **extra) -> dict:
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "out_dir": str(OUT_DIR),
                "workers": WORKERS[self.workload], **extra}
        start = now()
        proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - now()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        setup = result["setup"]
        self.setup_samples.append((result["ready"] - start - setup["probe_s"]) * setup["speed"])
        self.backends.add(result["provenance"]["backend"])
        self.kernel_env.add(result["provenance"]["PENTAPLANAR_KERNEL"])
        if "checks" in result:
            self.attempted += result["checks"]["attempted"]
            self.failed += result["checks"]["failed"]
            self.messages += result["checks"]["messages"]
        return result

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def unit(self) -> dict:
        return self.spawn("query" if self.workload == "query" else "cli")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples (never beyond them)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Runner) -> tuple[dict, dict]:
    """Set-up probes, then the timed units.  A query unit runs the stream
    for --seconds; a CLI unit is one command, run in at least two fresh
    interpreters and repeated while less than --seconds have been measured.
    Times are in reference seconds (see README.md, Noise)."""
    for _ in range(SETUP_PROBES):
        run.spawn("setup")
    units = [run.unit()]
    while run.workload != "query" and (
            len(units) < 2 or sum(u["wall_s"] for u in units) < run.seconds):
        units.append(run.unit())
    if run.workload == "query":
        unit = units[0]
        latencies = [x * v for x, v in zip(unit["latencies_s"], unit["speeds"])]
        walls = [sum(latencies)]
    else:
        walls = [u["wall_s"] * u["timed"]["speed"] for u in units]
        latencies = walls
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup_samples),
        "classes_per_s": sum(u["items"] for u in units) / sum(walls),
        "latency_p50_ms": 1e3 * quantile(latencies, 50),
        "latency_p99_ms": 1e3 * quantile(latencies, 99),
        "peak_rss_mb": max(u["rss_mb"] for u in units),
    }
    info = {"units": len(units), "latency_samples": len(latencies),
            "raw_wall_s": [round(u["wall_s"], 3) for u in units],
            "speed": [round(u["timed"]["speed"], 3) for u in units]}
    counts = units[0]["counts"]
    for u in units[1:]:
        run.check(u["counts"] == counts, "counts differ between units of one run")
    return metrics, {"info": info, "counts": counts}


def traced(run: Runner) -> tuple[dict, dict]:
    """The separate traced run; see README.md for what each metric is."""
    workload = run.workload
    info: dict = {}
    speedup = 0.0
    if workload == "query":
        t = run.spawn("trace")
        untraced_s = t["extra"]["untraced_s"]
    else:
        reference = run.unit()
        t = run.spawn("trace")
        untraced_s = reference["wall_s"]
        for key, value in reference["counts"].items():
            run.check(t["counts"].get(key) == value,
                      f"{key}: traced {t['counts'].get(key)} vs untraced {value}")
        if workload == "enumerate":
            one = run.spawn("level", workers=1)
            run.check((one["count"], one["digest"]) == (reference["counts"]["enumeration.classes"],
                                                        reference["counts"]["digest"]),
                      "n=12 classes or digest differ between workers 1 and 2")
            speedup = one["level_s"] / t["extra"]["last_level_s"]
            info["level_s_workers_1"] = one["level_s"]
    by = t["summary"]["by_name"]
    self_s = t["summary"]["self_s"]
    extra, counts = t["extra"], t["counts"]

    def get(name: str, key: str = "s") -> float:
        return by.get(name, {}).get(key, 0)

    corpus_s = get("enumeration.corpus")
    embeds = get("embeddings.planar_embed", "calls")
    metrics = {
        "enumeration.s": corpus_s + get("enumeration.dump"),
        "enumeration.last_level_s": extra["last_level_s"],
        "enumeration.dump_s": get("enumeration.dump"),
        "enumeration.children": extra["children"],
        "enumeration.classes": extra["classes"],
        "enumeration.accept_ratio": extra["classes"] / extra["children"] if extra["children"] else 0.0,
        "enumeration.children_per_s": extra["children"] / corpus_s if extra["children"] else 0.0,
        "pool.workers": WORKERS[workload],
        "pool.speedup": speedup,
        "pool.child_peak_rss_mb": extra["child_peak_rss_mb"],
        "verification.theorem.s": get("verification.theorem"),
        "verification.monotonicity.s": get("verification.monotonicity"),
        "verification.monotonicity.edges_tested": counts.get("monotonicity.edges_tested", 0),
        "embeddings.planar_embed.calls": embeds,
        "embeddings.planar_embed.s": get("embeddings.planar_embed"),
        "embeddings.planar_embed.reject_ratio": counts["query.rejected"] / embeds if embeds else 0.0,
        "counting.cycle_report.s": get("counting.cycle_report"),
        "graphs.parse_graph6.s": get("graphs.parse_graph6"),
        "canon.canonical_form.calls": get("canon.canonical_form", "calls"),
        "canon.canonical_form.s": get("canon.canonical_form"),
        "canon.canonical_form.max_ms": 1e3 * get("canon.canonical_form", "max_s"),
        "canon.symmetric_s": extra.get("symmetric_s", 0.0),
        "trace.overhead_ratio": extra["traced_s"] / untraced_s - 1,
        "trace.unattributed_s": self_s.get("bench", 0.0),
    }
    for name in ("lemma1", "lemma2", "lemma3", "remark4"):
        metrics[f"verification.{name}.s"] = get(f"verification.{name}")
        metrics[f"verification.{name}.checked"] = counts.get(f"verification.{name}.checked", 0)
    for name in ("embedding_min_code", "cycle_counts", "c5_per_edge", "paths3_per_edge",
                 "paths3_between"):
        metrics[f"kernels.{name}.calls"] = get(f"kernels.{name}", "calls")
        metrics[f"kernels.{name}.s"] = get(f"kernels.{name}")
    for module in ("enumeration", "verification", "kernels", "counting", "embeddings",
                   "canon", "graphs"):
        metrics[f"{module}.self_s"] = self_s.get(module, 0.0)
    info.update(untraced_s=untraced_s, traced_s=extra["traced_s"])
    return {name: metrics[name] for name in LAYER_UNITS}, {"info": info, "counts": counts}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Hash of the package and benchmark sources: counts are expected to
    repeat exactly only between runs of the same source."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src" / "pentaplanar").rglob("*")
             if p.suffix in (".py", ".pyx", ".c", ".json")] + list(HERE.glob("*.py"))
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_previous(run: Runner, path: Path, result: dict) -> None:
    """Exact-count determinism: a rerun of the same workload, seed, trace
    flag and source repeats the saved counts.  A saved result from another
    backend, PENTAPLANAR_KERNEL setting or worker count is not compared."""
    if not path.exists():
        return
    previous = json.loads(path.read_text())
    refused = setup_differences(previous["provenance"], result["provenance"])
    if refused:
        print(f"note: not compared with {path.name}: " + ", ".join(refused))
        return
    if all(previous["provenance"].get(k) == result["provenance"][k] for k in SAME_RUN_KEYS):
        differ = count_differences(previous["counts"], result["counts"])
        run.check(not differ, f"counts differ from the saved run: {differ[:3]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pentaplanar" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pentaplanar'}", file=sys.stderr)
        return 2

    run = Runner(args.workload, args.seed, args.seconds)
    # On SIGTERM, unwind through Runner.spawn so the worker's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        metrics, detail = (traced if args.trace else end_to_end)(run)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(run.backends) != 1 or len(run.kernel_env) != 1:
        print(f"error: backend changed within the run: {sorted(run.backends)}", file=sys.stderr)
        return 1

    provenance = {
        "backend": run.backends.pop(), "PENTAPLANAR_KERNEL": run.kernel_env.pop(),
        "workers": WORKERS[args.workload], "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "source_digest": source_digest(),
    }
    result = {"provenance": provenance, "metrics": metrics, **detail}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    compare_with_previous(run, path, result)
    result["checks"] = {"attempted": run.attempted, "failed": run.failed,
                        "messages": run.messages}
    path.write_text(json.dumps(result, indent=1) + "\n")

    units = END_TO_END if not args.trace else LAYER_UNITS
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print("info: " + " ".join(f"{k}={v}" for k, v in detail["info"].items()))
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6f} {units[name]}")
    print(f"{'fail_ratio':44s} {run.failed / max(run.attempted, 1):14.6f} ratio "
          f"({run.failed} of {run.attempted} checks failed)")
    for message in run.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
