"""The hooklab benchmark: time-to-verdict of `hooklab verify` runs.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record-reference      # rewrite reference.json

Run from the repository root.  Each workload is a fixed list of CLI
invocations, and every invocation is a fresh interpreter with src/ on
its import path.  That keeps the caches cold by construction: hooklab's
lru_caches are unbounded and process-wide, so a second in-process run
would skip most of its work.  Every workload is an exhaustive sweep and
the mvl oracle seed is fixed inside hooklab.cli, so no input depends on
--seed; the seed is only recorded.

--trace 0 repeats the workload until --seconds (default: run_seconds of
BENCHMARK.json) have passed, at least once, and reports
the end-to-end metrics of BENCHMARK.json as medians over the
repetitions.  --trace 1 makes one untimed pass, then one pass under
tracer.py, and reports the per-layer metrics; the two passes give the
tracing overhead.

Every pass is checked against reference.json, the verdict record of each
comparison (check, params, equal, term counts, hashes, and a hash of any
trace payload), recorded with --record-reference.  pools-2w is recorded
at --threads 1 and run at --threads 2, so each of its runs re-checks that
the worker count never changes a hash.  A comparison that fails,
differs from the record or is missing counts as failed; an invocation
that exits nonzero fails all of its comparisons.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (machine, versions,
samples, layer split) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
PY = sys.executable

# seconds one child process may take before it is killed and failed
CHILD_TIMEOUT = 150
# no further repetition starts when it would end after this many seconds
RUN_CAP = 150
# setup samples taken before each pass and after the last one, so that
# their median spans the whole run
SETUP_SAMPLES = 4


def _verify(check: str, *flags: str, threads: int = 1) -> list:
    return ["verify", check, *flags, "--threads", str(threads), "--json"]


WORKLOADS = {
    "verify-all": [_verify("all")],
    "theorem1-r9": [_verify("theorem1", "--r", "9")],
    "derivations-r8-trace": [
        _verify(check, "--r", "8", "--trace")
        for check in ("pq", "root-recurrence", "mvl")
    ],
    "pools-2w": [
        _verify("theorem1", "--r", "8", threads=2),
        _verify("cayley", "--r", "7", threads=2),
        _verify("kerov", "--max-size", "9", threads=2),
    ],
}
CHECK_FAMILIES = ("theorem1", "postnikov", "binary-hooks", "cayley", "fibers",
                  "pq", "grafting", "root-recurrence", "mvl", "kerov")
RECORD_KEYS = ("check", "params", "equal", "lhs_terms", "rhs_terms",
               "lhs_hash", "rhs_hash")

# a timed invocation: the installed `hooklab` script's body, plus a note
# of the main process's own peak RSS in KiB (pool workers excluded).
# VmHWM, not ru_maxrss: on Linux ru_maxrss also keeps the peak of the
# launching process, which exec does not reset.
CLI_CHILD = (
    "import sys\n"
    "from hooklab.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(hwm)\n"
    "sys.exit(code)\n"
)
# interpreter start until hooklab.cli is imported; then the run record
SETUP_CHILD = (
    "import json, sys, hooklab.cli\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
    "import hooklab\n"
    "info = {'version': getattr(hooklab, '__version__', None)}\n"
    "for name in ('backend_name', 'available_backends'):\n"
    "    fn = getattr(hooklab, name, None)\n"
    "    info[name] = None if fn is None else fn()\n"
    "print(json.dumps(info))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


ENV = _env()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _wait(proc: subprocess.Popen) -> int:
    try:
        return proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.wait()
        return -9


def _python(args: list, stdout) -> subprocess.Popen:
    return subprocess.Popen([PY, *args], stdout=stdout, cwd=ROOT, env=ENV,
                            start_new_session=True)


def launch_setup() -> tuple:
    """(launch-to-ready seconds, hooklab info) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = _python(["-c", SETUP_CHILD], subprocess.PIPE)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    if _wait(proc) != 0 or line != b"ready\n":
        raise BenchError("importing hooklab.cli failed")
    return ready, json.loads(rest)


def run_record(seed: int) -> dict:
    # this first launch also writes the bytecode caches, so it is not a sample
    _, info = launch_setup()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "hooklab": info,
        "HOOKLAB_PURE_PYTHON_set": "HOOKLAB_PURE_PYTHON" in os.environ,
        "HOOKLAB_BUDGET_CEILING_set": "HOOKLAB_BUDGET_CEILING" in os.environ,
        "git_commit": commit,
        "seed": seed,
        "seed_note": "no input depends on the seed: every workload is exhaustive "
                     "and the mvl oracle seed is fixed in hooklab.cli",
        "caches": "cold: every invocation is a fresh interpreter",
    }


def verdict_records(doc: dict) -> list:
    """The comparisons of one --json report, without elapsed_ms."""
    records = []
    for c in doc["checks"]:
        rec = {k: c[k] for k in RECORD_KEYS}
        if c.get("trace") is not None:
            payload = json.dumps(c["trace"], sort_keys=True).encode()
            rec["trace_sha256"] = hashlib.sha256(payload).hexdigest()
        records.append(rec)
    return records


def read_report(out_path: Path, code: int):
    """(verdict records or None, seconds per check family, output bytes)."""
    size = out_path.stat().st_size if out_path.exists() else 0
    if code != 0:
        return None, {}, size
    try:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        records = verdict_records(doc)
    except (OSError, ValueError, KeyError, TypeError):
        return None, {}, size
    families: dict = {}
    for c in doc["checks"]:
        family = c["check"].split("/")[0]
        families[family] = families.get(family, 0.0) + c.get("elapsed_ms", 0.0) / 1000.0
    return records, families, size


def count_failures(records, expected: list) -> int:
    """Expected comparisons that failed, differ from the record or are missing."""
    if records is None:
        return len(expected)
    failed = sum(
        1 for i, ref in enumerate(expected)
        if i >= len(records) or records[i] != ref or not records[i]["equal"]
    )
    return failed + max(0, len(records) - len(expected))


def time_invocation(argv: list, stem: str) -> dict:
    out_path = OUT / f"{stem}.out"
    rss_path = OUT / f"{stem}.rss"
    rss_path.unlink(missing_ok=True)
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    with open(out_path, "wb") as out:
        code = _wait(_python(["-c", CLI_CHILD, str(rss_path), *argv], out))
    wall = time.perf_counter() - t0
    cpu = _children_cpu() - cpu0
    try:
        rss_kb = int(rss_path.read_text())
    except (OSError, ValueError):
        rss_kb = 0
    return {"argv": argv, "code": code, "wall_s": wall, "cpu_s": cpu,
            "rss_kb": rss_kb, "out": out_path}


def run_pass(workload: str, reference: list) -> dict:
    """One pass over the workload's invocations, timed and checked."""
    runs = []
    attempted = failed = 0
    families: dict = {}
    output_bytes = 0
    for k, (argv, expected) in enumerate(zip(WORKLOADS[workload], reference)):
        run = time_invocation(argv, f"{workload}.{k}")
        records, fams, size = read_report(run["out"], run["code"])
        run["failed"] = count_failures(records, expected)
        attempted += len(expected)
        failed += run["failed"]
        output_bytes += size
        for family, seconds in fams.items():
            families[family] = families.get(family, 0.0) + seconds
        run["out"] = str(run["out"].relative_to(ROOT))
        runs.append(run)
    return {
        "wall_s": sum(r["wall_s"] for r in runs),
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["rss_kb"] for r in runs) / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "families": families,
        "output_bytes": output_bytes,
        "invocations": runs,
    }


def timed_run(workload: str, reference: list, seconds: int) -> dict:
    setup = []
    passes = []
    start = time.perf_counter()
    while True:
        setup += [launch_setup()[0] for _ in range(SETUP_SAMPLES)]
        passes.append(run_pass(workload, reference))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + passes[-1]["wall_s"] > RUN_CAP:
            break
    setup += [launch_setup()[0] for _ in range(SETUP_SAMPLES)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "fail_ratio": failed / attempted, "setup_samples": setup,
            "passes": passes}


def traced_run(workload: str, reference: list) -> dict:
    plain = run_pass(workload, reference)
    attempted, failed = plain["attempted"], plain["failed"]
    dumps = []
    traced_wall = 0.0
    output_bytes = 0
    invocations = []
    for k, (argv, expected) in enumerate(zip(WORKLOADS[workload], reference)):
        out_path = OUT / f"{workload}.traced.{k}.out"
        dump_path = OUT / f"{workload}.traced.{k}.spans"
        dump_path.unlink(missing_ok=True)
        launch = time.monotonic()
        with open(out_path, "wb") as out:
            code = _wait(_python(
                [str(BENCH / "tracer.py"), "trace", repr(launch), str(dump_path), *argv], out))
        wall = time.monotonic() - launch
        traced_wall += wall
        records, _, size = read_report(out_path, code)
        output_bytes += size
        fails = count_failures(records, expected)
        attempted += len(expected)
        failed += fails
        if dump_path.exists():  # a crashed run leaves none; its checks failed above
            with open(dump_path, "rb") as fh:
                dumps.append(pickle.load(fh))
        invocations.append({"argv": argv, "code": code, "wall_s": wall,
                            "failed": fails, "spans": str(dump_path.relative_to(ROOT))})
    summary = tracer.summarize(dumps, traced_wall)
    serial = 0.0
    for k, dump in enumerate(dumps):
        calls = [call for _, call in dump["pool_calls"]]
        if calls:
            serial += replay_serial(calls, f"{workload}.replay.{k}")
    m = summary["metrics"]
    m["pool.serial_s"] = serial
    m["pool.speedup"] = serial / m["pool.wall_s"] if m["pool.wall_s"] else 0.0
    m["cli.output_bytes"] = output_bytes
    for family in CHECK_FAMILIES:
        m[f"cli.check.{family}_s"] = plain["families"].get(family, 0.0)
    m["trace.overhead_ratio"] = traced_wall / plain["wall_s"]
    m["trace.wall_s"] = traced_wall
    return {"attempted": attempted, "failed": failed, "metrics": m,
            "fail_ratio": failed / attempted, "split": summary["split"],
            "untraced": summary["untraced"],
            "note": "layers inside pool workers are not traced; their time "
                    "shows as pool self time in the parent",
            "untraced_pass": plain, "traced_invocations": invocations}


def replay_serial(calls: list, stem: str) -> float:
    """Wall time of the pool-launching calls re-run at one worker."""
    path = OUT / f"{stem}.calls"
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)
    proc = _python([str(BENCH / "tracer.py"), "replay", str(path)], subprocess.PIPE)
    text = proc.stdout.read()
    proc.stdout.close()
    if _wait(proc) != 0:
        raise BenchError("replaying the pool calls at one worker failed")
    return float(text)


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def require_sources() -> None:
    if not (SRC / "hooklab" / "cli.py").is_file():
        raise BenchError(f"no hooklab sources under {SRC}")


def load_reference() -> dict:
    require_sources()
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    reference = load_reference()[workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(seed)
    if trace:
        result = traced_run(workload, reference)
        wanted = spec["per_layer"]
    else:
        result = timed_run(workload, reference, seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise BenchError(f"metric {m['name']} was not produced")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    doc = {"workload": workload, "seconds": seconds, "trace": trace,
           "run": record, "result": line, **result}
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return line


def record_reference() -> None:
    """Write reference.json from the current tree; pools-2w at --threads 1."""
    require_sources()
    OUT.mkdir(exist_ok=True)
    workloads = {}
    for name, invocations in WORKLOADS.items():
        per_invocation = []
        for k, argv in enumerate(invocations):
            argv = list(argv)
            argv[argv.index("--threads") + 1] = "1"
            run = time_invocation(argv, f"reference.{name}.{k}")
            records, _, _ = read_report(run["out"], run["code"])
            if run["code"] != 0 or records is None or not all(r["equal"] for r in records):
                raise BenchError(f"{argv} did not pass; nothing recorded")
            per_invocation.append(records)
            print(f"{name}: {' '.join(argv)}: {len(records)} comparisons", file=sys.stderr)
        workloads[name] = per_invocation
    record = run_record(0)
    doc = {"recorded_from": record["git_commit"], "hooklab": record["hooklab"],
           "workloads": workloads}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            line = run_workload(name, args.seed, seconds, args.trace, spec)
            lines[name] = line
            for metric, v in line["metrics"].items():
                print(f"{name:<22} {metric:<32} {v['value']:>14.6g} {v['unit']}")
            print(f"{name:<22} {'failed/attempted':<32} {line['failed']:>8}/{line['attempted']}")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}/{m}": v for n, line in lines.items()
                        for m, v in line["metrics"].items()},
        }))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
