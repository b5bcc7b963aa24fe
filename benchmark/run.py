#!/usr/bin/env python3
"""The repository benchmark: builds benchmark/srl_bench and runs its workloads.

One run (the last stdout line is the result):
  python3 benchmark/run.py --workload kv-cached --seed 1 --seconds 20 --trace 0

A set of runs, each workload in its own process, workload order alternating:
  python3 benchmark/run.py --repeats 10 --seed 1 --out results.json

Compare two sets by the bounds in BENCHMARK.json:
  python3 benchmark/run.py compare parent.json change.json

Correctness checks with short windows (exit 0 only if every check passes):
  python3 benchmark/run.py --smoke

srl_bench is built with CMake in .bench_build/ at the repository root; traces of
--trace 1 runs land in .bench_build/traces/.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "srl_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds srl_bench; raises on failure."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "srl_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def declared(trace):
    return SPEC["per_layer" if trace else "end_to_end"]


def run_bench(workload, seed, seconds, trace, extra=(), timeout=RUN_TIMEOUT_S):
    """Runs srl_bench once. Returns (exit code, parsed last line or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), *extra]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: srl_bench did not finish within {timeout} s")
        return -1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: srl_bench printed no result (exit {proc.returncode})")
        return proc.returncode, None


def problems_of(result, trace):
    """Where the reported metrics differ from BENCHMARK.json, as a list of messages."""
    problems = []
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared(trace)}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')} != declared {unit}")
        elif not isinstance(got[name].get("value"), (int, float)) or \
                not math.isfinite(got[name]["value"]):
            problems.append(f"{name}: value {got[name].get('value')} is not a finite number")
    problems += [f"undeclared metric {n}" for n in got if n not in want]
    problems += [f"srl_bench: {e}" for e in result.get("errors", [])]
    return problems


def single_run(args):
    build()
    rc, res = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    problems = problems_of(res, args.trace)
    for p in problems:
        log(f"{args.workload}: {p}")
    correct = bool(res["correct"]) and rc == 0 and not problems
    metrics = {m["name"]: res["metrics"][m["name"]] for m in declared(args.trace)
               if m["name"] in res["metrics"]}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, trace):
    """Per workload: run and failure counts, and each metric's quartiles over the
    correct runs."""
    summary = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == w]
        good = [r for r in rows if r["ok"]]
        summary[w] = {"runs": len(rows), "runs_ok": len(good),
                      "attempted": sum(r["attempted"] for r in rows),
                      "failed": sum(r["failed"] for r in rows), "metrics": {}}
        for m in declared(trace):
            values = [r["metrics"][m["name"]]["value"] for r in good]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            summary[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return summary


def host_meta():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True).stdout.strip()
        except OSError:
            return ""
    return {"cpus": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "commit": git("rev-parse", "HEAD") or "unknown",
            "uncommitted_changes": bool(git("status", "--porcelain")),
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def repeated_runs(args):
    """Runs every workload args.repeats times and writes every run, failed ones too,
    to the results file; exits 1 if any run failed."""
    build()
    runs = []
    for r in range(args.repeats):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            seed = args.seed + r
            t0 = time.monotonic()
            rc, res = run_bench(w, seed, args.seconds, args.trace,
                                timeout=4 * args.seconds + 120)
            res = res or {}
            ok = rc == 0 and bool(res.get("correct")) and not problems_of(res, args.trace)
            log(f"repeat {r} {w} seed {seed}: {'ok' if ok else f'FAILED (exit {rc})'} "
                f"in {time.monotonic() - t0:.1f} s")
            runs.append({"workload": w, "repeat": r, "seed": seed, "ok": ok, "exit": rc,
                         "attempted": int(res.get("attempted", 0)),
                         "failed": int(res.get("failed", 0)),
                         "metrics": res.get("metrics", {}), "errors": res.get("errors", [])})
    summary = summarize(runs, args.trace)
    for w, s in summary.items():
        log(f"{w}: {s['runs_ok']}/{s['runs']} runs correct, {s['failed']} of "
            f"{s['attempted']} ops failed")
        for name, m in s["metrics"].items():
            print(f"{w} {name} {m['median']:.6g} {m['unit']}  (IQR/median {m['spread']:.3f}, "
                  f"n={len(m['values'])})")
    meta = host_meta()
    meta.update({"repeats": args.repeats, "seconds": args.seconds, "trace": args.trace,
                 "first_seed": args.seed, "workloads": WORKLOADS})
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps({"meta": meta, "runs": runs, "summary": summary}, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if all(r["ok"] for r in runs) else 1


def by_repeat(result, workload, metric):
    """{repeat: value} over the workload's correct runs."""
    return {r["repeat"]: r["metrics"][metric]["value"] for r in result["runs"]
            if r["workload"] == workload and r["ok"]}


def compare(parent_path, change_path):
    """Applies BENCHMARK.json's rules to two result sets, one row per workload x metric.

    failed:      a side has fewer correct runs than it requested (a run with a failed
                 op is incorrect); the workload's rows get no other verdict.
    gain:        the change wins >= 9/10 of the pairs (runs paired by repeat) and the
                 medians differ by more than the parent's IQR.
    better-all:  not a gain, but every change run beats every parent run.
    unresolved:  a side's IQR/median exceeds the bound.
    regression:  the change's median is worse than the parent's by more than the bound.
    same:        otherwise.
    Exits 1 if any row is failed or a regression.
    """
    a = json.loads(Path(parent_path).read_text())
    b = json.loads(Path(change_path).read_text())
    bad = 0
    print(f"{'workload':<12} {'metric':<12} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'spread_p':>8} {'spread_c':>8} {'wins':>6}  verdict")
    for w in [w for w in WORKLOADS if w in a["summary"] and w in b["summary"]]:
        wa, wb = a["summary"][w], b["summary"][w]
        problems = [f"{side}: {s['runs_ok']} of {res['meta']['repeats']} runs correct, "
                    f"{s['failed']} ops failed"
                    for side, s, res in (("parent", wa, a), ("change", wb, b))
                    if s["runs_ok"] < res["meta"]["repeats"]]
        if problems:
            print(f"{w:<12} {'*':<12} failed: {'; '.join(problems)}")
            bad += 1
            continue
        for m in SPEC["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            sa, sb = wa["metrics"][name], wb["metrics"][name]
            pa, pb = by_repeat(a, w, name), by_repeat(b, w, name)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            paired = sorted(pa.keys() & pb.keys())
            wins = sum(better(pb[r], pa[r]) for r in paired)
            delta = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            worse = delta if lower else -delta
            if paired and wins >= 0.9 * len(paired) and \
                    abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"] and worse < 0:
                verdict = "gain"
            elif all(better(y, x) for x in sa["values"] for y in sb["values"]):
                verdict = "better-all"
            elif sa["spread"] > bound or sb["spread"] > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
                bad += 1
            else:
                verdict = "same"
            print(f"{w:<12} {name:<12} {sa['median']:>12.5g} {sb['median']:>12.5g} "
                  f"{delta * 100:>+7.2f}% {sa['spread'] * 100:>7.2f}% {sb['spread'] * 100:>7.2f}% "
                  f"{wins:>3}/{len(paired):<2}  {verdict}")
    return 1 if bad else 0


def smoke():
    """Short-window correctness checks; every one must pass."""
    build()
    failures = []

    def check(ok, what):
        log(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    st = subprocess.run([str(BINARY), "--selftest"], capture_output=True, text=True)
    log(st.stdout.rstrip())
    check(st.returncode == 0, "histogram quantiles match known distributions")
    for bad in (["--workload", "kv-cached", "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--sconds", "1"],
                ["--workload", "kv-chached", "--seed", "1", "--seconds", "1", "--trace", "0"],
                ["--workload", "kv-cached", "--seed", "x", "--seconds", "1", "--trace", "0"],
                ["--workload", "kv-cached", "--seconds", "1", "--trace", "0"]):
        rc = subprocess.run([str(BINARY), *bad], capture_output=True).returncode
        check(rc == 2, f"srl_bench rejects {' '.join(bad)} (exit {rc})")

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, res = run_bench(w, 7, 0.3, trace)
            check(res is not None and rc == 0, f"{w} trace={trace}: exit 0 with a result")
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={trace}: correct, failed=0 of {res['attempted']}")
            problems = problems_of(res, trace)
            check(not problems, f"{w} trace={trace}: every declared metric, no other "
                                f"{problems[:3] if problems else ''}")
            if trace and w != "metis-wrmem":
                share = res["metrics"]["client.attributed_share"]["value"]
                check(0.9 <= share <= 1.1, f"{w}: layer shares sum to {share:.3f} of client time")
                tf = BUILD / "traces" / f"{w}-seed7.json"
                try:
                    events = json.loads(tf.read_text())["traceEvents"]
                    check(len(events) > 0, f"{w}: Chrome trace holds {len(events)} spans")
                except (OSError, ValueError, KeyError) as e:
                    check(False, f"{w}: Chrome trace readable ({e})")

    for w in ("kv-cached", "kv-paged"):
        rc, res = run_bench(w, 7, 0.3, 0, extra=["--corrupt-record"])
        check(rc != 0 and (res is None or not res["correct"]),
              f"{w}: one corrupted record fails the run (exit {rc})")
    log(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare PARENT.json CHANGE.json")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    modes = sum([args.workload is not None, args.repeats is not None, args.smoke])
    if modes != 1:
        p.error("give exactly one of --workload, --repeats, --smoke")
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.smoke:
            return smoke()
        if args.repeats is not None:
            if args.repeats < 1:
                p.error("--repeats must be >= 1")
            return repeated_runs(args)
        return single_run(args)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
